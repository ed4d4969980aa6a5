// e2e_bench: the measuring half of the end-to-end benchmark (run.py plans
// the runs and analyses them). Each subcommand does one piece of one
// workload and prints one JSON object on stdout:
//
//   e2e_bench cell    --workload W --seed N --dir D [--trace FILE]
//   e2e_bench probes  --workload W --seed N --dir D
//   e2e_bench serve   --serve-bin B --seed N --dir D --plan P --setups K
//                     [--trace FILE]
//   e2e_bench context
//
// --trace FILE records spans around every layer call and writes them to
// FILE at exit; without it nothing is recorded.

#include <exception>
#include <iostream>
#include <memory>

#include "cell.h"
#include "serve_workload.h"
#include "trace.h"
#include "util.h"

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: e2e_bench <subcommand> ...");
    const std::string cmd = argv[1];
    if (cmd == "context") {
      std::cout << e2e::context_json() << std::endl;
      return 0;
    }
    const auto args = e2e::parse_args(argc, argv, 2);
    const std::uint64_t seed = std::stoull(e2e::arg(args, "seed"));
    const std::string dir = e2e::arg(args, "dir");
    std::unique_ptr<e2e::Tracer> tracer;
    if (args.count("trace")) tracer = std::make_unique<e2e::Tracer>();

    std::string out;
    if (cmd == "cell") {
      out = e2e::run_cell(e2e::arg(args, "workload"), seed, dir, tracer.get());
    } else if (cmd == "probes") {
      out = e2e::cell_probes(e2e::arg(args, "workload"), seed, dir);
    } else if (cmd == "serve") {
      out = e2e::run_serve(e2e::arg(args, "serve-bin"), dir, seed,
                           e2e::read_plan(e2e::arg(args, "plan")),
                           std::stoi(e2e::arg(args, "setups")), tracer.get());
    } else {
      throw std::runtime_error("unknown subcommand " + cmd);
    }
    if (tracer && !tracer->write(e2e::arg(args, "trace")))
      throw std::runtime_error("cannot write trace file");
    std::cout << out << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << std::endl;
    return 1;
  }
}
