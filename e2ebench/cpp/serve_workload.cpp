#include "serve_workload.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/zoo.h"
#include "env/registry.h"
#include "nn/checkpoint.h"
#include "probes.h"
#include "rl/ppo.h"

namespace e2e {

namespace {

const char* const kHealth = "GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

/// Keep-alive connections of load: 4, never more than the machine's cores.
int load_connections() {
  return static_cast<int>(std::min(4L, ::sysconf(_SC_NPROCESSORS_ONLN)));
}

/// The real imap_serve binary as a child process, started exactly as a user
/// starts it (`--port 0 --print-port`) on the workload zoo, stopped with
/// SIGTERM (SIGKILL after 10 s) and always reaped. The load generator
/// therefore never shares a process with the server it measures.
class Daemon {
 public:
  Daemon(const std::string& serve_bin, const std::string& zoo_dir,
         std::uint64_t seed) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      // Fork and exec inherit the load generator's 1 ns timer slack; the
      // server must sleep with the kernel's default 50 us, as users run it.
      ::prctl(PR_SET_TIMERSLACK, 50'000UL, 0UL, 0UL, 0UL);
      ::close(fds[0]);
      ::dup2(fds[1], 1);
      ::setenv("IMAP_ZOO_DIR", zoo_dir.c_str(), 1);
      ::setenv("IMAP_SEED", std::to_string(seed).c_str(), 1);
      std::string prog = serve_bin, port = "--port", zero = "0",
                  print = "--print-port";
      char* argv[] = {prog.data(), port.data(), zero.data(), print.data(),
                      nullptr};
      ::execv(prog.c_str(), argv);
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 60'000) <= 0) break;
      char buf[64];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    port_ = std::atoi(line.c_str());
    if (port_ <= 0) {
      stop();
      throw std::runtime_error("imap_serve did not report a port");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_);
  }

 private:
  int pid_ = -1;
  int out_ = -1;
  int port_ = 0;
};

/// Seeded random victims with the zoo's victim shape, saved where the
/// daemon's zoo looks for them. Serving cost does not depend on the weight
/// values, so no training is needed.
std::vector<Victim> prepare_victims(const Plan& plan, const std::string& dir,
                                    std::uint64_t seed, double& io_s) {
  imap::core::Zoo zoo(dir, 1.0, seed);
  const imap::rl::PpoOptions shape;
  std::vector<Victim> out;
  io_s = 0.0;
  for (std::size_t i = 0; i < plan.victims.size(); ++i) {
    Victim v;
    v.env = plan.victims[i].first;
    v.defense = plan.victims[i].second;
    const auto env = imap::env::make_training_env(v.env);
    imap::Rng rng = imap::Rng(seed).split(0x5e77e + i);
    auto policy = std::make_shared<const imap::nn::GaussianPolicy>(
        env->obs_dim(), env->act_dim(), shape.hidden, rng, shape.init_log_std);
    v.path = zoo.checkpoint_path(v.env, v.defense);
    const auto t0 = Clock::now();
    if (!imap::nn::save_policy(v.path, *policy))
      throw std::runtime_error("cannot save " + v.path);
    io_s += seconds_since(t0);
    v.policy = policy;
    v.reference = imap::rl::PolicyHandle::serving(policy, true);
    out.push_back(std::move(v));
  }
  return out;
}

/// Run every phase of the plan, check every answer, and render the phases.
std::string drive(LoadGen& gen, const Plan& plan, Tracer* tracer,
                  long long& attempted, long long& failed) {
  std::string phases = "[";
  for (const Phase& phase : plan.phases) {
    PhaseResult r = gen.run(phase, tracer);
    const long long f = gen.verify(r);
    std::vector<double> lat, late;
    long long multi_rows = 0, multi_requests = 0;
    for (const Outcome& o : r.requests) {
      if (o.ok) lat.push_back((o.done_s - o.due_s) * 1e6);
      if (phase.closed_requests <= 0) late.push_back((o.sent_s - o.due_s) * 1e6);
      if (o.rows > 1) {
        multi_rows += o.rows;
        ++multi_requests;
      }
    }
    const auto delta = [&](const char* name) {
      return scrape_value(r.metrics_after, name) -
             scrape_value(r.metrics_before, name);
    };
    attempted += static_cast<long long>(r.requests.size());
    failed += f;
    if (phases.size() > 1) phases += ", ";
    phases += Json()
                  .str("name", r.name)
                  .integer("requests", static_cast<long long>(r.requests.size()))
                  .integer("failed", f)
                  .num("wall_s", r.wall_s)
                  .integer("closed_requests", phase.closed_requests)
                  .integer("max_backlog", r.max_backlog)
                  .integer("reloads", r.reloads)
                  .num("rows", delta("imap_serve_infer_rows_total"))
                  .num("batches", delta("imap_serve_coalesced_batches_total"))
                  .num("cache_misses", delta("imap_serve_cache_misses_total"))
                  .integer("multi_rows", multi_rows)
                  .integer("multi_requests", multi_requests)
                  .raw("lat_us", json_array(lat))
                  .raw("late_us", json_array(late))
                  .render();
  }
  return phases + "]";
}

double health_rtt_us(LoadGen& gen) {
  std::string body;
  return median_call_us([&] { (void)gen.roundtrip(kHealth, body); }, 41, 50);
}

}  // namespace

Plan read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  Plan plan;
  std::string line, tag;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    if (!(ls >> tag)) continue;
    if (tag == "victim") {
      std::string env, defense;
      ls >> env >> defense;
      plan.victims.emplace_back(env, defense);
    } else if (tag == "phase") {
      Phase p;
      std::string kind;
      ls >> p.name >> kind;
      if (kind == "closed") ls >> p.closed_requests;
      plan.phases.push_back(std::move(p));
    } else if (tag == "item" && !plan.phases.empty()) {
      Item it;
      ls >> it.due_s >> it.victim >> it.rows;
      plan.phases.back().items.push_back(it);
    } else if (tag == "mix" && !plan.phases.empty()) {
      Item it;
      ls >> it.victim >> it.rows;
      plan.phases.back().mix.push_back(it);
    } else {
      throw std::runtime_error("bad plan line: " + line);
    }
    if (ls.fail()) throw std::runtime_error("bad plan line: " + line);
  }
  for (const Phase& p : plan.phases) {
    for (const Item& it : p.closed_requests > 0 ? p.mix : p.items)
      if (it.victim < 0 ||
          static_cast<std::size_t>(it.victim) >= plan.victims.size())
        throw std::runtime_error("plan names an unknown victim");
    if ((p.closed_requests > 0 ? p.mix : p.items).empty())
      throw std::runtime_error("plan phase " + p.name + " is empty");
  }
  return plan;
}

std::string run_serve(const std::string& serve_bin, const std::string& dir,
                      std::uint64_t seed, const Plan& plan, int setups,
                      Tracer* tracer) {
  double io_s = 0.0;
  const std::vector<Victim> victims = prepare_victims(plan, dir, seed, io_s);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < setups; ++k) {
    daemon.reset();
    Tracer::Scope span(tracer, "serve.setup");
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(serve_bin, dir, seed);
    LoadGen first(daemon->port(), 1, victims, seed);
    for (const Victim& v : victims) {
      std::string body;
      const int status =
          first.roundtrip(infer_request(v, 1, seed, 1u << 30, nullptr), body);
      if (status != 200)
        throw std::runtime_error("first /infer for " + v.env + "/" +
                                 v.defense + " answered " +
                                 std::to_string(status) + ": " + body);
    }
    setup_s.push_back(seconds_since(t0));
  }

  long long attempted = 0, failed = 0;
  LoadGen gen(daemon->port(), load_connections(), victims, seed);
  const double cpu0 = cpu_seconds(daemon->pid());
  const std::string phases = drive(gen, plan, tracer, attempted, failed);
  const double cpu_s = cpu_seconds(daemon->pid()) - cpu0;
  Json probes;
  if (tracer != nullptr) {
    probes.num("serve.health_rtt_us", health_rtt_us(gen));
    serving_probes(probes, victims[0], seed);
  }
  const double rss = peak_rss_mb(daemon->pid());
  daemon->stop();
  return Json()
      .raw("setup_s", json_array(setup_s))
      .num("peak_rss_mb", rss)
      .num("server_cpu_s", cpu_s)
      .num("ckpt_io_s", io_s)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("phases", phases)
      .raw("probes", probes.render())
      .raw("context", context_json())
      .render();
}

}  // namespace e2e
