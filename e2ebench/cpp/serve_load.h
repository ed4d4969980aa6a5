#pragma once

// Load generator for the /infer route: one thread, a fixed pool of
// keep-alive connections, an open-loop schedule read from a file (so the
// benchmark's seeded schedule is the only source of arrival times), and a
// closed-loop saturation phase of a fixed request count. Every response
// body is kept and compared bit-for-bit against a direct
// PolicyHandle::serving query afterwards.

#include <memory>
#include <string>
#include <vector>

#include "nn/gaussian.h"
#include "rl/policy_handle.h"
#include "trace.h"

namespace e2e {

/// One victim the traffic addresses, with the reference handle its answers
/// are checked against.
struct Victim {
  std::string env;
  std::string defense;
  std::string path;  ///< checkpoint the daemon serves
  std::shared_ptr<const imap::nn::GaussianPolicy> policy;
  imap::rl::PolicyHandle reference;  ///< PolicyHandle::serving(policy, int8)
};

/// One scheduled item. rows == 0 marks a control item: re-save the victim's
/// checkpoint and POST /models/invalidate for it.
struct Item {
  double due_s = 0.0;  ///< offset from the phase start
  int victim = 0;
  int rows = 1;
};

struct Phase {
  std::string name;
  std::vector<Item> items;      ///< open loop: the schedule
  long long closed_requests = 0;  ///< > 0: closed loop for this many instead
  std::vector<Item> mix;        ///< closed loop: request shapes, cycled
};

/// Per-request outcome, in schedule order.
struct Outcome {
  double due_s = 0.0, sent_s = 0.0, done_s = 0.0;  ///< since phase start
  int victim = 0;
  int rows = 0;
  int status = 0;  ///< 0 = transport error
  bool ok = false; ///< 200 and bit-identical body
};

struct PhaseResult {
  std::string name;
  std::vector<Outcome> requests;  ///< /infer requests only
  double wall_s = 0.0;            ///< first due time to last completion
  long long max_backlog = 0;      ///< due-but-unsent requests, worst seen
  long long reloads = 0;
  std::string metrics_before, metrics_after;  ///< /metrics scrapes
  std::vector<std::string> bodies;            ///< per request, for verify()
  std::vector<std::vector<double>> inputs;    ///< per request, for verify()
};

class LoadGen {
 public:
  /// Opens `conns` keep-alive connections to 127.0.0.1:port.
  LoadGen(int port, int conns, std::vector<Victim> victims,
          std::uint64_t seed);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Run one phase; `tracer` (may be null) gets one span per request.
  PhaseResult run(const Phase& phase, Tracer* tracer);

  /// Blocking request on connection 0 (only between phases); returns the
  /// status and fills `body`.
  int roundtrip(const std::string& request, std::string& body);

  /// Compare every response of `r` against the reference handles; marks
  /// Outcome::ok and returns the number of failures.
  long long verify(PhaseResult& r) const;

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Victim> victims_;
  std::uint64_t seed_;
  std::uint64_t next_index_ = 0;  ///< observation stream position
};

/// The exact request bytes of one /infer request: `rows` observations of
/// `v`, drawn from stream `index` of `seed`; the rows land in `obs_out`.
std::string infer_request(const Victim& v, int rows, std::uint64_t seed,
                          std::uint64_t index, std::vector<double>* obs_out);

/// Value of the first sample line of a Prometheus counter in a /metrics scrape.
double scrape_value(const std::string& text, const std::string& name);

}  // namespace e2e
