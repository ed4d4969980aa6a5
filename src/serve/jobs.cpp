#include "serve/jobs.h"

#include <exception>
#include <sstream>

#include "common/check.h"
#include "core/experiment_dag.h"
#include "serve/http.h"

namespace imap::serve {

JobRegistry::JobRegistry(BenchConfig cfg, int runners, ServeMetrics* metrics)
    : cfg_(std::move(cfg)), metrics_(metrics) {
  IMAP_CHECK_MSG(runners >= 1, "job registry needs at least one runner");
  // ThreadPool(N) owns N-1 workers (the submitter participates); jobs are
  // fire-and-forget, so size runners+1 to get `runners` dedicated threads.
  pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(runners) + 1);
}

JobRegistry::~JobRegistry() { drain(); }

std::uint64_t JobRegistry::enqueue(const core::AttackPlan& plan) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    id = next_id_++;
    jobs_[id] = Job{plan, State::Queued, ""};
    ++active_;
  }
  if (metrics_ != nullptr) metrics_->jobs_enqueued.inc();
  pool_->submit([this, id] { run_job(id); });
  return id;
}

void JobRegistry::run_job(std::uint64_t id) {
  core::AttackPlan plan;
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = jobs_.find(id);
    IMAP_CHECK_MSG(it != jobs_.end(), "job " << id << " vanished");
    it->second.state = State::Running;
    plan = it->second.plan;
  }

  State final_state = State::Done;
  std::string detail;
  try {
    const auto outcomes = core::DagScheduler(cfg_).run({plan});
    IMAP_CHECK_MSG(outcomes.size() == 1, "one plan, one outcome");
    const auto& o = outcomes[0];
    std::ostringstream os;
    os << "{\"completed\":" << (o.completed ? "true" : "false")
       << ",\"victim_mean_reward\":" << o.victim_eval.returns.mean
       << ",\"victim_success_rate\":" << o.victim_eval.success_rate
       << ",\"curve_points\":" << o.curve.size() << "}";
    detail = os.str();
  } catch (const std::exception& e) {
    final_state = State::Failed;
    detail = e.what();
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.state = final_state;
      it->second.detail = detail;
    }
    --active_;
  }
  if (metrics_ != nullptr) {
    if (final_state == State::Done)
      metrics_->jobs_finished.inc();
    else
      metrics_->jobs_failed.inc();
  }
  cv_.notify_all();
}

std::string JobRegistry::state_name(State s) {
  switch (s) {
    case State::Queued: return "queued";
    case State::Running: return "running";
    case State::Done: return "done";
    case State::Failed: return "failed";
  }
  return "unknown";
}

std::string JobRegistry::status_json(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return "";
  const Job& job = it->second;
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"state\":\"" << state_name(job.state)
     << "\",\"env\":\"" << json_escape(job.plan.env_name)
     << "\",\"attack\":\"" << json_escape(core::to_string(job.plan.attack))
     << "\"";
  if (job.state == State::Done) os << ",\"outcome\":" << job.detail;
  if (job.state == State::Failed)
    os << ",\"error\":\"" << json_escape(job.detail) << "\"";
  os << "}";
  return os.str();
}

void JobRegistry::drain() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] { return active_ == 0; });
}

std::size_t JobRegistry::total() const {
  std::lock_guard<std::mutex> lk(m_);
  return jobs_.size();
}

}  // namespace imap::serve
