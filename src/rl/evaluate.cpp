#include "rl/evaluate.h"

#include <utility>

#include "common/check.h"

namespace imap::rl {

EvalStats evaluate(const Env& proto, const PolicyHandle& act, int episodes,
                   Rng& rng) {
  IMAP_CHECK(episodes > 0);
  auto env = proto.clone();
  nn::Mlp::Workspace ws;
  EvalStats out;
  long long total_len = 0;
  int successes = 0;

  for (int ep = 0; ep < episodes; ++ep) {
    auto obs = env->reset(rng);
    double ret = 0.0;
    int len = 0;
    while (true) {
      StepResult sr = env->step(env->action_space().clamp(act.query(obs, ws)));
      ret += sr.reward;
      ++len;
      if (sr.done || sr.truncated) {
        if (sr.task_completed) ++successes;
        break;
      }
      obs = std::move(sr.obs);
    }
    out.episode_returns.push_back(ret);
    total_len += len;
  }

  out.returns = summarize(out.episode_returns);
  out.success_rate = static_cast<double>(successes) / episodes;
  out.mean_length = static_cast<double>(total_len) / episodes;
  return out;
}

std::vector<std::vector<double>> rollout_trajectory(const Env& proto,
                                                    const PolicyHandle& act,
                                                    Rng& rng) {
  auto env = proto.clone();
  nn::Mlp::Workspace ws;
  std::vector<std::vector<double>> traj;
  auto obs = env->reset(rng);
  traj.push_back(obs);
  while (true) {
    StepResult sr = env->step(env->action_space().clamp(act.query(obs, ws)));
    traj.push_back(sr.obs);
    if (sr.done || sr.truncated) break;
    obs = std::move(sr.obs);
  }
  return traj;
}

}  // namespace imap::rl
