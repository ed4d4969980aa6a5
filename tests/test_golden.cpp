// Golden trace digests: the equivalence oracle for PpoTrainer and the other
// training-side gradient paths. Each PPO case trains a small run and folds
// its final parameters and per-iteration statistics into one CRC-32;
// tests/golden/ppo_traces.txt pins the expected value. Any change to the
// numeric trace of a covered path — collection, the batched update, the
// intrinsic channel, a defense hook, the IMAP-D
// mimic fit, the MAD input gradient — fails here, on every thread count and
// kernel backend.
//
// Regenerating after a deliberate numerics change: a mismatch prints the
// full replacement file; paste it over tests/golden/ppo_traces.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "attack/gradient_attack.h"
#include "attack/threat_model.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/imap_trainer.h"
#include "defense/sa_regularizer.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "nn/gaussian.h"
#include "rl/ppo.h"
#include "scenario/scenario_env.h"
#include "scenario/spec.h"

namespace imap {
namespace {

constexpr int kIters = 2;

/// Running CRC-32 over the raw bytes of doubles.
class Digest {
 public:
  void add(const std::vector<double>& v) {
    crc_ = crc32(reinterpret_cast<const std::uint8_t*>(v.data()),
                 v.size() * sizeof(double), crc_);
  }
  void add(double x) { add(std::vector<double>{x}); }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

rl::PpoOptions golden_opts(int workers = 1, int slots = 1) {
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = 256;
  opts.num_workers = workers;
  opts.envs_per_worker = slots;
  return opts;
}

/// Final policy / value_e / value_i params, then each iteration's stats.
std::uint32_t digest_of(rl::PpoTrainer& trainer,
                        const std::vector<rl::IterStats>& stats) {
  Digest d;
  d.add(trainer.policy().flat_params());
  d.add(trainer.value_e().params());
  d.add(trainer.value_i().params());
  for (const auto& s : stats) {
    d.add(s.mean_return);
    d.add(s.policy_loss);
    d.add(s.value_loss);
    d.add(s.approx_kl);
    d.add(s.entropy);
    d.add(s.mean_intrinsic);
    d.add(s.tau);
  }
  return d.value();
}

std::uint32_t train_digest(const rl::Env& proto, const rl::PpoOptions& opts,
                           const rl::PpoTrainer::RegularizerHook& hook = {}) {
  rl::PpoTrainer trainer(proto, opts, Rng(7));
  if (hook) trainer.set_regularizer_hook(hook);
  std::vector<rl::IterStats> stats;
  for (int i = 0; i < kIters; ++i) stats.push_back(trainer.iterate());
  return digest_of(trainer, stats);
}

std::shared_ptr<nn::GaussianPolicy> random_victim(std::size_t obs_dim,
                                                  std::size_t act_dim) {
  Rng vr(11);
  return std::make_shared<nn::GaussianPolicy>(
      obs_dim, act_dim, std::vector<std::size_t>{16, 16}, vr);
}

/// Hopper's classic threat model (obs_perturb at the registry ε) as the
/// adversary's view on a random frozen victim: a paper cell's attack env.
scenario::ScenarioEnv hopper_attack_env() {
  const auto inner = env::make_env("Hopper");
  return scenario::ScenarioEnv(
      *inner, scenario::with_default_threat(scenario::parse("hopper")),
      rl::PolicyHandle(random_victim(inner->obs_dim(), inner->act_dim())),
      scenario::RewardMode::Adversary);
}

std::uint32_t hopper_victim_digest(const rl::PpoOptions& opts) {
  return train_digest(hopper_attack_env(), opts);
}

/// YouShallNotPass opponent-control attack view on a random frozen victim.
std::uint32_t ysnp_opponent_digest(const rl::PpoOptions& opts) {
  const auto game = env::make_multiagent_env("YouShallNotPass");
  attack::OpponentEnv proto(
      *game, rl::PolicyHandle(random_victim(game->victim_obs_dim(),
                                            game->victim_act_dim())));
  return train_digest(proto, opts);
}

/// IMAP attack on Hopper under the given options.
std::uint32_t imap_digest(const core::ImapOptions& o) {
  core::ImapTrainer t(hopper_attack_env(), o, Rng(3));
  std::vector<rl::IterStats> stats;
  for (int i = 0; i < kIters; ++i) stats.push_back(t.iterate());
  return digest_of(t.trainer(), stats);
}

struct GoldenCase {
  const char* name;
  std::function<std::uint32_t()> run;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases{
      {"hopper_ke1",
       [] { return train_digest(*env::make_env("Hopper"), golden_opts()); }},
      {"hopper_victim_4x2",
       [] { return hopper_victim_digest(golden_opts(4, 2)); }},
      {"ysnp_opponent_4x2",
       [] { return ysnp_opponent_digest(golden_opts(4, 2)); }},
      {"scenario_randomized_4x2",
       [] {
         const auto spec = scenario::parse(
             "hopper+obs_perturb:0.075+obs_delay:2+obs_dropout:0.2"
             "+obs_noise:0.05+budget:0.5+dr[gain:0.9..1.1,mass:0.8..1.2]@7");
         const auto inner = env::make_env(spec.env);
         const scenario::ScenarioEnv proto(
             *inner, spec,
             rl::PolicyHandle(
                 random_victim(inner->obs_dim(), inner->act_dim())),
             scenario::RewardMode::Adversary);
         return train_digest(proto, golden_opts(4, 2));
       }},
      {"imap_pc_br",
       [] {
         core::ImapOptions o;
         o.reg.type = core::RegularizerType::PC;
         o.bias_reduction = true;
         o.surrogate_scale = 500.0;
         o.ppo = golden_opts();
         return imap_digest(o);
       }},
      {"hopper_sa_hook",
       [] {
         return train_digest(*env::make_env("Hopper"), golden_opts(),
                             defense::make_smoothness_hook(0.075, 1.0, 1,
                                                           Rng(13)));
       }},
      {"hopper_victim_ke1", [] { return hopper_victim_digest(golden_opts()); }},
      {"ysnp_opponent_ke1", [] { return ysnp_opponent_digest(golden_opts()); }},
      {"hopper_set_env_ke1",
       [] {
         // ATLA-style mid-run environment swap: the in-flight episode must
         // restart on the new prototype.
         rl::PpoTrainer trainer(*env::make_env("Hopper"), golden_opts(),
                                Rng(7));
         std::vector<rl::IterStats> stats;
         stats.push_back(trainer.iterate());
         trainer.set_env(*env::make_env("SparseHopper"));
         stats.push_back(trainer.iterate());
         return digest_of(trainer, stats);
       }},
      {"imap_d",
       [] {
         core::ImapOptions o;
         o.reg.type = core::RegularizerType::D;
         o.ppo = golden_opts();
         return imap_digest(o);
       }},
      {"mad_pgd3",
       [] {
         // White-box MAD directions: PGD input gradients through the victim.
         const auto attack =
             attack::make_mad_attack(*random_victim(11, 3), 0.075, 3);
         Rng obs_rng(5);
         Digest d;
         for (int i = 0; i < 64; ++i) d.add(attack(obs_rng.normal_vec(11)));
         return d.value();
       }},
  };
  return cases;
}

std::string golden_path() {
  return (std::filesystem::path(__FILE__).parent_path() / "golden" /
          "ppo_traces.txt")
      .string();
}

/// The file every case must reproduce: the format version, then one
/// `<case> <crc32-hex>` line per case.
std::string render_golden_file() {
  std::string out = "kFormatVersion " + std::to_string(kFormatVersion) + "\n";
  for (const auto& c : golden_cases()) {
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08x", c.run());
    out += std::string(c.name) + " " + hex + "\n";
  }
  return out;
}

void expect_matches_golden_file() {
  const std::string path = golden_path();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << path;
  const std::string have((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string want = render_golden_file();
  EXPECT_EQ(have, want) << "PPO golden trace mismatch. If the numerics "
                           "change is deliberate, replace "
                        << path << " with:\n"
                        << want;
}

TEST(GoldenTrace, SerialMatchesFile) {
  ScopedSerial serial;
  expect_matches_golden_file();
}

TEST(GoldenTrace, FourThreadPoolMatchesFile) {
  ThreadPool pool(4);
  ScopedPool scope(pool);
  expect_matches_golden_file();
}

}  // namespace
}  // namespace imap
