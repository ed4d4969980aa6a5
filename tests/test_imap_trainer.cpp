#include <gtest/gtest.h>

#include <cmath>

#include "attack/ppo_attacker.h"
#include "attack/threat_model.h"
#include "core/imap_trainer.h"
#include "env/hopper.h"
#include "env/you_shall_not_pass.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"

namespace imap::core {
namespace {

rl::ActionFn feedback_victim() {
  return [](const std::vector<double>& obs) {
    const auto p = env::hopper_params();
    std::vector<double> u(p.n_joints);
    for (std::size_t j = 0; j < p.n_joints; ++j)
      u[j] = 0.3 * p.c[j] - 3.0 * (obs[0] + 0.4 * obs[1]) * p.d[j];
    return u;
  };
}

ImapOptions small_opts(RegularizerType type, bool br = false) {
  ImapOptions o;
  o.reg.type = type;
  o.bias_reduction = br;
  o.ppo.steps_per_iter = 512;
  o.surrogate_scale = 500.0;
  return o;
}

TEST(ImapTrainer, SingleAgentIteratesWithEveryRegularizer) {
  const auto env = env::make_hopper();
  for (const auto type : {RegularizerType::SC, RegularizerType::PC,
                          RegularizerType::R, RegularizerType::D}) {
    ImapTrainer t(*env, feedback_victim(), 0.075, small_opts(type), Rng(3));
    const auto s = t.iterate();
    EXPECT_EQ(s.total_steps, 512);
    EXPECT_DOUBLE_EQ(s.tau, 1.0) << "fixed τ₀ without BR";
    if (type != RegularizerType::R)
      EXPECT_GT(s.mean_intrinsic, 0.0) << to_string(type);
    else
      EXPECT_LT(s.mean_intrinsic, 0.0) << "R bonus is a negative distance";
  }
}

TEST(ImapTrainer, RiskTargetDefaultsToInitialState) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::R), Rng(3));
  // s₀ ≈ 0 for the locomotors, so states near reset earn near-zero penalty.
  auto s = t.iterate();
  EXPECT_GT(s.mean_intrinsic, -2.0);  // bounded, not wildly off
}

TEST(ImapTrainer, BiasReductionSchedulesTau) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC, /*br=*/true), Rng(3));
  const auto s0 = t.iterate();
  EXPECT_DOUBLE_EQ(s0.tau, 1.0);  // τ₀ = 1 (λ₀ = 0)
  for (int i = 0; i < 5; ++i) t.iterate();
  EXPECT_GT(t.tau(), 0.0);
  EXPECT_LE(t.tau(), 1.0);
  EXPECT_GE(t.bias_reduction().lambda(), 0.0);
}

TEST(ImapTrainer, MultiAgentUsesGameMarginals) {
  const auto game = env::make_you_shall_not_pass();
  rl::ActionFn victim = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 0.0};
  };
  ImapOptions o = small_opts(RegularizerType::PC);
  o.reg.xi = 0.5;
  ImapTrainer t(*game, victim, o, Rng(5));
  const auto s = t.iterate();
  EXPECT_GT(s.mean_intrinsic, 0.0);
  EXPECT_EQ(t.regularizer().type(), RegularizerType::PC);
}

TEST(ImapTrainer, AdversaryMatchesThreatModelShape) {
  const auto env = env::make_hopper();
  ImapTrainer t(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::SC), Rng(3));
  t.iterate();
  const auto adv = t.adversary();
  Rng rng(3);
  const auto obs = env->reset(rng);
  EXPECT_EQ(adv.query(obs).size(), env->obs_dim());
}

/// The per-row mean the adversary closures computed before adversaries
/// became handles: one per-sample kernel::affine per layer, with the scalar
/// backend's tanh_rows between (every backend returns its bits).
std::vector<double> per_row_mean(const nn::GaussianPolicy& policy,
                                 std::vector<double> x) {
  const auto& sizes = policy.net().sizes();
  const auto& w = policy.net().params();
  std::size_t off = 0;
  for (std::size_t li = 0; li + 1 < sizes.size(); ++li) {
    const std::size_t in = sizes[li], out = sizes[li + 1];
    std::vector<double> y(out);
    nn::kernel::affine(w.data() + off, w.data() + off + in * out, out, in,
                       x.data(), y.data());
    off += in * out + out;
    if (li + 2 < sizes.size())
      nn::kernel::scalar_backend().tanh_rows(y.data(), y.size(), y.data());
    x = std::move(y);
  }
  return x;
}

/// `adv` is a batchable frozen snapshot of `policy`: one-row queries and
/// batched rows both equal the per-row mean bit for bit.
void expect_frozen_mean_handle(const rl::PolicyHandle& adv,
                               const nn::GaussianPolicy& policy) {
  ASSERT_TRUE(adv.batched());
  EXPECT_FALSE(adv.quantized());
  EXPECT_NE(adv.net(), &policy);  // a snapshot, not a view
  Rng rng(77);
  nn::Batch obs(8, policy.obs_dim());
  for (std::size_t r = 0; r < obs.rows(); ++r)
    obs.set_row(r, rng.normal_vec(policy.obs_dim(), 0.0, 0.5));
  nn::Mlp::Workspace ws;
  const nn::Batch& batched = adv.query_batch(obs, ws);
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    const std::vector<double> o(obs.row(r), obs.row(r) + obs.dim());
    const auto want = per_row_mean(policy, o);
    EXPECT_EQ(adv.query(o), want) << "row " << r;
    for (std::size_t c = 0; c < want.size(); ++c)
      EXPECT_EQ(batched(r, c), want[c]) << "row " << r << " col " << c;
  }
}

TEST(Adversary, HandlesAreBatchedAndMatchPerRowMean) {
  const auto env = env::make_hopper();
  {
    SCOPED_TRACE("ImapTrainer");
    ImapTrainer t(*env, feedback_victim(), 0.075,
                  small_opts(RegularizerType::SC), Rng(3));
    t.iterate();
    expect_frozen_mean_handle(t.adversary(), t.trainer().policy());
  }
  rl::PpoOptions ppo;
  ppo.steps_per_iter = 512;
  {
    SCOPED_TRACE("SA-RL");
    attack::PpoAttacker sa(
        scenario::ScenarioEnv(*env,
                              scenario::state_perturbation(env->name(), 0.075),
                              feedback_victim(),
                              scenario::RewardMode::Adversary),
        ppo, Rng(5));
    sa.trainer().iterate();
    expect_frozen_mean_handle(sa.adversary(), sa.trainer().policy());
  }
  {
    SCOPED_TRACE("AP-MARL");
    const auto game = env::make_you_shall_not_pass();
    attack::PpoAttacker ap(
        attack::OpponentEnv(*game,
                            rl::ActionFn([](const std::vector<double>&) {
                              return std::vector<double>{-1.0, 0.0};
                            })),
        ppo, Rng(7));
    ap.trainer().iterate();
    expect_frozen_mean_handle(ap.adversary(), ap.trainer().policy());
  }
}

TEST(ImapTrainer, DeterministicGivenSeed) {
  const auto env = env::make_hopper();
  ImapTrainer a(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC), Rng(11));
  ImapTrainer b(*env, feedback_victim(), 0.075,
                small_opts(RegularizerType::PC), Rng(11));
  const auto sa = a.iterate();
  const auto sb = b.iterate();
  EXPECT_DOUBLE_EQ(sa.mean_intrinsic, sb.mean_intrinsic);
  EXPECT_DOUBLE_EQ(sa.mean_return, sb.mean_return);
}

TEST(EstimateInitialState, AveragesResets) {
  const auto env = env::make_hopper();
  RegularizerOptions opts;
  Rng rng(3);
  const auto s0 = estimate_initial_state(*env, opts, 16, rng);
  ASSERT_EQ(s0.size(), env->obs_dim());
  for (const double x : s0) EXPECT_LT(std::abs(x), 0.1);
}

}  // namespace
}  // namespace imap::core
