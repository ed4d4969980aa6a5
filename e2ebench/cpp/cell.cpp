#include "cell.h"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/threat_model.h"
#include "common/config.h"
#include "common/stats.h"
#include "core/bias_reduction.h"
#include "core/experiment.h"
#include "core/imap_trainer.h"
#include "core/regularizer.h"
#include "core/zoo.h"
#include "defense/victim_trainer.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "nn/checkpoint.h"
#include "probes.h"

namespace e2e {

namespace {

using imap::core::AttackKind;

/// Sizes follow the paper's dense Hopper cell at a scale one run can repeat
/// several times (victim ~1 s, attack + eval ~5 s on a 4-core Xeon).
struct CellSpec {
  const char* workload;
  const char* env;
  bool game;
  AttackKind attack;
  bool bias_reduction;
  long long attack_steps;
  double scale;
};

constexpr CellSpec kCells[] = {
    {"cell-hopper-pc", "Hopper", false, AttackKind::ImapPC, true, 40'960, 0.06},
    {"cell-ysnp-r", "YouShallNotPass", true, AttackKind::ImapR, false, 40'960,
     0.06},
};

const CellSpec& spec_of(const std::string& workload) {
  for (const auto& c : kCells)
    if (workload == c.workload) return c;
  throw std::runtime_error("unknown cell workload: " + workload);
}

imap::BenchConfig config_of(const CellSpec& s, std::uint64_t seed,
                            const std::string& dir) {
  imap::BenchConfig cfg;
  cfg.scale = s.scale;
  cfg.zoo_dir = dir;
  cfg.seed = seed;
  return cfg;
}

imap::core::AttackPlan plan_of(const CellSpec& s) {
  imap::core::AttackPlan plan;
  plan.env_name = s.env;
  plan.defense = "PPO";
  plan.attack = s.attack;
  plan.bias_reduction = s.bias_reduction;
  plan.attack_steps = s.attack_steps;
  return plan;
}

std::uint64_t name_stream(const std::string& key) {
  std::uint64_t stream = 0;
  for (const char c : key) stream = stream * 131 + static_cast<unsigned char>(c);
  return stream;
}

/// Digest of everything a cell produces: the victim checkpoint bytes, the
/// attack learning curve and the eval statistics.
std::string outcome_digest(std::uint32_t ckpt_crc,
                           const imap::rl::EvalStats& ev,
                           const std::vector<imap::core::CurvePoint>& curve) {
  Digest d;
  d.u64(ckpt_crc);
  d.f64(ev.returns.mean);
  d.f64(ev.returns.stddev);
  d.u64(ev.returns.episodes);
  d.f64(ev.success_rate);
  d.f64(ev.mean_length);
  for (const double r : ev.episode_returns) d.f64(r);
  for (const auto& p : curve) {
    d.u64(static_cast<std::uint64_t>(p.steps));
    d.f64(p.victim_success);
    d.f64(p.tau);
  }
  return d.hex();
}

bool finite_stats(const imap::rl::EvalStats& ev) {
  bool ok = std::isfinite(ev.returns.mean) && std::isfinite(ev.returns.stddev) &&
            std::isfinite(ev.success_rate) && std::isfinite(ev.mean_length) &&
            ev.returns.episodes > 0;
  for (const double r : ev.episode_returns) ok = ok && std::isfinite(r);
  return ok;
}

std::string untraced(const CellSpec& s, std::uint64_t seed,
                     const std::string& dir) {
  const auto t0 = Clock::now();
  {
    // A new victim: trained and saved by one zoo, reloaded (archive read +
    // CRC) by the runner's own zoo, as a later bench process would.
    imap::core::Zoo zoo(dir, s.scale, seed);
    if (s.game)
      (void)zoo.game_victim_shared(s.env);
    else
      (void)zoo.victim_shared(s.env, "PPO");
  }
  imap::core::ExperimentRunner runner(config_of(s, seed, dir));
  if (s.game)
    (void)runner.zoo().game_victim_shared(s.env);
  else
    (void)runner.zoo().victim_shared(s.env, "PPO");
  const double setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const auto out = runner.run(plan_of(s));
  const double wall_s = seconds_since(t1);
  const double rss = peak_rss_mb();

  const auto ckpt = runner.zoo().checkpoint_path(s.env, "PPO");
  return Json()
      .num("setup_s", setup_s)
      .num("wall_s", wall_s)
      .num("peak_rss_mb", rss)
      .str("digest", outcome_digest(file_crc(ckpt), out.victim_eval, out.curve))
      .boolean("finite", out.completed && finite_stats(out.victim_eval))
      .integer("attack_steps", out.curve.empty() ? 0 : out.curve.back().steps)
      .render();
}

/// The same cell rebuilt from public parts with a span around each layer
/// call. Seeds, rng splits and options mirror Zoo::victim_shared /
/// Zoo::game_victim_shared and ExperimentRunner::run; the digest check in
/// the benchmark proves the mirror exact.
std::string traced(const CellSpec& s, std::uint64_t seed,
                   const std::string& dir, Tracer& tr) {
  namespace core = imap::core;
  namespace rl = imap::rl;
  using Scope = Tracer::Scope;
  const auto t0 = Clock::now();
  std::optional<core::ExperimentRunner> runner;
  std::shared_ptr<const imap::nn::GaussianPolicy> victim;
  long long env_steps = 0, knn_pairs = 0;
  double setup_s = 0.0, wall_s = 0.0;
  rl::EvalStats ev;
  std::vector<core::CurvePoint> curve;
  {
    Scope cell(&tr, "cell");
    {
      Scope setup(&tr, "cell.setup");
      runner.emplace(config_of(s, seed, dir));
      core::Zoo& zoo = runner->zoo();
      std::unique_ptr<rl::Env> training_env;
      std::unique_ptr<imap::env::MultiAgentEnv> game;
      std::unique_ptr<rl::PpoTrainer> trainer;
      imap::Rng seeder(seed);
      if (s.game) {
        game = imap::env::make_multiagent_env(s.env);
        training_env = std::make_unique<imap::env::VictimSideEnv>(
            *game, imap::env::victim_training_pool(s.env));
        rl::PpoOptions ppo;
        ppo.ent_coef = 0.01;
        ppo.init_log_std = -0.2;
        trainer = std::make_unique<rl::PpoTrainer>(
            *training_env, ppo, seeder.split(name_stream(s.env)));
      } else {
        training_env = imap::env::make_training_env(s.env);
        imap::Rng rng = seeder.split(name_stream(training_env->name() + "|PPO"));
        imap::defense::DefenseOptions opts;
        opts.eps = imap::env::spec(s.env).epsilon;
        trainer = std::make_unique<rl::PpoTrainer>(*training_env, opts.ppo,
                                                   rng.split(1));
      }
      {
        Scope train(&tr, "defense.victim_train");
        rl::RolloutBuffer buf;
        const long long steps = zoo.victim_steps(s.env);
        while (trainer->steps_done() < steps) {
          {
            Scope c(&tr, "rl.collect");
            trainer->collect(buf);
          }
          rl::IterStats st;
          Scope u(&tr, "rl.update");
          trainer->update(buf, 0.0, st);
        }
        env_steps += trainer->steps_done();
      }
      const std::string path = zoo.checkpoint_path(s.env, "PPO");
      {
        Scope io(&tr, "common.ckpt_io");
        if (!imap::nn::save_policy(path, trainer->policy()))
          throw std::runtime_error("cannot save " + path);
      }
      Scope io(&tr, "common.ckpt_io");
      victim = std::make_shared<const imap::nn::GaussianPolicy>(
          std::move(*imap::nn::load_policy(path)));
    }
    setup_s = seconds_since(t0);
    const auto t1 = Clock::now();
    {
      Scope attack(&tr, "cell.attack");
      const auto plan = plan_of(s);
      const rl::PolicyHandle vh = core::Zoo::as_policy(*victim);
      const double eps = imap::env::spec(s.env).epsilon;
      imap::Rng rng = imap::Rng(seed).split(
          name_stream(std::string(s.env) + "|PPO|" + core::to_string(s.attack) +
                      (s.bias_reduction ? "|BR" : "")) ^
          0xa77ac4ULL);
      imap::Rng eval_rng = rng.split(0xe7a1ULL);
      const int episodes = runner->default_eval_episodes(s.env);

      core::ImapOptions io;
      io.reg.type = core::regularizer_of(s.attack);
      io.reg.xi = plan.xi;
      io.bias_reduction = s.bias_reduction;
      io.eta = plan.eta;
      io.tau0 = plan.tau0;
      io.ppo = runner->attack_ppo_options();
      if (imap::env::spec(s.env).type == imap::env::TaskType::DenseLocomotion)
        io.surrogate_scale = imap::env::make_env(s.env)->max_steps();

      std::unique_ptr<rl::Env> deploy_env;
      std::unique_ptr<imap::env::MultiAgentEnv> game;
      std::unique_ptr<rl::Env> attack_env;
      std::unique_ptr<core::ImapTrainer> attacker;
      core::RegularizerOptions ro = io.reg;
      if (s.game) {
        game = imap::env::make_multiagent_env(s.env);
        auto opp = std::make_unique<imap::attack::OpponentEnv>(*game, vh);
        const auto [vb, ve] = opp->victim_obs_range();
        const auto [ab, ae] = opp->adversary_obs_range();
        ro.victim_slice = {vb, ve};
        ro.adversary_slice = {ab, ae};
        attack_env = std::move(opp);
        attacker = std::make_unique<core::ImapTrainer>(*game, vh, io, rng);
      } else {
        deploy_env = imap::env::make_env(s.env);
        attack_env = std::make_unique<imap::attack::StatePerturbationEnv>(
            *deploy_env, vh, eps, imap::attack::RewardMode::Adversary);
        attacker = std::make_unique<core::ImapTrainer>(*deploy_env, vh, eps, io,
                                                       rng);
      }
      // The trainer's intrinsic stage rebuilt from make_regularizer plus
      // BiasReduction (ImapTrainer's rng splits), installed through the
      // public hook so the stage can be timed on its own.
      if (ro.type == core::RegularizerType::R) {
        imap::Rng init_rng = rng.split(0x5eedULL);
        ro.risk_target = core::estimate_initial_state(*attack_env, ro, 16, init_rng);
      }
      auto reg = core::make_regularizer(ro, attack_env->obs_dim(),
                                        attack_env->act_dim(), rng.split(0x4e67ULL));
      core::BiasReduction br(io.bias_reduction, io.eta, io.tau0);
      const bool pc = ro.type == core::RegularizerType::PC;
      const long long marginals = ro.victim_slice.whole() ? 1 : 2;
      long long seen = 0;
      double iter_start = 0.0, hook_end = 0.0;
      rl::PpoTrainer& trainer = attacker->trainer();
      trainer.set_intrinsic_hook([&](rl::RolloutBuffer& buf) {
        tr.record("rl.collect", iter_start, tr.now());
        const auto rows = static_cast<long long>(buf.size());
        if (pc) {
          knn_pairs += rows * std::min<long long>(seen, static_cast<long long>(ro.pc_capacity)) * marginals;
          seen += rows;
        }
        {
          Scope intrinsic(&tr, "core.intrinsic");
          reg->compute(buf, trainer.policy());
          if (!buf.episode_surrogate.empty())
            br.observe(-imap::mean(buf.episode_surrogate) / io.surrogate_scale);
        }
        hook_end = tr.now();
        return br.tau();
      });
      while (trainer.steps_done() < s.attack_steps) {
        Scope iter(&tr, "rl.iterate");
        iter_start = tr.now();
        const auto st = trainer.iterate();
        tr.record("rl.update", hook_end, tr.now());
        curve.push_back({st.total_steps, st.mean_surrogate, st.tau});
      }
      env_steps += trainer.steps_done();
      Scope eval(&tr, "attack.eval");
      ev = s.game ? imap::attack::evaluate_opponent_attack(
                        *game, vh, attacker->adversary(), episodes, eval_rng)
                  : imap::attack::evaluate_attack(*deploy_env, vh,
                                                  attacker->adversary(), eps,
                                                  episodes, eval_rng);
    }
    wall_s = seconds_since(t1);
  }
  const auto ckpt = runner->zoo().checkpoint_path(s.env, "PPO");
  return Json()
      .num("setup_s", setup_s)
      .num("wall_s", wall_s)
      .num("peak_rss_mb", peak_rss_mb())
      .str("digest", outcome_digest(file_crc(ckpt), ev, curve))
      .boolean("finite", finite_stats(ev))
      .integer("attack_steps", curve.empty() ? 0 : curve.back().steps)
      .integer("rl.env_steps", env_steps)
      .integer("core.knn_pairs", knn_pairs)
      .render();
}

}  // namespace

std::string run_cell(const std::string& workload, std::uint64_t seed,
                     const std::string& dir, Tracer* tracer) {
  const CellSpec& s = spec_of(workload);
  return tracer ? traced(s, seed, dir, *tracer) : untraced(s, seed, dir);
}

std::string cell_probes(const std::string& workload, std::uint64_t seed,
                        const std::string& dir) {
  const CellSpec& s = spec_of(workload);
  imap::core::ExperimentRunner runner(config_of(s, seed, dir));
  const auto path = runner.zoo().checkpoint_path(s.env, "PPO");
  auto victim = imap::nn::load_policy(path);
  if (!victim) throw std::runtime_error("no victim checkpoint at " + path);
  const auto opts = runner.attack_ppo_options();
  const auto width =
      static_cast<std::size_t>(opts.num_workers * opts.envs_per_worker);
  return Json()
      .num("env.step_us", env_step_us(s.env, s.game, seed))
      .num("rl.victim_query_us_per_row",
           victim_query_us_per_row(imap::core::Zoo::as_policy(*victim), width,
                                   seed))
      .render();
}

}  // namespace e2e
