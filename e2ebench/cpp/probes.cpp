#include "probes.h"

#include <memory>

#include "common/rng.h"
#include "env/registry.h"
#include "nn/batch.h"
#include "nn/checkpoint.h"
#include "nn/mlp.h"
#include "serve/coalescer.h"
#include "serve/http.h"
#include "serve/model_cache.h"

namespace e2e {

namespace {

std::vector<double> random_action(std::size_t n, imap::Rng& rng) {
  return rng.uniform_vec(n, -1.0, 1.0);
}

}  // namespace

double env_step_us(const std::string& env_name, bool game,
                   std::uint64_t seed) {
  imap::Rng rng(seed);
  if (game) {
    auto g = imap::env::make_multiagent_env(env_name);
    g->reset(rng);
    const auto av = random_action(g->victim_act_dim(), rng);
    const auto aa = random_action(g->adversary_act_dim(), rng);
    return median_call_us(
        [&] {
          const auto r = g->step(av, aa);
          if (r.done || r.truncated) g->reset(rng);
        },
        41, 500);
  }
  auto e = imap::env::make_env(env_name);
  e->reset(rng);
  const auto a = random_action(e->act_dim(), rng);
  return median_call_us(
      [&] {
        const auto r = e->step(a);
        if (r.done || r.truncated) e->reset(rng);
      },
      41, 500);
}

double victim_query_us_per_row(const imap::rl::PolicyHandle& victim,
                               std::size_t width, std::uint64_t seed) {
  imap::Rng rng(seed);
  const std::size_t dim = victim.obs_dim();
  if (width <= 1) {
    const auto obs = rng.normal_vec(dim);
    return median_call_us([&] { (void)victim.query(obs); }, 41, 500);
  }
  imap::nn::Batch in(width, dim);
  for (std::size_t r = 0; r < width; ++r) in.set_row(r, rng.normal_vec(dim));
  imap::nn::Mlp::Workspace ws;
  return median_call_us([&] { (void)victim.query_batch(in, ws); }, 41, 100) /
         static_cast<double>(width);
}

Json& serving_probes(Json& out, const Victim& v, std::uint64_t seed) {
  imap::Rng rng(seed);
  const std::size_t dim = v.reference.obs_dim();
  const auto obs = rng.normal_vec(dim);
  const double b1 =
      median_call_us([&] { (void)v.reference.query(obs); }, 41, 500);
  imap::nn::Batch in(32, dim);
  for (std::size_t r = 0; r < 32; ++r) in.set_row(r, rng.normal_vec(dim));
  imap::nn::Mlp::Workspace ws;
  const double b32 =
      median_call_us([&] { (void)v.reference.query_batch(in, ws); }, 41, 50);

  const std::string request = infer_request(v, 1, seed, 0, nullptr);
  imap::serve::HttpRequest parsed;
  std::string buf;
  const double parse = median_call_us(
      [&] {
        buf = request;
        (void)imap::serve::parse_request(buf, parsed);
      },
      41, 500);

  auto model = std::make_shared<imap::serve::ServedModel>();
  model->env = model->scenario = v.env;
  model->defense = v.defense;
  model->policy = v.policy;
  model->quantized = true;
  model->handle = v.reference;
  imap::serve::Coalescer coalescer(imap::serve::Coalescer::Options{});
  std::shared_ptr<const imap::serve::ServedModel> served = model;
  const double coalesced =
      median_call_us([&] { (void)coalescer.infer(served, obs); }, 21, 10);

  const double build_ms =
      median_call_us(
          [&] {
            auto net = imap::nn::load_policy(v.path);
            (void)file_crc(v.path);
            (void)imap::rl::PolicyHandle::serving(
                std::make_shared<const imap::nn::GaussianPolicy>(
                    std::move(*net)),
                true);
          },
          15, 4) /
      1000.0;

  return out.num("nn.quant_query_us.b1", b1)
      .num("nn.quant_query_us.b32", b32)
      .num("serve.parse_us", parse)
      .num("serve.coalescer_infer_us", coalesced)
      .num("serve.model_build_ms", build_ms);
}

}  // namespace e2e
