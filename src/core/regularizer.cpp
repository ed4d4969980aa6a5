#include "core/regularizer.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"

namespace imap::core {

std::string to_string(RegularizerType t) {
  switch (t) {
    case RegularizerType::SC: return "SC";
    case RegularizerType::PC: return "PC";
    case RegularizerType::R: return "R";
    case RegularizerType::D: return "D";
  }
  return "?";
}

RegularizerType regularizer_from_string(const std::string& s) {
  if (s == "SC") return RegularizerType::SC;
  if (s == "PC") return RegularizerType::PC;
  if (s == "R") return RegularizerType::R;
  if (s == "D") return RegularizerType::D;
  IMAP_CHECK_MSG(false, "unknown regularizer: " << s);
  return RegularizerType::SC;  // unreachable
}

std::vector<double> ObsSlice::project(const std::vector<double>& s) const {
  if (whole()) return s;
  IMAP_CHECK(end <= s.size() && begin < end);
  return {s.begin() + static_cast<std::ptrdiff_t>(begin),
          s.begin() + static_cast<std::ptrdiff_t>(end)};
}

void ObsSlice::project(const std::vector<double>& s, double* out) const {
  if (whole()) {
    std::copy(s.begin(), s.end(), out);
    return;
  }
  IMAP_CHECK(end <= s.size() && begin < end);
  std::copy(s.begin() + static_cast<std::ptrdiff_t>(begin),
            s.begin() + static_cast<std::ptrdiff_t>(end), out);
}

namespace {

double finite_or_zero(double x) { return std::isfinite(x) ? x : 0.0; }

/// Project every rollout state onto `slice` into one contiguous n×d
/// row-major matrix, with the per-row checks of ObsSlice::project and
/// KnnBuffer::add: the row has the buffer's width d, the slice fits the
/// state, and every projected value is finite.
std::vector<double> project_rows(const rl::RolloutBuffer& buf,
                                 const ObsSlice& slice, std::size_t d) {
  std::vector<double> rows(buf.size() * d);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    IMAP_CHECK(slice.dim(buf.obs[i].size()) == d);
    double* row = rows.data() + i * d;
    slice.project(buf.obs[i], row);
    IMAP_NCHECK_FINITE_VEC(std::span<const double>(row, d),
                           "KnnBuffer::add state");
  }
  return rows;
}

/// One marginal of the SC-driven bonus: the KNN form of the entropy
/// gradient, log(1 + ‖s − s*_{D_k}‖), over the rollout's own states.
void add_sc_term(rl::RolloutBuffer& buf, const ObsSlice& slice, double weight,
                 std::size_t obs_dim, std::size_t k, Rng& rng) {
  const std::size_t n = buf.size();
  const std::size_t d = slice.dim(obs_dim);
  KnnBuffer dk(d, n, k, rng.split(rng.next_u64()));
  const std::vector<double> proj = project_rows(buf, slice, d);
  dk.add_rows(proj.data(), n);
  // Query ranges are independent and each writes only its own sq/rew_i
  // slots; one batched scan per range.
  std::vector<double> sq(n);
  parallel_for_chunked(n, 0, [&](std::size_t b, std::size_t e) {
    dk.knn_distance_sq_batch(proj.data() + b * d, e - b, d, sq.data() + b);
    for (std::size_t i = b; i < e; ++i) {
      const double dist = std::sqrt(sq[i]);
      buf.rew_i[i] += weight * finite_or_zero(std::log1p(dist));
    }
  });
  IMAP_NCHECK_FINITE_VEC(buf.rew_i, "regularizer.sc_bonus");
}

class ScRegularizer final : public AdversarialRegularizer {
 public:
  ScRegularizer(RegularizerOptions opts, std::size_t obs_dim, Rng rng)
      : opts_(std::move(opts)), obs_dim_(obs_dim), rng_(rng) {}

  void compute(rl::RolloutBuffer& buf, const nn::GaussianPolicy&) override {
    std::fill(buf.rew_i.begin(), buf.rew_i.end(), 0.0);
    if (buf.size() == 0) return;
    if (opts_.victim_slice.whole()) {
      // Single-agent: J_I^SC over the full state (Eq. 6).
      add_sc_term(buf, opts_.adversary_slice, 1.0, obs_dim_, opts_.knn_k,
                  rng_);
    } else {
      // Multi-agent: (1−ξ)·SC(S^α) + ξ·SC(S^ν)  (Eq. 7).
      add_sc_term(buf, opts_.adversary_slice, 1.0 - opts_.xi, obs_dim_,
                  opts_.knn_k, rng_);
      add_sc_term(buf, opts_.victim_slice, opts_.xi, obs_dim_, opts_.knn_k,
                  rng_);
    }
  }

  RegularizerType type() const override { return RegularizerType::SC; }

  void save_state(BinaryWriter& w) const override { rng_.save_state(w); }
  void load_state(BinaryReader& r) override { rng_.load_state(r); }

 private:
  RegularizerOptions opts_;
  std::size_t obs_dim_;
  Rng rng_;
};

/// One PC marginal with its persistent union buffer B.
class PcMarginal {
 public:
  PcMarginal(const ObsSlice& slice, std::size_t obs_dim, std::size_t k,
             std::size_t capacity, Rng rng)
      : slice_(slice),
        k_(k),
        union_buffer_(slice.dim(obs_dim), capacity, k, rng),
        rng_(rng.split(0x9c9c9c9cULL)) {}

  void add_bonus(rl::RolloutBuffer& buf, double weight, std::size_t obs_dim) {
    const std::size_t n = buf.size();
    const std::size_t d = slice_.dim(obs_dim);
    KnnBuffer dk(d, n, k_, rng_.split(rng_.next_u64()));
    const std::vector<double> proj = project_rows(buf, slice_, d);
    // Two rounds of pool tasks. Task 0 builds D_k in the first round and
    // folds the rollout into B in the second (only then: the fresh
    // trajectories represent π_k); tasks 1.. split the queries into ranges
    // and scan B before the fold, D_k after the build. Each range writes
    // only its own sq/rew_i slots, and no result depends on the split.
    const bool use_b = union_buffer_.size() >= k_;
    std::vector<double> sq_dk(n), sq_b(use_b ? n : 0);
    const std::size_t ranges = std::min(n, 4 * effective_concurrency());
    const auto bounds = [&](std::size_t t) {
      return std::pair{(t - 1) * n / ranges, t * n / ranges};
    };
    parallel_for(ranges + 1, [&](std::size_t t) {
      if (t == 0) {
        dk.add_rows(proj.data(), n);
      } else if (use_b) {
        const auto [b, e] = bounds(t);
        union_buffer_.knn_distance_sq_batch(proj.data() + b * d, e - b, d,
                                            sq_b.data() + b);
      }
    }, 1);
    parallel_for(ranges + 1, [&](std::size_t t) {
      if (t == 0) {
        union_buffer_.add_rows(proj.data(), n);
        return;
      }
      const auto [b, e] = bounds(t);
      dk.knn_distance_sq_batch(proj.data() + b * d, e - b, d, sq_dk.data() + b);
      for (std::size_t i = b; i < e; ++i) {
        const double dist_dk = std::sqrt(sq_dk[i]);
        // ∇ of Σ√(d/ρ) with d ≈ 1/dist_{D_k}, ρ ≈ 1/dist_B gives a bonus
        // ∝ √(dist_{D_k} · dist_B): large where BOTH the fresh policy and the
        // whole explored region ρ^α are thin — novelty beyond the frontier.
        const double dist_b = use_b ? std::sqrt(sq_b[i]) : dist_dk;
        buf.rew_i[i] += weight * finite_or_zero(
                                     std::sqrt(std::max(0.0, dist_dk) *
                                               std::max(0.0, dist_b)));
      }
    }, 1);
    IMAP_NCHECK_FINITE_VEC(buf.rew_i, "regularizer.pc_bonus");
  }

  void save_state(BinaryWriter& w) const {
    union_buffer_.save_state(w);
    rng_.save_state(w);
  }
  void load_state(BinaryReader& r) {
    union_buffer_.load_state(r);
    rng_.load_state(r);
  }

 private:
  ObsSlice slice_;
  std::size_t k_;
  KnnBuffer union_buffer_;
  Rng rng_;
};

class PcRegularizer final : public AdversarialRegularizer {
 public:
  PcRegularizer(RegularizerOptions opts, std::size_t obs_dim, Rng rng)
      : opts_(opts),
        obs_dim_(obs_dim),
        adv_marginal_(opts.adversary_slice, obs_dim, opts.knn_k,
                      opts.pc_capacity, rng.split(1)),
        victim_marginal_(opts.victim_slice, obs_dim, opts.knn_k,
                         opts.pc_capacity, rng.split(2)) {}

  void compute(rl::RolloutBuffer& buf, const nn::GaussianPolicy&) override {
    std::fill(buf.rew_i.begin(), buf.rew_i.end(), 0.0);
    if (buf.size() == 0) return;
    if (opts_.victim_slice.whole()) {
      adv_marginal_.add_bonus(buf, 1.0, obs_dim_);  // Eq. 8
    } else {
      adv_marginal_.add_bonus(buf, 1.0 - opts_.xi, obs_dim_);  // Eq. 9
      victim_marginal_.add_bonus(buf, opts_.xi, obs_dim_);
    }
  }

  RegularizerType type() const override { return RegularizerType::PC; }

  void save_state(BinaryWriter& w) const override {
    adv_marginal_.save_state(w);
    victim_marginal_.save_state(w);
  }
  void load_state(BinaryReader& r) override {
    adv_marginal_.load_state(r);
    victim_marginal_.load_state(r);
  }

 private:
  RegularizerOptions opts_;
  std::size_t obs_dim_;
  PcMarginal adv_marginal_;
  PcMarginal victim_marginal_;
};

class RiskRegularizer final : public AdversarialRegularizer {
 public:
  RiskRegularizer(RegularizerOptions opts, std::size_t obs_dim)
      : opts_(std::move(opts)), obs_dim_(obs_dim) {
    IMAP_CHECK_MSG(!opts_.risk_target.empty(),
                   "R-driven regularizer needs a risk_target (s₀^ν)");
    IMAP_CHECK(opts_.risk_target.size() ==
               opts_.victim_slice.dim(obs_dim_));
  }

  void compute(rl::RolloutBuffer& buf, const nn::GaussianPolicy&) override {
    // J_I^R = −Σ_s d(s)·‖Π_{S^ν}(s) − s^{ν(α)}‖  (Eq. 10): lure the victim
    // toward the adversarially chosen state.
    // The distance runs over the slice in place: [begin, end) of each row,
    // with ObsSlice::project's per-row bounds check.
    const ObsSlice& slice = opts_.victim_slice;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const std::vector<double>& s = buf.obs[i];
      std::size_t begin = 0, end = s.size();
      if (!slice.whole()) {
        IMAP_CHECK(slice.end <= s.size() && slice.begin < slice.end);
        begin = slice.begin;
        end = slice.end;
      }
      IMAP_CHECK(end - begin == opts_.risk_target.size());
      double sq = 0.0;
      for (std::size_t c = begin; c < end; ++c) {
        const double d = s[c] - opts_.risk_target[c - begin];
        sq += d * d;
      }
      buf.rew_i[i] = -std::sqrt(sq);
    }
  }

  RegularizerType type() const override { return RegularizerType::R; }

 private:
  RegularizerOptions opts_;
  std::size_t obs_dim_;
};

class DivergenceRegularizer final : public AdversarialRegularizer {
 public:
  DivergenceRegularizer(const RegularizerOptions& opts, std::size_t obs_dim,
                        std::size_t act_dim, Rng rng)
      : opts_(opts),
        mimic_(obs_dim, act_dim, {32, 32}, rng.split(0xd1d1ULL)) {}

  void compute(rl::RolloutBuffer& buf,
               const nn::GaussianPolicy& policy) override {
    // J_I^D = Σ_s d(s)·KL(π^α ‖ π^{α,m})  (Eq. 11), then pull the mimic
    // toward the freshly observed behaviour so it keeps summarising the past.
    // Chunked so the forward tapes stay bounded on long rollouts.
    constexpr std::size_t kChunk = 1024;
    for (std::size_t b = 0; b < buf.size(); b += kChunk) {
      const std::size_t e = std::min(buf.size(), b + kChunk);
      obs_b_.gather_range(buf.obs, b, e);
      mimic_.kl_from(policy, obs_b_, kl_);
      for (std::size_t r = 0; r < e - b; ++r)
        buf.rew_i[b + r] = std::min(kl_[r], 50.0);
    }
    mimic_.update(buf);
  }

  RegularizerType type() const override { return RegularizerType::D; }

  void save_state(BinaryWriter& w) const override { mimic_.save_state(w); }
  void load_state(BinaryReader& r) override { mimic_.load_state(r); }

  const MimicPolicy& mimic() const { return mimic_; }

 private:
  RegularizerOptions opts_;
  MimicPolicy mimic_;
  nn::Batch obs_b_;         ///< reusable gathered-observation rows
  std::vector<double> kl_;  ///< per-row KL of the current chunk
};

}  // namespace

std::unique_ptr<AdversarialRegularizer> make_regularizer(
    const RegularizerOptions& opts, std::size_t obs_dim, std::size_t act_dim,
    Rng rng) {
  switch (opts.type) {
    case RegularizerType::SC:
      return std::make_unique<ScRegularizer>(opts, obs_dim, rng);
    case RegularizerType::PC:
      return std::make_unique<PcRegularizer>(opts, obs_dim, rng);
    case RegularizerType::R:
      return std::make_unique<RiskRegularizer>(opts, obs_dim);
    case RegularizerType::D:
      return std::make_unique<DivergenceRegularizer>(opts, obs_dim, act_dim,
                                                     rng);
  }
  IMAP_CHECK_MSG(false, "unreachable regularizer type");
  return nullptr;
}

}  // namespace imap::core
