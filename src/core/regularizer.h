#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/knn.h"
#include "core/mimic.h"
#include "nn/gaussian.h"
#include "rl/rollout.h"

namespace imap::core {

/// The four adversarial intrinsic regularizers (Sec. 5.2).
enum class RegularizerType { SC, PC, R, D };

std::string to_string(RegularizerType t);
RegularizerType regularizer_from_string(const std::string& s);

/// Projection Π_Z of the full (adversary-side) observation onto a
/// contiguous index range — identity when `end == 0`. Multi-agent tasks use
/// the victim / adversary ranges of the joint state (Eq. 7 / Eq. 9).
struct ObsSlice {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< 0 ⇒ whole observation

  bool whole() const { return end == 0; }
  std::size_t dim(std::size_t full_dim) const {
    return whole() ? full_dim : end - begin;
  }
  std::vector<double> project(const std::vector<double>& s) const;
  /// project() into `out`, which holds dim(s.size()) values.
  void project(const std::vector<double>& s, double* out) const;
};

struct RegularizerOptions {
  RegularizerType type = RegularizerType::PC;
  std::size_t knn_k = 3;
  std::size_t pc_capacity = 4096;  ///< reservoir size of the union buffer B

  /// Multi-agent mixing ξ between the adversary-marginal and the
  /// victim-marginal terms (Eq. 7 / Eq. 9). Ignored when victim_slice is
  /// whole (single-agent case).
  double xi = 0.5;
  ObsSlice adversary_slice;  ///< Π_{S^α}
  ObsSlice victim_slice;     ///< Π_{S^ν}

  /// R-driven: the adversarial state s^{ν(α)} (defaults to s₀^ν — "a natural
  /// choice", Sec. 5.2.3). In the victim-slice frame.
  std::vector<double> risk_target;
};

/// Interface: consume a fresh rollout, fill `buf.rew_i` with the intrinsic
/// bonus r_I^α = ∇J_I (Eq. 13), and update any internal knowledge (union
/// buffers, mimic policies). `policy` is the AP that generated the rollout —
/// only the D-driven regularizer reads it.
class AdversarialRegularizer {
 public:
  virtual ~AdversarialRegularizer() = default;
  virtual void compute(rl::RolloutBuffer& buf,
                       const nn::GaussianPolicy& policy) = 0;
  virtual RegularizerType type() const = 0;
  virtual std::string name() const { return to_string(type()); }

  /// Persist internal knowledge (union buffers, mimic nets, streams) so a
  /// restored regularizer produces bit-identical bonuses. Default no-op for
  /// stateless regularizers (R-driven).
  virtual void save_state(BinaryWriter& w) const { (void)w; }
  virtual void load_state(BinaryReader& r) { (void)r; }
};

/// Factory. `obs_dim` is the adversary observation width; `rng` seeds the
/// reservoir buffers and the mimic.
std::unique_ptr<AdversarialRegularizer> make_regularizer(
    const RegularizerOptions& opts, std::size_t obs_dim, std::size_t act_dim,
    Rng rng);

}  // namespace imap::core
