#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/metrics.h"
#include "serve/model_cache.h"

namespace imap::serve {

/// Cross-connection request coalescer.
///
/// Concurrent /infer requests for the SAME resident victim are gathered into
/// one `PolicyHandle::query_batch` call: the first arrival becomes the batch
/// leader, issues the single forward and scatters rows back to each waiting
/// connection. Requests for different victims never share a batch.
///
/// The leader waits for followers only while one can still come. The server
/// `admit()`s every /infer request when its poll loop dispatches it; the
/// admission ends when the request joins a batch or leaves another way (a
/// multi-row body, a 4xx, an exception). The leader takes its batch as soon
/// as one of these holds:
///  - the batch has `max_batch` rows;
///  - no admitted request is still unjoined, and the batch has at least as
///    many rows as this model's previous batch (closed-loop clients re-send
///    in waves the poll loop has not read yet; matching the last wave keeps
///    those batches whole);
///  - `max_wait_us` has passed since it became leader.
/// A lone request therefore answers without waiting, and `max_wait_us` is
/// only an upper bound on the wait.
///
/// Correctness rides the PolicyHandle contract: every query_batch output row
/// is bit-identical to a per-sample query() of that row, in fp64 and int8
/// modes alike. Coalescing therefore changes only *when* the kernel runs,
/// never *what* any connection receives.
///
/// A taken batch is detached from its model's lane before its forward runs,
/// so late arrivals start forming the next batch immediately — under
/// sustained load several batches for one victim can be in flight at once,
/// which is exactly the pipelining that buys the throughput win.
class Coalescer {
 public:
  struct Options {
    int max_batch = 32;        ///< rows per forward (<= 1 disables gathering)
    long long max_wait_us = 200;  ///< upper bound on the leader's wait
    bool enabled = true;       ///< off: every request is its own forward
  };

  /// One admitted request that has not joined a batch yet. Move-only; the
  /// admission ends when `infer` joins it to a batch, on `release()`, or on
  /// destruction, so no exit path can leak it (a leaked admission would
  /// make every later leader wait out its full deadline).
  class Admission {
   public:
    Admission() noexcept : owner_(nullptr) {}
    Admission(Admission&& other) noexcept;
    Admission& operator=(Admission&& other) noexcept;
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() { release(); }

    /// End the admission (idempotent).
    void release();

   private:
    friend class Coalescer;
    explicit Admission(Coalescer* owner) : owner_(owner) {}
    Coalescer* owner_;  // nullptr: not (or no longer) admitted
  };

  explicit Coalescer(Options opts, ServeMetrics* metrics = nullptr);

  /// Count one request that will reach `infer` (or leave) soon. Lock-free:
  /// the server's poll loop calls it for every /infer it dispatches.
  Admission admit();

  /// Answer one observation through `model`, riding a coalesced batch when
  /// possible. Blocks the calling (pool worker) thread until its row is
  /// computed. Ends `admission` when the row joins a batch. Throws
  /// CheckError when `obs` does not match the model width.
  std::vector<double> infer(const std::shared_ptr<const ServedModel>& model,
                            const std::vector<double>& obs,
                            Admission admission = {});

  const Options& options() const { return opts_; }

  /// Models with per-model state (a live snapshot, or one that died since
  /// the last new model arrived): bounded across hot swaps.
  std::size_t tracked_models() const;

 private:
  /// One pending request: where to read the observation, where the leader
  /// scatters the action row.
  struct Slot {
    const std::vector<double>* obs = nullptr;
    std::vector<double> out;
    bool done = false;
  };

  /// An open batch for one victim. Members rendezvous on the group's own
  /// condition variable; the leader holds a shared_ptr across the forward,
  /// so detaching the group from its lane never invalidates it.
  struct Group {
    std::shared_ptr<const ServedModel> model;
    std::vector<Slot*> slots;
    std::condition_variable cv;
  };

  /// Per-model state: the open (not yet taken) batch and the size of the
  /// last batch taken.
  struct Lane {
    std::weak_ptr<const ServedModel> model;
    std::shared_ptr<Group> open;
    std::size_t last_batch = 0;
  };

  /// The lane of `model`, created on first use; a new lane drops the lanes
  /// of models that are gone. Called under m_.
  Lane& lane_for(const std::shared_ptr<const ServedModel>& model);
  /// Wake every waiting leader: the unjoined count reached zero. Under m_.
  void wake_leaders_locked();

  /// Gather rows, run the one forward, scatter rows. Called outside m_.
  void compute(const ServedModel& model, std::vector<Slot*>& batch);

  Options opts_;
  ServeMetrics* metrics_;
  /// Admitted requests that have neither joined a batch nor left. Atomic so
  /// that admitting never takes m_; m_ is taken only when it drops to zero.
  std::atomic<long long> unjoined_{0};
  mutable std::mutex m_;
  /// Keyed by snapshot identity, not (env, defense): a hot-swapped victim
  /// must never share a batch with rows bound for its predecessor.
  std::map<const ServedModel*, Lane> lanes_;
};

}  // namespace imap::serve
