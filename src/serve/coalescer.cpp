#include "serve/coalescer.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "nn/batch.h"

namespace imap::serve {

Coalescer::Admission::Admission(Admission&& other) noexcept
    : owner_(std::exchange(other.owner_, nullptr)) {}

Coalescer::Admission& Coalescer::Admission::operator=(
    Admission&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = std::exchange(other.owner_, nullptr);
  }
  return *this;
}

void Coalescer::Admission::release() {
  Coalescer* const owner = std::exchange(owner_, nullptr);
  if (owner != nullptr && owner->unjoined_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lk(owner->m_);
    owner->wake_leaders_locked();
  }
}

Coalescer::Coalescer(Options opts, ServeMetrics* metrics)
    : opts_(opts), metrics_(metrics) {}

Coalescer::Admission Coalescer::admit() {
  unjoined_.fetch_add(1);
  return Admission(this);
}

std::size_t Coalescer::tracked_models() const {
  std::lock_guard<std::mutex> lk(m_);
  return lanes_.size();
}

Coalescer::Lane& Coalescer::lane_for(
    const std::shared_ptr<const ServedModel>& model) {
  const auto [it, inserted] = lanes_.try_emplace(model.get());
  if (!inserted && !it->second.model.expired()) return it->second;
  if (inserted) {
    // Hot swaps publish new snapshots: forget the ones nobody holds. A lane
    // with an open batch is never dropped (the batch holds its model).
    for (auto j = lanes_.begin(); j != lanes_.end();)
      j = j != it && j->second.model.expired() ? lanes_.erase(j)
                                               : std::next(j);
  }
  // New, or a dead model's address reused by a new snapshot.
  it->second = Lane{};
  it->second.model = model;
  return it->second;
}

void Coalescer::wake_leaders_locked() {
  for (auto& [key, lane] : lanes_)
    if (lane.open != nullptr) lane.open->cv.notify_all();
}

void Coalescer::compute(const ServedModel& model, std::vector<Slot*>& batch) {
  const std::size_t n = batch.size();
  const std::size_t act = model.handle.act_dim();
  // Workspace and gather buffer are thread_local: after warm-up a worker
  // thread issues forwards with zero steady-state allocations.
  thread_local nn::Mlp::Workspace ws;
  thread_local nn::Batch in;
  in.resize(n, model.handle.obs_dim());
  for (std::size_t i = 0; i < n; ++i) in.set_row(i, *batch[i]->obs);
  const nn::Batch& out = model.handle.query_batch(in, ws);
  for (std::size_t i = 0; i < n; ++i)
    batch[i]->out.assign(out.row(i), out.row(i) + act);
  if (metrics_ != nullptr) {
    metrics_->coalesced_batches.inc();
    metrics_->batch_size.record(n);
  }
}

std::vector<double> Coalescer::infer(
    const std::shared_ptr<const ServedModel>& model,
    const std::vector<double>& obs, Admission admission) {
  IMAP_CHECK_MSG(model != nullptr && model->handle.batched(),
                 "coalescer needs a network-backed model");
  IMAP_CHECK_MSG(obs.size() == model->handle.obs_dim(),
                 "observation width " << obs.size() << " != model width "
                                      << model->handle.obs_dim());

  const std::size_t max_batch =
      opts_.max_batch > 1 ? static_cast<std::size_t>(opts_.max_batch) : 1;
  if (!opts_.enabled || max_batch <= 1) {
    // Baseline path: one forward per request, same metrics accounting.
    admission.release();
    Slot slot;
    slot.obs = &obs;
    std::vector<Slot*> batch{&slot};
    compute(*model, batch);
    return std::move(slot.out);
  }

  Slot slot;
  slot.obs = &obs;

  std::unique_lock<std::mutex> lk(m_);
  Lane& lane = lane_for(model);
  // A full-but-not-yet-taken group is closed to newcomers: start the next
  // batch instead of growing past max_batch under the leader.
  if (lane.open == nullptr || lane.open->slots.size() >= max_batch) {
    lane.open = std::make_shared<Group>();
    lane.open->model = model;
  }
  const std::shared_ptr<Group> group = lane.open;
  group->slots.push_back(&slot);
  // Joined: end the admission here, under the m_ already held.
  if (std::exchange(admission.owner_, nullptr) != nullptr &&
      unjoined_.fetch_sub(1) == 1)
    wake_leaders_locked();

  // The lane outlives the wait: its model is held by the group.
  const auto ready = [&] {
    const std::size_t rows = group->slots.size();
    return rows >= max_batch ||
           (unjoined_.load() == 0 && rows >= lane.last_batch);
  };

  if (group->slots.size() == 1) {
    // Leader: wait while a follower can still come, bounded by the deadline.
    // The clock is read only when there is a wait to time (serving
    // telemetry, never simulation state).
    long long waited_us = 0;
    if (opts_.max_wait_us > 0 && !ready()) {
      const auto t0 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
      group->cv.wait_until(
          lk, t0 + std::chrono::microseconds(opts_.max_wait_us), ready);
      const auto t1 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
      waited_us =
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count();
    }
    // Detach the batch so late arrivals form the next one while this
    // forward runs.
    if (lane.open == group) lane.open.reset();
    lane.last_batch = group->slots.size();
    std::vector<Slot*> batch = std::move(group->slots);
    lk.unlock();

    if (metrics_ != nullptr)
      metrics_->coalesce_wait_us.record(static_cast<std::uint64_t>(waited_us));
    compute(*model, batch);

    lk.lock();
    for (Slot* s : batch) s->done = true;
    group->cv.notify_all();
    return std::move(slot.out);
  }

  // Follower: wake the leader if this row made its batch ready, then wait
  // for the scatter.
  if (ready()) group->cv.notify_all();
  group->cv.wait(lk, [&] { return slot.done; });
  return std::move(slot.out);
}

}  // namespace imap::serve
