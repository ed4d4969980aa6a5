#pragma once

#include <string>

#include "common/stats.h"

namespace imap::serve {

/// Counters and histograms for the serving daemon, exported on /metrics.
///
/// Every member is lock-free (relaxed atomics, see common/stats.h), so the
/// request hot path records without ever contending: one relaxed add per
/// counter bump, a handful per histogram sample. Export is a read-side
/// snapshot — eventually consistent totals, which is what a scrape needs.
struct ServeMetrics {
  Counter requests_total;        ///< HTTP requests parsed (any route)
  Counter infer_requests;        ///< /infer requests
  Counter infer_rows;            ///< observation rows answered
  Counter bad_requests;          ///< 4xx answers
  Counter write_errors;          ///< responses lost to a dead client
  Counter connections_opened;
  Counter connections_closed;

  Counter cache_hits;            ///< model served from a live cache entry
  Counter cache_misses;          ///< entry built (cold or after invalidate)
  Counter cache_revalidations;   ///< TTL-expired entry re-armed by stat
  Counter cache_reloads;         ///< TTL-expired entry rebuilt (CRC changed)
  Counter cache_evictions;       ///< capacity-bound LRU evictions

  Counter coalesced_batches;     ///< query_batch calls issued
  LogHistogram batch_size;       ///< rows per issued batch
  LogHistogram infer_latency_us; ///< request parse -> response ready
  Counter inline_requests;       ///< responses the poll loop formatted
  Counter pool_tasks;            ///< model builds and large forwards pooled

  Counter jobs_enqueued;
  Counter jobs_finished;
  Counter jobs_failed;

  /// Prometheus-style text exposition (counters as `imap_serve_*_total`,
  /// histograms as `_bucket{le=...}` plus `_sum`/`_count`, and the p50/p99
  /// latency estimates the acceptance bench tracks).
  std::string render() const;
};

}  // namespace imap::serve
