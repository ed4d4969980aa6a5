#include "serve/metrics.h"

#include <sstream>

namespace imap::serve {

namespace {

void counter_line(std::ostringstream& os, const char* name, const Counter& c,
                  const char* help) {
  os << "# HELP imap_serve_" << name << ' ' << help << '\n'
     << "# TYPE imap_serve_" << name << " counter\n"
     << "imap_serve_" << name << ' ' << c.get() << '\n';
}

void histogram_lines(std::ostringstream& os, const char* name,
                     const LogHistogram& h, const char* help) {
  os << "# HELP imap_serve_" << name << ' ' << help << '\n'
     << "# TYPE imap_serve_" << name << " histogram\n";
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    const std::uint64_t n = h.bucket(b);
    if (n == 0) continue;
    cum += n;
    os << "imap_serve_" << name << "_bucket{le=\""
       << LogHistogram::bucket_bound(b) << "\"} " << cum << '\n';
  }
  os << "imap_serve_" << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n'
     << "imap_serve_" << name << "_sum " << h.sum() << '\n'
     << "imap_serve_" << name << "_count " << h.count() << '\n';
}

}  // namespace

std::string ServeMetrics::render() const {
  std::ostringstream os;
  counter_line(os, "requests_total", requests_total, "HTTP requests parsed");
  counter_line(os, "infer_requests_total", infer_requests,
               "/infer requests answered");
  counter_line(os, "infer_rows_total", infer_rows,
               "observation rows answered");
  counter_line(os, "bad_requests_total", bad_requests, "4xx responses");
  counter_line(os, "write_errors_total", write_errors,
               "responses lost to a disconnected client");
  counter_line(os, "connections_opened_total", connections_opened,
               "connections accepted");
  counter_line(os, "connections_closed_total", connections_closed,
               "connections closed");
  counter_line(os, "cache_hits_total", cache_hits,
               "model lookups served from a live cache entry");
  counter_line(os, "cache_misses_total", cache_misses,
               "model cache entries built");
  counter_line(os, "cache_revalidations_total", cache_revalidations,
               "TTL-expired entries re-armed by an unchanged stat signature");
  counter_line(os, "cache_reloads_total", cache_reloads,
               "TTL-expired entries rebuilt after the checkpoint changed");
  counter_line(os, "cache_evictions_total", cache_evictions,
               "capacity-bound LRU evictions");
  counter_line(os, "coalesced_batches_total", coalesced_batches,
               "victim forward batches issued");
  counter_line(os, "inline_requests_total", inline_requests,
               "responses formatted on the poll loop, without a pool hop");
  counter_line(os, "pool_tasks_total", pool_tasks,
               "pool tasks: model builds and forwards too large for the "
               "poll loop");
  counter_line(os, "jobs_enqueued_total", jobs_enqueued,
               "attack-training jobs enqueued");
  counter_line(os, "jobs_finished_total", jobs_finished,
               "attack-training jobs finished");
  counter_line(os, "jobs_failed_total", jobs_failed,
               "attack-training jobs failed");
  histogram_lines(os, "batch_size", batch_size,
                  "rows per coalesced victim forward");
  histogram_lines(os, "infer_latency_us", infer_latency_us,
                  "per-request /infer latency in microseconds");
  os << "imap_serve_infer_latency_us_p50 " << infer_latency_us.percentile(50.0)
     << '\n'
     << "imap_serve_infer_latency_us_p99 " << infer_latency_us.percentile(99.0)
     << '\n'
     << "imap_serve_batch_size_max " << batch_size.max() << '\n';
  return os.str();
}

}  // namespace imap::serve
