#pragma once

// In-memory span recorder for the benchmark's traced runs. Spans are opened
// around calls into the program's public functions, from the benchmark's own
// files only; nothing inside the program is instrumented. Each span keeps its
// name, start, end and parent; the list is written out once, at exit, and
// self times (a span minus its children) are computed offline.
//
// Single-threaded by design: every traced call site runs on the benchmark's
// main thread.

#include <string>
#include <vector>

#include "util.h"

namespace e2e {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index into spans(), -1 for a root
  };

  /// RAII span: opened on construction, closed on destruction. A null
  /// tracer makes it a no-op, so untraced code paths can share call sites.
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  Tracer();
  /// Seconds since the tracer was created.
  double now() const { return seconds_since(t0_); }
  /// Add a finished span with explicit times as a child of the innermost
  /// open span (for work that overlaps its siblings, e.g. concurrent
  /// requests on several connections).
  void record(const char* name, double start_s, double end_s);
  const std::vector<Span>& spans() const { return spans_; }
  /// JSON array of {"name","start","end","parent"} objects.
  std::string render() const;
  bool write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace e2e
