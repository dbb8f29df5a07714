// Spans recorded by the benchmark around its calls into the library's
// layers. A ScopedSpan is always a timer; while tracing is enabled it is
// also recorded (name, start, end, parent span, request id) into an
// in-memory list that is written out when the run ends. Span names are
// "<layer>.<what>", the layer being the library module the call enters:
// hypergraph, motif, random, profile, ml, serve.
#ifndef MOCHY_PERFBENCH_TRACE_H_
#define MOCHY_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

/// One recorded span; times are seconds since the process started.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;   ///< index of the enclosing span, -1 at the root
  uint64_t request = 0;  ///< request id (serve), 0 elsewhere
};

/// Turns recording on or off. Toggle only while no span is open.
void SetTracing(bool enabled);

/// Times a scope; records it as a span while tracing is enabled. The
/// parent is the innermost span open on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();

 private:
  Clock::time_point start_;
  int64_t id_ = -1;
  double seconds_ = -1.0;
};

/// Every span recorded so far.
std::vector<Span> RecordedSpans();

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed by the name's layer prefix.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

/// Writes the spans as JSON lines to `path`.
mochy::Status WriteSpans(const std::vector<Span>& spans,
                         const std::string& path);

}  // namespace perfbench

#endif  // MOCHY_PERFBENCH_TRACE_H_
