// In-memory span recorder for the benchmark's traced runs.
//
// A span marks one call from the harness into a layer of the library (the
// harness never instruments library code): name ("layer.what"), start, end,
// the span that caused it, and the request it belongs to. Spans are kept in
// per-thread buffers while the run is going and written once, at exit, as
// Chrome trace-event JSON. When tracing is off a Span is a no-op.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // static string, "layer.what"
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Turns recording on or off for spans opened afterwards.
void SetTracing(bool on);
bool TracingOn();

/// Every span recorded so far, from all threads (call when no span is
/// open on another thread).
std::vector<SpanRecord> CollectSpans();

/// Drops every recorded span.
void ClearSpans();

/// Per span id: duration minus the part of it covered by its children
/// (children may run on other threads, so their intervals are merged).
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events).
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

/// RAII span. The parent defaults to the innermost open span of this
/// thread; pass `parent` explicitly for work handed to a pool worker.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0,
                uint64_t parent = kInheritParent);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early (idempotent).
  void End();
  /// This span's id (0 when tracing is off).
  uint64_t id() const { return record_.id; }

  static constexpr uint64_t kInheritParent = ~uint64_t{0};

 private:
  SpanRecord record_;
  bool open_ = false;
};

/// Records a finished interval directly (for intervals measured elsewhere,
/// e.g. the time a request spent between its due time and its send) and
/// returns its span id (0 when tracing is off).
uint64_t RecordInterval(const char* name, uint64_t request, uint64_t parent,
                    int64_t start_ns, int64_t end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
