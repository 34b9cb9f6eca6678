// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded around public library calls made from the benchmark's
// own files (perfbench/driver.cc); nothing inside src/ is instrumented. Each
// thread appends to its own buffer, so recording takes no lock; buffers are
// only read after every worker has been joined. When tracing is off a
// ScopedSpan does nothing but test one flag.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

// Must be called before any thread that records spans is started.
void EnableTracing();
bool TracingEnabled();

// Records [construction, destruction) as one span. The parent is the
// innermost span still open on this thread. A span opened with cell >= 0
// starts a cell: it and every span nested in it carry that cell id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int cell = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  struct ThreadBuffer* buffer_ = nullptr;
  int index_ = -1;
  int saved_cell_ = -1;
};

// Per-name aggregate over every recorded span.
struct SpanStats {
  std::vector<int64_t> durations_ns;  // one per span, unsorted
  int64_t total_ns = 0;
  // Span time not covered by the union of its children's intervals.
  int64_t self_ns = 0;
};

struct TraceSummary {
  std::map<std::string, SpanStats> by_name;
  // Cells whose subtree self times did not sum to the cell span's duration
  // (a child escaping its parent or overlapping a sibling).
  int cells_checked = 0;
  int cells_unbalanced = 0;
};

// Folds every thread's spans. Call only once all recording threads have
// been joined.
TraceSummary SummarizeTrace();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
