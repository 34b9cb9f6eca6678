#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index in the same buffer, -1 for a root
  int cell;    // -1 outside any cell
};

}  // namespace

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int> open;
  int cell = -1;
};

namespace {

bool g_tracing = false;

std::mutex g_buffers_mu;
// Owned here so that buffers outlive the worker threads that filled them.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
  }
  return *buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EnableTracing() { g_tracing = true; }
bool TracingEnabled() { return g_tracing; }

ScopedSpan::ScopedSpan(const char* name, int cell) {
  if (!g_tracing) {
    return;
  }
  buffer_ = &LocalBuffer();
  saved_cell_ = buffer_->cell;
  if (cell >= 0) {
    buffer_->cell = cell;
  }
  index_ = static_cast<int>(buffer_->spans.size());
  const int parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  buffer_->spans.push_back(Span{name, 0, 0, parent, buffer_->cell});
  buffer_->open.push_back(index_);
  // Read the clock last so the bookkeeping above is not charged to the span.
  buffer_->spans[index_].start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) {
    return;
  }
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
  buffer_->cell = saved_cell_;
}

TraceSummary SummarizeTrace() {
  TraceSummary summary;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
      if (spans[i].parent >= 0) {
        children[spans[i].parent].push_back(static_cast<int>(i));
      }
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (int c : children[i]) {
        cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                           std::min(spans[c].end_ns, s.end_ns));
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [begin, end] : cover) {
        const int64_t from = std::max(begin, reach);
        if (end > from) {
          covered += end - from;
          reach = end;
        }
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
      SpanStats& stats = summary.by_name[s.name];
      stats.durations_ns.push_back(s.end_ns - s.start_ns);
      stats.total_ns += s.end_ns - s.start_ns;
      stats.self_ns += self[i];
    }
    // A cell's spans all live on the thread that ran it; the span that
    // opened the cell is the one whose parent is outside it.
    std::map<int, int64_t> cell_self;
    for (size_t i = 0; i < spans.size(); i++) {
      if (spans[i].cell >= 0) {
        cell_self[spans[i].cell] += self[i];
      }
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      const bool opens_cell =
          s.cell >= 0 && (s.parent < 0 || spans[s.parent].cell != s.cell);
      if (opens_cell) {
        summary.cells_checked++;
        if (cell_self[s.cell] != s.end_ns - s.start_ns) {
          summary.cells_unbalanced++;
        }
      }
    }
  }
  return summary;
}

}  // namespace perfbench
