#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  int tid = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<int>(g_buffers.size());
  }
  return buffer;
}

/// Innermost open span of this thread.
thread_local std::vector<uint64_t> t_open;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) buffer->spans.clear();
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_start = 0;
      int64_t run_end = -1;
      bool in_run = false;
      for (auto [start, end] : intervals) {
        start = std::max(start, s.start_ns);
        end = std::min(end, s.end_ns);
        if (end <= start) continue;
        if (in_run && start <= run_end) {
          run_end = std::max(run_end, end);
          continue;
        }
        if (in_run) covered += run_end - run_start;
        run_start = start;
        run_end = end;
        in_run = true;
      }
      if (in_run) covered += run_end - run_start;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", s.name, layer.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request, uint64_t parent) {
  if (!TracingOn()) return;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent != kInheritParent
                       ? parent
                       : (t_open.empty() ? 0 : t_open.back());
  record_.request = request;
  open_ = true;
  t_open.push_back(record_.id);
  record_.start_ns = NowNs();
}

void Span::End() {
  if (!open_) return;
  record_.end_ns = NowNs();
  open_ = false;
  if (!t_open.empty() && t_open.back() == record_.id) t_open.pop_back();
  ThreadBuffer* buffer = LocalBuffer();
  record_.tid = buffer->tid;
  buffer->spans.push_back(record_);
}

uint64_t RecordInterval(const char* name, uint64_t request, uint64_t parent,
                        int64_t start_ns, int64_t end_ns) {
  if (!TracingOn()) return 0;
  SpanRecord record;
  record.name = name;
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent = parent;
  record.request = request;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  ThreadBuffer* buffer = LocalBuffer();
  record.tid = buffer->tid;
  buffer->spans.push_back(record);
  return record.id;
}

}  // namespace perfbench
