#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex
thread_local std::vector<int64_t> t_open;  // this thread's open span ids

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(t - kProcessStart).count();
}

}  // namespace

void SetTracing(bool enabled) { g_enabled.store(enabled); }

ScopedSpan::ScopedSpan(std::string_view name, uint64_t request)
    : start_(Clock::now()) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Span span;
  span.name = std::string(name);
  span.start = Since(start_);
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.request = request;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    id_ = static_cast<int64_t>(g_spans.size());
    g_spans.push_back(std::move(span));
  }
  t_open.push_back(id_);
}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::End() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point now = Clock::now();
  seconds_ = std::chrono::duration<double>(now - start_).count();
  if (id_ >= 0) {
    {
      std::lock_guard<std::mutex> lock(g_mutex);
      g_spans[static_cast<size_t>(id_)].end = Since(now);
    }
    if (!t_open.empty() && t_open.back() == id_) t_open.pop_back();
  }
  return seconds_;
}

std::vector<Span> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
  }
  return by_layer;
}

mochy::Status WriteSpans(const std::vector<Span>& spans,
                         const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return mochy::Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(file) == 0
             ? mochy::Status::OK()
             : mochy::Status::IOError("cannot write " + path);
}

}  // namespace perfbench
