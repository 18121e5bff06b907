// The benchmark's own tracing: spans recorded around each public call the
// benchmark makes into the engine, kept in memory and written out when the
// run ends. A span names the layer of the call it wraps; its self time is
// its duration minus the part its child spans cover. With tracing off,
// Begin/End cost one branch, so the untraced run measures the engine alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace msbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;          ///< index into the same tracer's spans, or -1
  uint64_t request_id = 0;  ///< shared by the spans of one request
};

/// One thread's span recorder. Not thread-safe: each thread that traces
/// owns one, and the run merges them at the end.
class Tracer {
 public:
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  /// Opens a span under the innermost open one; -1 when tracing is off.
  int Begin(const char* name, uint64_t request_id = 0) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    if (request_id == 0 && parent >= 0) request_id = spans_[parent].request_id;
    spans_.push_back(Span{name, NowNs(), 0, parent, request_id});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time per span name, in seconds.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Tab-separated: thread, id, parent, request id, name, start, end (ns).
  void Write(std::ostream& out, int64_t origin_ns) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << thread_ << '\t' << i << '\t' << s.parent << '\t' << s.request_id
          << '\t' << s.name << '\t' << s.start_ns - origin_ns << '\t'
          << s.end_ns - origin_ns << '\n';
    }
  }

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint64_t request_id = 0)
      : t_(t), id_(t.Begin(name, request_id)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace msbench
