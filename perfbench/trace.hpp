// In-memory span recorder of the poprank benchmark's traced run.
//
// A span has a name, start, end, parent span and a point id shared by all
// spans of one measurement point.  Spans are opened and closed on the
// driver's main thread only, around the calls it makes into each layer's
// public functions; the spans live in memory and are written out once, at
// exit.  A disabled recorder reads no clock and stores nothing.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pp::perfbench {

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

class Tracer {
 public:
  static constexpr u64 kNoParent = ~static_cast<u64>(0);

  struct Span {
    std::string name;
    u64 start_ns = 0;
    u64 end_ns = 0;
    u64 parent = kNoParent;
    u64 point = 0;
    u64 child_ns = 0;  ///< time covered by direct children
    u64 dur() const { return end_ns - start_ns; }
    u64 self_ns() const { return dur() - child_ns; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Only between spans: a span opened while enabled must close so too.
  void set_enabled(bool on) { enabled_ = on; }

  u64 open(const std::string& name, u64 point) {
    Span s;
    s.name = name;
    s.point = point;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }

  void close(u64 id) {
    const u64 t = now_ns();
    Span& s = spans_[id];
    s.end_ns = t;
    stack_.pop_back();
    if (s.parent != kNoParent) spans_[s.parent].child_ns += s.dur();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"header": <header>, "spans": [...]} to `path`; times are
  /// nanoseconds relative to the first span.
  bool write_json(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const u64 t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"header\":%s,\"spans\":[", header.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"self_ns\":%llu,\"parent\":%lld,"
                   "\"point\":%llu}",
                   i == 0 ? "" : ",", i, s.name.c_str(),
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0),
                   static_cast<unsigned long long>(s.self_ns()),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.point));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<u64> stack_;
};

/// RAII span; a no-op when the recorder is disabled.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, u64 point)
      : t_(t), id_(t.enabled() ? t.open(name, point) : 0) {}
  ~SpanScope() {
    if (t_.enabled()) t_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  u64 id() const { return id_; }

 private:
  Tracer& t_;
  u64 id_;
};

}  // namespace pp::perfbench
