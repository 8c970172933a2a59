// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a HistPC module, recorded from the benchmark's
// side of the call: name, start, end (microseconds on the steady clock
// since the recorder was made), the span that caused it, and the op it
// belongs to. Spans stay in memory until write_jsonl() at the end of the
// run, so the file system is not touched while timing. A disabled
// recorder records nothing, and ScopedSpan over it costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace histpc::perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (or -1 when disabled). `parent` is the id
  /// of the enclosing span, -1 for an op's root span.
  int begin(const char* name, int parent, std::int64_t op_id);
  void end(int id);

  std::size_t size() const;
  /// One JSON array per line: [name, start_us, end_us, parent, op_id].
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::int64_t op_id;
  };
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_ (serve_mixed records from several threads)
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int parent, std::int64_t op_id)
      : recorder_(recorder), id_(recorder.begin(name, parent, op_id)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace histpc::perfbench
