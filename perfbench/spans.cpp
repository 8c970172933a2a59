#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace histpc::perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(const char* name, int parent, std::int64_t op_id) {
  if (!enabled_) return -1;
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, -1.0, parent, op_id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_)
    std::fprintf(f, "[\"%s\", %.3f, %.3f, %d, %lld]\n", s.name, s.start_us, s.end_us, s.parent,
                 static_cast<long long>(s.op_id));
  std::fclose(f);
}

}  // namespace histpc::perfbench
