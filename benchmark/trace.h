#ifndef COSKQ_BENCHMARK_TRACE_H_
#define COSKQ_BENCHMARK_TRACE_H_

#include <stdint.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace coskq::bench {

/// In-memory span recorder for the traced (--trace) run. Spans are kept in
/// a vector and only written out when the run ends, so recording costs one
/// clock read and one push_back per boundary. Single-threaded: every span is
/// recorded from the benchmark's main thread, around the calls it makes
/// into each layer.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// A fresh span id (ids start at 1; 0 means "no parent").
  uint64_t NewId() { return ++last_id_; }

  /// Microseconds since the tracer was created.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Records one finished span. `name` must be a string literal (stored by
  /// pointer). `request` groups the spans of one request; 0 for none.
  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t request, double start_us, double end_us);

  /// Per span name: call count, total duration, and self time (duration
  /// minus the part covered by child spans).
  struct SelfTime {
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Chrome trace-event JSON ("X" complete events), loadable in
  /// chrome://tracing or Perfetto.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    double start_us;
    double dur_us;
  };

  Clock::time_point epoch_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span when a tracer is attached; with
/// no tracer it only measures. The elapsed time is returned either way, so
/// untraced and traced replays share one code path.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer != nullptr ? tracer->NewId() : 0),
        start_(Tracer::Clock::now()),
        start_us_(tracer != nullptr ? tracer->NowUs() : 0.0) {}

  uint64_t id() const { return id_; }

  /// Ends the span (once) and returns its duration in microseconds.
  double Stop() {
    const double us = std::chrono::duration<double, std::micro>(
                          Tracer::Clock::now() - start_)
                          .count();
    if (tracer_ != nullptr) {
      tracer_->Record(name_, id_, parent_, 0, start_us_, start_us_ + us);
      tracer_ = nullptr;
    }
    return us;
  }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Tracer::Clock::time_point start_;
  double start_us_;
};

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_TRACE_H_
