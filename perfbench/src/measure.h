#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file measure.h
/// The benchmark's own measuring primitives: percentiles and the tail rule,
/// in-memory spans with the traced run's self-check and a Chrome
/// trace-event writer, and the process/host readings taken beside every run.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile of `values` (need not be sorted): the smallest
/// sample with at least q of the samples at or below it. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// The tail rule: the highest of p90 / p99 / p999 that leaves at least
/// `min_beyond` samples above it among `samples`. Returns the quantile
/// (0.9, 0.99 or 0.999), or 0 when not even p90 qualifies.
[[nodiscard]] double select_tail_quantile(std::size_t samples, std::size_t min_beyond = 10);

/// Samples strictly beyond quantile q under the nearest-rank rule.
[[nodiscard]] std::size_t samples_beyond(std::size_t samples, double q);

/// "p90", "p99", "p999".
[[nodiscard]] std::string quantile_name(double q);

// ---- spans ----------------------------------------------------------------

/// One traced interval. Spans of one op share `op`; `parent` indexes the
/// enclosing span in the same Tracer (-1 for a root). `name` is a string
/// literal, so recording a span allocates nothing.
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Collects spans in memory; nothing is written until write_chrome_trace.
class Tracer {
 public:
  /// Open a span now under `parent` (-1 = a root); returns its index.
  int begin(const char* name, std::uint64_t op, int parent);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t op, int parent)
      : tracer_(t), index_(t.begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Summed duration of every span called `name`.
[[nodiscard]] std::int64_t total_ns(const std::vector<Span>& spans, std::string_view name);

/// The self-check over a traced run. The replay records one level of layer
/// spans under each root: every non-root span's parent is a root, and a
/// root's children are disjoint and lie inside it. A layer's self time is
/// then its duration, and a root's self time (its duration minus its
/// children's) is the benchmark's own code between two layer calls.
struct SelfCheck {
  std::size_t roots = 0;
  std::size_t misshapen = 0;  ///< child spans that break the shape above
  std::int64_t root_ns = 0;   ///< the roots' durations, summed
  std::int64_t self_ns = 0;   ///< the roots' self times, summed

  /// Every span has the shape above, and the layer spans' self times sum to
  /// the root spans within `tolerance` (a share of root_ns). The bound is on
  /// the run's sum, not on each op: a correct run whose thread is preempted
  /// between two layer calls of one op would fail a per-op bound.
  [[nodiscard]] bool passes(double tolerance) const;
};

[[nodiscard]] SelfCheck self_check(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps,
/// one thread row), loadable by chrome://tracing or Perfetto. Returns false
/// if the file could not be written.
[[nodiscard]] bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

// ---- process and host -----------------------------------------------------

/// Process user+sys CPU seconds so far (all threads).
[[nodiscard]] double process_cpu_s();
/// Voluntary plus involuntary context switches of the process so far.
[[nodiscard]] std::uint64_t process_ctx_switches();

/// Cumulative CPU ticks from the first line of /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Hypervisor steal share of all CPU ticks between two readings.
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Wall milliseconds of a fixed single-thread integer loop: a host-speed
/// reading independent of the program under test.
[[nodiscard]] double probe_loop_ms();

}  // namespace perfbench
