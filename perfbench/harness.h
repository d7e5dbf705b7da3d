#pragma once

/// \file harness.h
/// Plumbing shared by the benchmark's workloads: the command line, the
/// metric report (printed for people and as the final JSON line), output
/// checks, and the span tracer used by traced runs.
///
/// Tracing. Spans are recorded by the benchmark's own code around its
/// calls into the library's public API — the library itself is not
/// instrumented. A span has a name, start and end (steady clock, µs), the
/// index of its parent span on the same thread and the id of the request
/// it belongs to. Spans stay in per-thread memory and are written to a
/// file once the run ends. With tracing off, a Scope costs one relaxed
/// load.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (CSV).
  std::string spans_path;
};

[[nodiscard]] inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile (p in [0, 100]) of a sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double median(const std::vector<double>& xs);
/// Robust estimates over repetitions inside one run. Interference from
/// other tenants of a shared host only ever slows a repetition, and it
/// comes and goes over seconds; the fast quartile tracks the program's own
/// speed far more steadily than the median does (see NOTES.md).
[[nodiscard]] inline double fast_time(const std::vector<double>& times) {
  return percentile(times, 25.0);
}
[[nodiscard]] inline double fast_rate(const std::vector<double>& rates) {
  return percentile(rates, 75.0);
}
/// Geometric mean of positive values; 0 when empty.
[[nodiscard]] double geomean(const std::vector<double>& xs);

/// Latency histogram with log-linear buckets (64 per power of two, so a
/// bucket spans under 1.6%); percentiles interpolate inside the bucket.
/// Keeps memory constant however many requests a run completes.
class Histogram {
 public:
  void add(double value);
  void merge(const Histogram& other);
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr int kSub = 64;
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 48;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>((kMaxExp - kMinExp) * kSub), 0);
  std::uint64_t count_ = 0;
};

/// Moves the calling thread to the next CPU it may run on, round robin.
/// The single-threaded workloads call it before each repetition: on a
/// shared host one CPU can run this code 20-30% slower than another for
/// minutes at a time, and a thread left alone stays on one CPU, so a whole
/// run would inherit that CPU's luck. Rotating gives every run the same
/// mix of CPUs, and the fast quartile then reads the unhindered ones.
/// Single-threaded workloads only: threads spawned afterwards would
/// inherit the one-CPU mask.
void rotate_cpu();

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Metrics and checks of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit, bool end_to_end);
  /// Records a failed output check (the run then exits nonzero).
  void fail(const std::string& what);
  /// Records a check; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// A phase's request accounting: sent, succeeded and failed.
  void phase(const std::string& name, std::uint64_t sent, std::uint64_t ok,
             std::uint64_t failed);
  /// A free-form line of the human-readable report.
  void note(const std::string& line);

  /// Requests of the timed phase, for the final JSON line.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }

  /// Prints the human-readable report, then the JSON line with the
  /// end-to-end (untraced) or per-layer (traced) metrics.
  void print(const Options& options) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    bool end_to_end = false;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> lines_;
};

namespace trace {

struct Span {
  const char* name = nullptr;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the same collected vector; -1 = root
  std::uint64_t request = 0;
  int thread = 0;
};

void enable(bool on);
[[nodiscard]] bool enabled();

/// Records one span for its lifetime (no-op when tracing is off or muted
/// on this thread). `request` 0 inherits the enclosing span's request id.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

/// Mutes tracing on this thread while alive — unsampled requests of the
/// high-rate workloads run under one, so span memory stays bounded.
class Mute {
 public:
  explicit Mute(bool mute);
  ~Mute();
  Mute(const Mute&) = delete;
  Mute& operator=(const Mute&) = delete;

 private:
  bool active_ = false;
  bool previous_ = false;
};

/// Every recorded span, all threads (threads must have finished recording).
[[nodiscard]] std::vector<Span> collect();

/// Per-name totals: count, summed duration and summed self time (duration
/// minus the time covered by direct children).
struct NameTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
[[nodiscard]] std::map<std::string, NameTotals> summarize(const std::vector<Span>& spans);

/// Per span: the summed duration of its direct children (µs).
[[nodiscard]] std::vector<double> child_us(const std::vector<Span>& spans);

/// Writes spans as CSV (name,start_us,end_us,parent,request,thread).
void write_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace trace

/// Traced-run epilogue shared by the workloads: collects the spans, notes
/// per-name totals, reports the mean duration of each layer-call span as
/// its layer metric plus the traced throughput, and writes the spans out.
std::vector<trace::Span> finish_trace(const Options& options, Report& report,
                                      double req_per_s);

/// Per-layer metric names, so every traced run reports the full set (a
/// layer a workload does not exercise reads 0).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

int run_offline(const Options& options, Report& report);
int run_serve(const Options& options, Report& report);
int run_fleet(const Options& options, Report& report);

}  // namespace perfbench
