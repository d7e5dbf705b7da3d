#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

void Histogram::add(double value) {
  int exp = 0;
  const double mantissa = std::frexp(std::max(value, 1e-9), &exp);  // [0.5, 1)
  exp = std::clamp(exp, kMinExp, kMaxExp - 1);
  const int sub = std::clamp(static_cast<int>((mantissa - 0.5) * 2.0 * kSub), 0, kSub - 1);
  ++buckets_[static_cast<std::size_t>((exp - kMinExp) * kSub + sub)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double n = static_cast<double>(buckets_[i]);
    if (seen + n >= rank) {
      const int exp = static_cast<int>(i) / kSub + kMinExp;
      const int sub = static_cast<int>(i) % kSub;
      const double lo = std::ldexp(0.5 * (1.0 + static_cast<double>(sub) / kSub), exp);
      const double hi = std::ldexp(0.5 * (1.0 + static_cast<double>(sub + 1) / kSub), exp);
      return lo + (hi - lo) * std::clamp((rank - seen) / n, 0.0, 1.0);
    }
    seen += n;
  }
  return 0.0;
}

void rotate_cpu() {
  static std::vector<int> cpus;
  static std::size_t next = 0;
  if (cpus.empty()) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.empty()) return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);  // best effort: timing only
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

/// End-to-end metrics every workload reports (untraced runs).
const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"req_per_s", "1/s"},      {"req_ms_p99", "ms"},     {"req_ms_geomean", "ms"},
      {"miss_rate", "fraction"}, {"sim_vs_best_pct", "%"},    {"pred_err_pct", "%"},
      {"setup_s", "s"},          {"rss_mb", "MiB"},
  };
  return units;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"nn.zoo_ms", "ms"},
      {"core.make_problem_ms", "ms"},
      {"sched.solve_ms", "ms"},
      {"sched.leaf_us", "us"},
      {"sched.memo_hit_pct", "%"},
      {"sched.canonicalize_us", "us"},
      {"solver.nodes", "count"},
      {"solver.leaves", "count"},
      {"baselines.make_ms", "ms"},
      {"sim.evaluate_ms", "ms"},
      {"serve.hit_us_p50", "us"},
      {"serve.hit_us_p99", "us"},
      {"serve.hit_us_p50_solo", "us"},
      {"serve.contention_x", "ratio"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.warm_start_pct", "%"},
      {"serve.peak_queue_depth", "count"},
      {"serve.cache_insertions", "count"},
      {"serve.cache_evictions", "count"},
      {"fleet.resolve_ratio", "ratio"},
      {"fleet.pump_ms", "ms"},
      {"fleet.applied", "count"},
      {"fleet.apply_us", "us"},
      {"fleet.snapshot_ms", "ms"},
      {"fleet.snapshot_kb", "KiB"},
      {"fleet.restore_ms", "ms"},
      {"fleet.restore_extra_solves", "count"},
      {"fleet.bus_log_entries", "count"},
      {"fleet.bus_compactions", "count"},
      {"fleet.submit_us_p50", "us"},
      {"fleet.virtual_ms_p99", "virtual_ms"},
      {"trace.req_per_s", "1/s"},
      {"trace.coverage_pct", "%"},
  };
  return units;
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    bool end_to_end) {
  metrics_[name] = Value{value, unit, end_to_end};
}

void Report::fail(const std::string& what) { errors_.push_back(what); }

bool Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

void Report::phase(const std::string& name, std::uint64_t sent, std::uint64_t ok,
                   std::uint64_t failed_count) {
  char line[256];
  std::snprintf(line, sizeof line, "phase %-14s sent %10llu  succeeded %10llu  failed %6llu",
                name.c_str(), static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(failed_count));
  lines_.emplace_back(line);
}

void Report::note(const std::string& line) { lines_.push_back(line); }

namespace {

/// JSON number with all its digits (shortest round-trip form).
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const Options& options) const {
  std::printf("== perfbench  workload=%s seed=%llu seconds=%g trace=%d ==\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  const double fail_pct = attempted == 0 ? 0.0
                                         : 100.0 * static_cast<double>(failed) /
                                               static_cast<double>(attempted);
  std::printf("fail_pct %.4f %% (%llu of %llu timed requests)\n", fail_pct,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, v] : metrics_) {
    std::printf("%-28s %16.6f %-10s %s\n", name.c_str(), v.value, v.unit.c_str(),
                v.end_to_end ? "end-to-end" : "layer");
  }
  for (const std::string& e : errors_) std::printf("CHECK FAILED: %s\n", e.c_str());

  const auto& wanted = options.trace ? layer_metric_units() : end_to_end_units();
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = metrics_.find(name);
    const double value = it == metrics_.end() ? 0.0 : it->second.value;
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace trace {
namespace {

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int> stack;
  std::uint64_t request = 0;
  bool muted = false;
};

/// Spans kept per thread; beyond this a thread stops recording (bounded
/// memory even if a caller forgets to sample).
constexpr std::size_t kMaxSpansPerThread = 4'000'000;

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    owned->thread = static_cast<int>(registry().size());
    buffer = owned.get();
    registry().push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t request) {
  if (!enabled()) return;
  ThreadBuffer& buf = local();
  if (buf.muted || buf.spans.size() >= kMaxSpansPerThread) return;
  if (request != 0) buf.request = request;
  index_ = static_cast<int>(buf.spans.size());
  Span span;
  span.name = name;
  span.parent = buf.stack.empty() ? -1 : buf.stack.back();
  span.request = buf.request;
  span.thread = buf.thread;
  buf.spans.push_back(span);
  buf.stack.push_back(index_);
  buf.spans.back().start_us = now_us();
}

Scope::~Scope() {
  if (index_ < 0) return;
  const double end = now_us();
  ThreadBuffer& buf = local();
  buf.spans[static_cast<std::size_t>(index_)].end_us = end;
  buf.stack.pop_back();
}

Mute::Mute(bool mute) {
  active_ = enabled();
  if (!active_) return;
  ThreadBuffer& buf = local();
  previous_ = buf.muted;
  buf.muted = buf.muted || mute;
}

Mute::~Mute() {
  if (active_) local().muted = previous_;
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (const auto& buf : registry()) {
    const int base = static_cast<int>(out.size());
    for (Span span : buf->spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(span);
    }
  }
  return out;
}

std::vector<double> child_us(const std::vector<Span>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) out[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  return out;
}

std::map<std::string, NameTotals> summarize(const std::vector<Span>& spans) {
  const std::vector<double> children = child_us(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    const double dur = spans[i].end_us - spans[i].start_us;
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - children[i];
  }
  return out;
}

void write_csv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "name,start_us,end_us,parent,request,thread\n";
  char line[256];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof line, "%s,%.3f,%.3f,%d,%llu,%d\n", s.name, s.start_us, s.end_us,
                  s.parent, static_cast<unsigned long long>(s.request), s.thread);
    out << line;
  }
}

}  // namespace trace

std::vector<trace::Span> finish_trace(const Options& options, Report& report,
                                      double req_per_s) {
  std::vector<trace::Span> spans = trace::collect();
  const auto totals = trace::summarize(spans);
  struct SpanMetric {
    const char* metric;
    const char* span;
    double per_us;
    const char* unit;
  };
  static const SpanMetric kMeans[] = {
      {"nn.zoo_ms", "nn.zoo", 1e-3, "ms"},
      {"core.make_problem_ms", "core.make_problem", 1e-3, "ms"},
      {"sched.solve_ms", "sched.solve", 1e-3, "ms"},
      {"sched.canonicalize_us", "sched.canonicalize", 1.0, "us"},
      {"baselines.make_ms", "baselines.make", 1e-3, "ms"},
      {"sim.evaluate_ms", "sim.evaluate", 1e-3, "ms"},
  };
  for (const SpanMetric& m : kMeans) {
    const auto it = totals.find(m.span);
    if (it == totals.end()) continue;
    const double mean_us = it->second.total_us / static_cast<double>(it->second.count);
    report.metric(m.metric, mean_us * m.per_us, m.unit, false);
  }
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof line, "span %-20s count %9llu  total %12.3f ms  self %12.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.count), t.total_us / 1000.0,
                  t.self_us / 1000.0);
    report.note(line);
  }
  report.metric("trace.req_per_s", req_per_s, "1/s", false);
  report.metric("trace.spans", static_cast<double>(spans.size()), "count", false);
  if (!options.spans_path.empty()) trace::write_csv(spans, options.spans_path);
  return spans;
}

}  // namespace perfbench
