/// \file offline.cpp
/// `paper-offline`: a closed loop with one client. Each request
/// cold-schedules one of Table 6's ten experiments end to end — zoo
/// networks, HaxConn::make_problem (grouping, profiling, contention
/// characterization), HaxConn::schedule (serial branch-and-bound run to
/// proven optimum), then the simulator judging HaX-CoNN against Table 6's
/// four baselines. Requests run in passes of all ten experiments, each
/// pass in a seeded order; the ten experiments get equal weight in the
/// latency geomean, so a change that helps only the two-DNN pairs shows.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>

#include "common/rng.h"
#include "harness.h"
#include "nn/zoo.h"
#include "pool.h"
#include "sched/validate.h"

namespace perfbench {

using namespace hax;

namespace {

constexpr int kSetups = 5;  // set-ups per run; the median is reported

struct Experiment {
  int id;
  const char* platform;  // "xavier", "orin" or "sd865"
  bool fps_goal;
  std::vector<const char*> dnns;
  std::vector<int> deps;
};

// Table 6. The two three-DNN hybrids (5 and 8) use grouping depth 6: at
// the paper's depth 10 they take about 7 s and 28 s single-threaded.
const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = {
      {1, "xavier", false, {"VGG19", "ResNet152"}, {-1, -1}},
      {2, "xavier", false, {"ResNet152", "Inception"}, {-1, -1}},
      {3, "xavier", true, {"AlexNet", "ResNet101"}, {-1, 0}},
      {4, "xavier", true, {"ResNet101", "GoogleNet"}, {-1, 0}},
      {5, "xavier", false, {"GoogleNet", "ResNet152", "FC_ResN18"}, {-1, 0, -1}},
      {6, "orin", false, {"VGG19", "ResNet152"}, {-1, -1}},
      {7, "orin", true, {"GoogleNet", "ResNet101"}, {-1, 0}},
      {8, "orin", false, {"ResNet101", "GoogleNet", "Inception"}, {-1, 0, -1}},
      {9, "sd865", true, {"GoogleNet", "ResNet101"}, {-1, 0}},
      {10, "sd865", false, {"Inception", "ResNet152"}, {-1, -1}},
  };
  return table;
}

bool pipelined(const Experiment& e) {
  return std::any_of(e.deps.begin(), e.deps.end(), [](int d) { return d >= 0; });
}

/// What one request produced; the deterministic fields must repeat
/// exactly across passes.
struct Outcome {
  double ms = 0.0;
  bool ok = false;
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  double objective = 0.0;
  Quality quality;
};

struct Setup {
  std::vector<soc::Platform> platforms;  // xavier, orin, sd865
  std::vector<core::HaxConn> hax;        // one per experiment
};

Setup make_setup() {
  Setup s;
  s.platforms.reserve(3);
  s.platforms.push_back(soc::Platform::xavier());
  s.platforms.push_back(soc::Platform::orin());
  s.platforms.push_back(soc::Platform::sd865());
  for (const Experiment& e : experiments()) {
    const std::string p = e.platform;
    const soc::Platform& plat =
        s.platforms[p == "xavier" ? 0 : p == "orin" ? 1 : 2];
    core::HaxConnOptions options;
    options.objective =
        e.fps_goal ? sched::Objective::MaxThroughput : sched::Objective::MinMaxLatency;
    options.grouping.max_groups = e.dnns.size() == 3 ? 6 : 10;
    options.time_budget_ms = 0.0;  // run to proven optimum
    options.solver_threads = 1;
    s.hax.emplace_back(plat, options);
  }
  return s;
}

bool same_outputs(const Outcome& a, const Outcome& b) {
  return a.nodes == b.nodes && a.leaves == b.leaves && a.objective == b.objective &&
         a.quality.vs_best_pct == b.quality.vs_best_pct &&
         a.quality.pred_err_pct == b.quality.pred_err_pct;
}

Outcome run_request(const Setup& s, std::size_t index, std::uint64_t request_id,
                    Report& report) {
  const Experiment& e = experiments()[index];
  const core::HaxConn& hax = s.hax[index];
  Outcome out;
  std::optional<sched::ProblemInstance> inst;
  sched::ScheduleSolution sol;
  const double t0 = now_us();
  {
    const trace::Scope request("request", request_id);
    std::vector<core::WorkloadDnn> workload;
    {
      const trace::Scope span("nn.zoo");
      for (std::size_t d = 0; d < e.dnns.size(); ++d) {
        workload.push_back({nn::zoo::by_name(e.dnns[d]), e.deps[d], pipelined(e) ? 4 : 1});
      }
    }
    {
      const trace::Scope span("core.make_problem");
      inst.emplace(hax.make_problem(std::move(workload)));
    }
    {
      const trace::Scope span("sched.solve");
      sol = hax.schedule(inst->problem());
    }
    const core::EvalOptions eval{.loop_barrier = !pipelined(e)};
    out.quality = judge(inst->problem(), sol.schedule, sol.prediction.round_ms,
                        sol.prediction.fps, e.fps_goal, eval);
  }
  out.ms = (now_us() - t0) / 1000.0;

  out.nodes = sol.stats.nodes_explored;
  out.leaves = sol.stats.leaves_evaluated;
  out.memo_hits = sol.stats.cache_hits;
  out.memo_misses = sol.stats.cache_misses;
  out.objective = sol.prediction.objective_value;
  const std::string tag = "experiment " + std::to_string(e.id);
  out.ok = report.check(sol.best_found(), tag + ": no schedule") &&
           report.check(sol.proven_optimal, tag + ": solve not proven optimal");
  if (out.ok) {
    const sched::ValidateOptions vopts{.enforce_transition_budget = !sol.used_fallback};
    const sched::ValidationReport v =
        sched::validate_schedule(inst->problem(), sol.schedule, vopts);
    out.ok = report.check(v.ok(), tag + ": invalid schedule: " + v.to_string());
  }
  return out;
}

}  // namespace

int run_offline(const Options& options, Report& report) {
  const std::size_t n = experiments().size();

  // Set-up: the platforms and per-experiment HaxConn objects, then one
  // untimed pre-warm pass over the ten experiments, which also fixes the
  // reference outcome of each. Done kSetups times; the median is reported.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  std::vector<Outcome> reference(n);
  std::uint64_t request_id = 0;
  std::uint64_t warm_ok = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    const trace::Mute mute(true);
    rotate_cpu();
    const double t0 = now_us();
    setup.emplace(make_setup());
    for (std::size_t i = 0; i < n; ++i) {
      const Outcome o = run_request(*setup, i, ++request_id, report);
      warm_ok += o.ok && (rep == 0 || same_outputs(o, reference[i])) ? 1 : 0;
      reference[i] = o;
    }
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  report.phase("pre-warm", kSetups * n, warm_ok, kSetups * n - warm_ok);

  // Timed: whole passes until the time is up, each in a seeded order.
  std::vector<std::vector<double>> ms(n);
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  Rng rng(options.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const double start = now_us();
  double elapsed_s = 0.0;
  int passes = 0;
  std::vector<double> pass_rate;  // requests per second of each pass
  while (elapsed_s < options.seconds) {
    rotate_cpu();
    const double pass_start = now_us();
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_index(i + 1)]);
    }
    for (std::size_t i : order) {
      const Outcome o = run_request(*setup, i, ++request_id, report);
      ++sent;
      ms[i].push_back(o.ms);
      const bool same = same_outputs(o, reference[i]);
      report.check(same, "experiment " + std::to_string(experiments()[i].id) +
                             ": deterministic outputs differ between repetitions");
      ok += o.ok && same ? 1 : 0;
    }
    ++passes;
    pass_rate.push_back(static_cast<double>(n) * 1e6 / (now_us() - pass_start));
    elapsed_s = (now_us() - start) / 1e6;
  }
  report.phase("timed", sent, ok, sent - ok);
  report.attempted = sent;
  report.failed = sent - ok;

  std::vector<double> fast;  // per experiment
  double vs_best = 0.0;
  double err = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fast.push_back(fast_time(ms[i]));
    vs_best += reference[i].quality.vs_best_pct / static_cast<double>(n);
    err += reference[i].quality.pred_err_pct / static_cast<double>(n);
    nodes += reference[i].nodes;
    leaves += reference[i].leaves;
    memo_hits += reference[i].memo_hits;
    memo_probes += reference[i].memo_hits + reference[i].memo_misses;
    char line[160];
    std::snprintf(line, sizeof line,
                  "exp %2d  fast-quartile %9.3f ms  nodes %8llu  leaves %8llu  vs best %8.3f %%  "
                  "pred_err %7.3f %%",
                  experiments()[i].id, fast.back(),
                  static_cast<unsigned long long>(reference[i].nodes),
                  static_cast<unsigned long long>(reference[i].leaves),
                  reference[i].quality.vs_best_pct, reference[i].quality.pred_err_pct);
    report.note(line);
  }
  report.note("passes " + std::to_string(passes) + ", requests " + std::to_string(sent));

  const double req_per_s = fast_rate(pass_rate);
  report.metric("req_per_s", req_per_s, "1/s", true);
  // A run holds a few hundred requests, too few for a per-request p99 to
  // have ten samples beyond it; the tail is the slowest experiment.
  report.metric("req_ms_p99", *std::max_element(fast.begin(), fast.end()), "ms", true);
  report.metric("req_ms_geomean", geomean(fast), "ms", true);
  report.metric("miss_rate", 1.0, "fraction", true);
  report.metric("sim_vs_best_pct", vs_best, "%", true);
  report.metric("pred_err_pct", err, "%", true);
  report.metric("setup_s", median(setup_s), "s", true);
  report.metric("solver.nodes", static_cast<double>(nodes), "count", false);
  report.metric("solver.leaves", static_cast<double>(leaves), "count", false);
  report.metric("sched.memo_hit_pct",
                memo_probes == 0 ? 0.0
                                 : 100.0 * static_cast<double>(memo_hits) /
                                       static_cast<double>(memo_probes),
                "%", false);

  if (options.trace) {
    const std::vector<trace::Span> spans = finish_trace(options, report, req_per_s);
    double solve_us = 0.0;
    double worst = 100.0;  // stage-sum rule: children cover >= 95% of each request
    const std::vector<double> covered = trace::child_us(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const double dur = spans[i].end_us - spans[i].start_us;
      if (name == "sched.solve") solve_us += dur;
      if (name == "request") worst = std::min(worst, 100.0 * covered[i] / dur);
    }
    report.metric("sched.leaf_us", solve_us / static_cast<double>(leaves * passes), "us",
                  false);
    report.metric("trace.coverage_pct", worst, "%", false);
    report.check(worst >= 95.0, "child spans cover only " + std::to_string(worst) +
                                    "% of a request (need >= 95%)");
  }
  return 0;
}

}  // namespace perfbench
