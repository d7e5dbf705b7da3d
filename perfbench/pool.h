#pragma once

/// \file pool.h
/// Inputs shared by the workloads: the eight base scenarios of the fleet
/// benchmark (bench/bench_fleet.cpp), calibration-drift variants of a
/// scenario, and the schedule-quality judgement every workload reports
/// (simulated performance against the best Table 6 baseline, and the
/// predictor's error against the simulator — the paper's ε).

#include <memory>
#include <vector>

#include "core/evaluate.h"
#include "core/haxconn.h"
#include "sched/problem.h"
#include "sched/schedule.h"
#include "soc/platform.h"

namespace perfbench {

namespace core = hax::core;
namespace sched = hax::sched;
namespace soc = hax::soc;

/// The eight base scenarios characterized on one platform. Owns the
/// platform (HaxConn and every Problem keep pointers into it).
struct BasePool {
  std::unique_ptr<soc::Platform> platform;
  std::vector<sched::ProblemInstance> instances;

  [[nodiscard]] std::size_t size() const noexcept { return instances.size(); }
  [[nodiscard]] const sched::Problem& problem(std::size_t i) const {
    return instances[i].problem();
  }
};

/// Characterizes the pool on `platform` at grouping depth 5 (each
/// make_problem runs under a `core.make_problem` span).
[[nodiscard]] BasePool make_base_pool(soc::Platform platform);

/// A calibration-drift variant of `base`: only epsilon moves (by 0.5 ms
/// per bucket from a non-binding 1e6 ms, as fleet/devices.cpp does), which
/// changes the scenario fingerprint but not its shape or its solutions.
[[nodiscard]] sched::Problem drift(const sched::Problem& base, std::uint64_t bucket);

struct Quality {
  double vs_best_pct = 0.0;   ///< simulated performance, % of the best baseline's
  double pred_err_pct = 0.0;  ///< |predicted - simulated| / simulated
};

/// Judges `schedule` on the simulator against Table 6's four baselines
/// (GPU-only, GPU&DSA, Herald, H2H), by round latency or by fps. Runs
/// under `baselines.make` and `sim.evaluate` spans.
[[nodiscard]] Quality judge(const sched::Problem& problem, const sched::Schedule& schedule,
                            bool fps_goal, const core::EvalOptions& eval_options);

/// The same judgement from an already-known prediction (the solver's).
[[nodiscard]] Quality judge(const sched::Problem& problem, const sched::Schedule& schedule,
                            double predicted_round_ms, double predicted_fps, bool fps_goal,
                            const core::EvalOptions& eval_options);

}  // namespace perfbench
