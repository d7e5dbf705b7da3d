#include "pool.h"

#include <cmath>

#include "baselines/baselines.h"
#include "harness.h"
#include "nn/zoo.h"
#include "sched/formulation.h"

namespace perfbench {

using namespace hax;

BasePool make_base_pool(soc::Platform platform) {
  BasePool pool;
  pool.platform = std::make_unique<soc::Platform>(std::move(platform));
  core::HaxConnOptions options;
  options.grouping.max_groups = 5;
  const core::HaxConn hax(*pool.platform, options);
  const auto add = [&](std::vector<core::WorkloadDnn> dnns) {
    const trace::Scope span("core.make_problem");
    pool.instances.push_back(hax.make_problem(std::move(dnns)));
  };
  add({{nn::zoo::alexnet()}, {nn::zoo::resnet18()}});
  add({{nn::zoo::alexnet()}, {nn::zoo::googlenet()}});
  add({{nn::zoo::resnet18()}, {nn::zoo::googlenet()}});
  add({{nn::zoo::alexnet()}});
  add({{nn::zoo::resnet18()}});
  add({{nn::zoo::googlenet()}});
  add({{nn::zoo::alexnet(), -1, 2}, {nn::zoo::resnet18()}});
  add({{nn::zoo::resnet18(), -1, 2}});
  return pool;
}

sched::Problem drift(const sched::Problem& base, std::uint64_t bucket) {
  sched::Problem p = base;
  p.epsilon_ms = 1.0e6 + static_cast<double>(bucket) * 0.5;
  return p;
}

Quality judge(const sched::Problem& problem, const sched::Schedule& schedule, bool fps_goal,
              const core::EvalOptions& eval_options) {
  const sched::PredictOptions lenient{.enforce_transition_budget = false,
                                      .enforce_epsilon = false};
  const sched::Prediction pred = sched::Formulation(problem).predict(schedule, lenient);
  return judge(problem, schedule, pred.round_ms, pred.fps, fps_goal, eval_options);
}

Quality judge(const sched::Problem& problem, const sched::Schedule& schedule,
              double predicted_round_ms, double predicted_fps, bool fps_goal,
              const core::EvalOptions& eval_options) {
  static const baselines::Kind kTable6[] = {baselines::Kind::GpuOnly,
                                            baselines::Kind::NaiveConcurrent,
                                            baselines::Kind::Herald, baselines::Kind::H2H};
  std::vector<sched::Schedule> candidates;
  {
    const trace::Scope span("baselines.make");
    for (baselines::Kind kind : kTable6) candidates.push_back(baselines::make(kind, problem));
  }
  const trace::Scope span("sim.evaluate");
  const core::EvalResult mine = core::evaluate(problem, schedule, eval_options);
  double best_ms = 0.0;
  double best_fps = 0.0;
  for (const sched::Schedule& s : candidates) {
    const core::EvalResult r = core::evaluate(problem, s, eval_options);
    if (best_ms == 0.0 || r.round_latency_ms < best_ms) best_ms = r.round_latency_ms;
    best_fps = std::max(best_fps, r.fps);
  }
  Quality q;
  if (fps_goal) {
    q.vs_best_pct = 100.0 * mine.fps / best_fps;
    q.pred_err_pct = 100.0 * std::abs(predicted_fps - mine.fps) / mine.fps;
  } else {
    q.vs_best_pct = 100.0 * best_ms / mine.round_latency_ms;
    q.pred_err_pct =
        100.0 * std::abs(predicted_round_ms - mine.round_latency_ms) / mine.round_latency_ms;
  }
  return q;
}

}  // namespace perfbench
