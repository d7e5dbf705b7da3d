/// \file fleet.cpp
/// `fleet-churn`: an open loop in virtual time, driven by one thread,
/// against a SchedulerFleet of four virtual-time brokers with replication
/// on (`pump_replication` every 10k requests). Mid-trace one broker is
/// snapshotted, then killed and restored from the snapshot.
///
/// Devices. 1000 devices share the fleet benchmark's 8 base scenarios
/// (Xavier, grouping depth 5); each request names a seeded scenario and
/// passes the device's cached canonicalization, so fingerprinting is off
/// the request path. Devices sit in 160 calibration groups; a group's
/// members share a drift bucket, so a scenario in a bucket is one
/// fingerprint and 8 x 160 = 1280 fingerprints are live — 1.25x one
/// broker's cache capacity (8 shards x 128) and far below the fleet's.
/// Every 8000 requests one eighth of the groups (one eighth of the
/// devices) recalibrate into fresh buckets: new fingerprints arrive and
/// old ones go cold.
///
/// Each repetition replays the same seeded trace on a fresh fleet, so
/// every count it produces must repeat exactly. A repetition first
/// requests every initially live fingerprint once (pre-warm, untimed),
/// then times the churn trace.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "fleet/fleet.h"
#include "harness.h"
#include "pool.h"
#include "sched/fingerprint.h"
#include "sched/validate.h"

namespace perfbench {

using namespace hax;

namespace {

constexpr std::size_t kDevices = 1000;
constexpr std::size_t kGroups = 160;
constexpr std::size_t kChurnGroups = kGroups / 8;
constexpr std::size_t kChurnEvery = 8000;
constexpr std::size_t kPumpEvery = 10'000;
constexpr std::size_t kRequests = 24'000;  // timed requests per repetition
constexpr std::size_t kSnapshotAt = 12'000;
constexpr std::size_t kRestoreAt = 14'000;
constexpr double kMeanGapMs = 0.05;
constexpr std::size_t kCapacity = 8 * 128;  // one broker's cache, default options
constexpr std::uint64_t kTraceSample = 16;
constexpr int kSetups = 5;  // set-ups per run; the median is reported

struct Request {
  std::uint32_t variant = 0;
  double arrival_ms = 0.0;
};

/// The whole request trace of a repetition, a pure function of the seed:
/// pre-warm requests (each initially live fingerprint once), then the
/// timed churn trace. Variants index `buckets x scenarios`.
struct Trace {
  std::size_t scenarios = 0;
  std::size_t buckets = 0;  ///< drift buckets ever used
  std::vector<Request> prewarm;
  std::vector<Request> timed;
  /// Distinct fingerprints requested between consecutive churn events.
  std::vector<std::size_t> live_per_window;
};

Trace make_trace(std::uint64_t seed, std::size_t scenarios) {
  Trace t;
  t.scenarios = scenarios;
  Rng rng(seed * 0xA24BAED4963EE407ull + 0x1F);
  std::vector<std::uint32_t> device_group(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    device_group[d] = static_cast<std::uint32_t>(d % kGroups);
  }
  for (std::size_t d = kDevices - 1; d > 0; --d) {
    std::swap(device_group[d], device_group[rng.uniform_index(d + 1)]);
  }
  std::vector<std::uint32_t> group_bucket(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) group_bucket[g] = static_cast<std::uint32_t>(g);
  std::uint32_t next_bucket = kGroups;

  double clock = 0.0;
  const auto arrival = [&] {
    clock += rng.uniform(0.2 * kMeanGapMs, 1.8 * kMeanGapMs);
    return clock;
  };
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t s = 0; s < scenarios; ++s) {
      t.prewarm.push_back({static_cast<std::uint32_t>(g * scenarios + s), arrival()});
    }
  }
  std::set<std::uint32_t> window;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i > 0 && i % kChurnEvery == 0) {
      t.live_per_window.push_back(window.size());
      window.clear();
      std::vector<std::uint32_t> groups(kGroups);
      for (std::size_t g = 0; g < kGroups; ++g) groups[g] = static_cast<std::uint32_t>(g);
      for (std::size_t k = 0; k < kChurnGroups; ++k) {
        std::swap(groups[k], groups[k + rng.uniform_index(kGroups - k)]);
        group_bucket[groups[k]] = next_bucket++;
      }
    }
    const std::size_t device = rng.uniform_index(kDevices);
    const std::size_t scenario = rng.uniform_index(scenarios);
    const auto variant =
        static_cast<std::uint32_t>(group_bucket[device_group[device]] * scenarios + scenario);
    window.insert(variant);
    t.timed.push_back({variant, arrival()});
  }
  t.live_per_window.push_back(window.size());
  t.buckets = next_bucket;
  return t;
}

/// A seed reproduces its trace exactly; other seeds keep every window's
/// live fingerprint count within 1.1x-1.5x of one broker's capacity.
void check_traces(std::uint64_t seed, std::size_t scenarios, const Trace& trace,
                  Report& report) {
  const Trace again = make_trace(seed, scenarios);
  bool same = again.timed.size() == trace.timed.size() && again.buckets == trace.buckets;
  for (std::size_t i = 0; same && i < trace.timed.size(); ++i) {
    same = again.timed[i].variant == trace.timed[i].variant &&
           again.timed[i].arrival_ms == trace.timed[i].arrival_ms;
  }
  report.check(same, "fleet trace: the same seed gave different traces");
  for (std::uint64_t other : {seed, seed + 1, seed * 31 + 7}) {
    const Trace t = make_trace(other, scenarios);
    for (std::size_t live : t.live_per_window) {
      report.check(live >= kCapacity * 11 / 10 && live <= kCapacity * 15 / 10,
                   "fleet trace: " + std::to_string(live) + " live fingerprints for seed " +
                       std::to_string(other) + " is outside 1.1x-1.5x of a broker's cache");
    }
  }
}

fleet::FleetOptions fleet_options() {
  fleet::FleetOptions o;
  o.brokers = 4;
  o.replicate = true;
  o.service.workers = 0;
  o.service.virtual_time = true;
  o.service.default_budget_ms = 0.0;
  o.service.default_node_limit = 4000;
  o.service.virtual_nodes_per_ms = 500.0;
  return o;
}

/// Counts of one fleet's life; the deterministic ones must repeat exactly.
struct Counts {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t solves = 0;
  std::uint64_t applied = 0;
  std::uint64_t pumps = 0;
  double pump_us = 0.0;
  std::uint64_t restore_extra_solves = 0;
  std::set<std::uint32_t> requested;
};

/// A fleet plus the benchmark's view of what it must answer: the last
/// objective published for each fingerprint and the schedules already
/// validated. Checks every reply.
class CheckedFleet {
 public:
  explicit CheckedFleet(const std::vector<sched::Problem>& variants,
                  const std::vector<sched::CanonicalScenario>& canons)
      : fleet_(fleet_options()), variants_(&variants), canons_(&canons) {}

  fleet::SchedulerFleet& fleet() { return fleet_; }
  Counts& counts() { return counts_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::map<sched::ScenarioFingerprint, double>& expected() { return expected_; }
  std::map<sched::ScenarioFingerprint, sched::Schedule>& validated() { return validated_; }

  /// Solves at `victim` for fingerprints in `held` count as restore
  /// re-solves from now on.
  void watch_restore(std::size_t victim, std::set<sched::ScenarioFingerprint> held) {
    victim_ = victim;
    victim_held_ = std::move(held);
  }

  void pump() {
    const trace::Scope span("fleet.pump");
    const double t0 = now_us();
    counts_.applied += fleet_.pump_replication();
    counts_.pump_us += now_us() - t0;
    ++counts_.pumps;
  }

  /// Submits one request (pumping every kPumpEvery); returns whether its
  /// reply passed the checks, and its wall time in µs.
  std::pair<bool, double> submit(const Request& r, bool sampled) {
    const sched::Problem& p = (*variants_)[r.variant];
    const sched::CanonicalScenario& canon = (*canons_)[r.variant];
    ++request_id_;
    counts_.requested.insert(r.variant);
    const trace::Mute mute(!sampled || request_id_ % kTraceSample != 0);
    const double t0 = now_us();
    serve::ServeReply reply;
    {
      const trace::Scope request("request", request_id_);
      serve::ScenarioRequest req;
      req.problem = &p;
      req.canon = &canon;
      const trace::Scope span("fleet.submit");
      reply = fleet_.submit_at(req, r.arrival_ms).reply();
    }
    const double us = now_us() - t0;

    bool ok = false;
    const sched::ScenarioFingerprint& fp = canon.fingerprint;
    if (reply.outcome == serve::ServeOutcome::kHit) {
      const auto it = expected_.find(fp);
      ok = it != expected_.end() && it->second == reply.objective;
    } else if (reply.outcome == serve::ServeOutcome::kSolved) {
      ok = true;
      ++counts_.solves;
      if (reply.published) expected_[fp] = reply.objective;
      if (victim_held_.count(fp) != 0 && fleet_.router().route(fp) == victim_) {
        ++counts_.restore_extra_solves;
      }
    }
    if (ok) {
      const auto v = validated_.find(fp);
      if (v == validated_.end() || v->second != reply.schedule) {
        ok = sched::validate_schedule(p, reply.schedule).ok();
        validated_[fp] = reply.schedule;
      }
    }
    if (!ok && errors_.size() < 8) {
      errors_.push_back(std::string("fleet request ") + std::to_string(request_id_) + ": " +
                        serve::to_string(reply.outcome) + " reply failed its check");
    }
    ++counts_.sent;
    counts_.ok += ok ? 1 : 0;
    if (++since_pump_ == kPumpEvery) {
      since_pump_ = 0;
      pump();
    }
    return {ok, us};
  }

  /// After a broker restore: what the restored broker holds is what its
  /// hits must return from now on.
  void adopt(std::size_t broker) {
    for (auto& [fp, objective] : expected_) {
      if (fleet_.router().route(fp) != broker) continue;
      if (const auto e = fleet_.broker(broker).cache().peek(fp)) objective = e->objective;
    }
  }

 private:
  fleet::SchedulerFleet fleet_;
  const std::vector<sched::Problem>* variants_;
  const std::vector<sched::CanonicalScenario>* canons_;
  Counts counts_;
  std::map<sched::ScenarioFingerprint, double> expected_;
  std::map<sched::ScenarioFingerprint, sched::Schedule> validated_;
  std::vector<std::string> errors_;
  std::size_t victim_ = 0;
  std::set<sched::ScenarioFingerprint> victim_held_;
  std::uint64_t request_id_ = 0;
  std::uint64_t since_pump_ = 0;
};

struct State {
  BasePool pool;
  Trace trace;
  std::vector<sched::Problem> variants;
  std::vector<sched::CanonicalScenario> canons;
  /// The warm fleet every repetition starts from: each broker's snapshot
  /// after the pre-warm, and what the benchmark expects of it.
  std::vector<json::Value> snapshots;
  std::map<sched::ScenarioFingerprint, double> expected;
  std::map<sched::ScenarioFingerprint, sched::Schedule> validated;
  std::uint64_t prewarm_sent = 0;
  std::uint64_t prewarm_ok = 0;
  std::uint64_t prewarm_solves = 0;
  std::vector<std::string> errors;
};

/// Builds the pool, the trace and every variant's canonicalization, then
/// pre-warms a fleet (each initially live fingerprint requested once,
/// then gossiped) and snapshots its brokers.
State make_state(std::uint64_t seed) {
  State s;
  s.pool = make_base_pool(soc::Platform::xavier());
  s.trace = make_trace(seed, s.pool.size());
  s.variants.reserve(s.trace.buckets * s.pool.size());
  for (std::size_t b = 0; b < s.trace.buckets; ++b) {
    for (std::size_t sc = 0; sc < s.pool.size(); ++sc) {
      s.variants.push_back(drift(s.pool.problem(sc), b));
      const trace::Scope span("sched.canonicalize");
      s.canons.push_back(sched::canonicalize(s.variants.back()));
    }
  }
  CheckedFleet warm(s.variants, s.canons);
  {
    const trace::Mute mute(true);
    for (const Request& r : s.trace.prewarm) (void)warm.submit(r, false);
    warm.pump();
  }
  for (const std::string& e : warm.errors()) s.errors.push_back("pre-warm: " + e);
  for (std::size_t b = 0; b < warm.fleet().broker_count(); ++b) {
    s.snapshots.push_back(warm.fleet().snapshot_broker(b));
  }
  s.expected = warm.expected();
  s.validated = warm.validated();
  s.prewarm_sent = warm.counts().sent;
  s.prewarm_ok = warm.counts().ok;
  s.prewarm_solves = warm.counts().solves;
  return s;
}

/// Everything one repetition measured.
struct Rep {
  double timed_s = 0.0;
  std::vector<double> base_sum_us;
  std::vector<double> base_count;
  Histogram submit_us;
  Histogram solve_us;
  Counts counts;
  std::uint64_t restore_sent = 0;
  std::uint64_t restore_ok = 0;
  double snapshot_ms = 0.0;
  double snapshot_kb = 0.0;
  double restore_ms = 0.0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  fleet::FleetStats stats;
  std::string fingerprint;  ///< deterministic outputs, compared across repetitions
  std::vector<std::string> errors;
};

/// One repetition: a fresh fleet restored from the set-up snapshots, then
/// the timed churn trace with the mid-trace snapshot, kill and restore.
Rep run_rep(const State& s) {
  Rep rep;
  const std::size_t bases = s.pool.size();
  rep.base_sum_us.assign(bases, 0.0);
  rep.base_count.assign(bases, 0.0);
  CheckedFleet d(s.variants, s.canons);
  for (std::size_t b = 0; b < s.snapshots.size(); ++b) {
    d.fleet().restart_broker(b, &s.snapshots[b]);
  }
  d.expected() = s.expected;
  d.validated() = s.validated;
  const std::size_t victim =
      d.fleet().router().route(s.canons[s.trace.timed.front().variant].fingerprint);
  bool restored = false;

  json::Value snapshot;
  const double start = now_us();
  for (std::size_t i = 0; i < s.trace.timed.size(); ++i) {
    if (i == kSnapshotAt) {
      const trace::Scope span("fleet.snapshot");
      const double t0 = now_us();
      snapshot = d.fleet().snapshot_broker(victim);
      rep.snapshot_ms = (now_us() - t0) / 1000.0;
      rep.snapshot_kb = static_cast<double>(snapshot.dump().size()) / 1024.0;
    }
    if (i == kRestoreAt) {
      std::set<sched::ScenarioFingerprint> held;
      for (const serve::ExportedEntry& e : d.fleet().broker(victim).cache().export_entries()) {
        held.insert(e.fingerprint);
      }
      const trace::Scope span("fleet.restore");
      const double t0 = now_us();
      d.fleet().restart_broker(victim, &snapshot);
      d.pump();  // boot-time catch-up: drain the bus before taking traffic
      rep.restore_ms = (now_us() - t0) / 1000.0;
      d.adopt(victim);
      d.watch_restore(victim, std::move(held));
      restored = true;
    }
    const Request& r = s.trace.timed[i];
    const std::uint64_t solves_before = d.counts().solves;
    const auto [ok, us] = d.submit(r, true);
    if (restored) {
      ++rep.restore_sent;
      rep.restore_ok += ok ? 1 : 0;
    }
    rep.submit_us.add(us);
    if (d.counts().solves > solves_before) rep.solve_us.add(us);
    const std::size_t base = r.variant % bases;
    rep.base_sum_us[base] += us;
    rep.base_count[base] += 1.0;
  }
  rep.timed_s = (now_us() - start) / 1e6;
  rep.errors = d.errors();

  rep.counts = d.counts();
  rep.stats = d.fleet().stats();
  for (const serve::ServiceStats& b : rep.stats.brokers) {
    rep.insertions += b.cache.insertions;
    rep.evictions += b.cache.evictions;
  }
  rep.fingerprint = rep.stats.to_json().dump() +
                    " solves=" + std::to_string(rep.counts.solves) +
                    " applied=" + std::to_string(rep.counts.applied) +
                    " restore_extra=" + std::to_string(rep.counts.restore_extra_solves) +
                    " snapshot_kb=" + std::to_string(rep.snapshot_kb);
  return rep;
}

}  // namespace

int run_fleet(const Options& options, Report& report) {
  std::vector<double> setup_s;
  std::optional<State> state;
  for (int rep = 0; rep < kSetups; ++rep) {
    const trace::Mute mute(rep + 1 < kSetups);
    state.reset();
    rotate_cpu();
    const double t0 = now_us();
    state.emplace(make_state(options.seed));
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  const State& s = *state;
  for (const std::string& e : s.errors) report.fail(e);
  report.phase("pre-warm", s.prewarm_sent, s.prewarm_ok, s.prewarm_sent - s.prewarm_ok);
  check_traces(options.seed, s.pool.size(), s.trace, report);

  // One untimed repetition first: the first pass through the trace grows
  // the heap and runs well below the steady rate.
  Rep warmup;
  {
    const trace::Mute mute(true);
    warmup = run_rep(s);
  }
  std::vector<Rep> reps;
  const double start = now_us();
  while (reps.empty() || (now_us() - start) / 1e6 < options.seconds) {
    rotate_cpu();
    reps.push_back(run_rep(s));
    report.check(reps.back().fingerprint == warmup.fingerprint,
                 "fleet: deterministic outputs differ between repetitions");
    for (const std::string& e : reps.back().errors) report.fail(e);
  }

  const Rep& first = reps.front();
  const auto num = [](std::uint64_t n) { return static_cast<double>(n); };
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t restore_sent = 0;
  std::uint64_t restore_ok = 0;
  Histogram submit_us;
  Histogram solve_us;
  std::vector<double> rps, p99_ms, pump_ms, apply_us, snapshot_ms, restore_ms;
  std::vector<std::vector<double>> base_means(s.pool.size());
  std::string per_rep = "per repetition: req/s (pump ms, p99 us):";
  for (const Rep& r : reps) {
    sent += r.counts.sent;
    ok += r.counts.ok;
    restore_sent += r.restore_sent;
    restore_ok += r.restore_ok;
    submit_us.merge(r.submit_us);
    solve_us.merge(r.solve_us);
    rps.push_back(num(r.counts.sent) / r.timed_s);
    p99_ms.push_back(r.submit_us.percentile(99.0) / 1000.0);
    pump_ms.push_back(r.counts.pump_us / 1000.0 / num(r.counts.pumps));
    apply_us.push_back(r.counts.pump_us / num(std::max<std::uint64_t>(r.counts.applied, 1)));
    snapshot_ms.push_back(r.snapshot_ms);
    restore_ms.push_back(r.restore_ms);
    for (std::size_t b = 0; b < s.pool.size(); ++b) {
      base_means[b].push_back(r.base_sum_us[b] / r.base_count[b] / 1000.0);
    }
    per_rep += " " + std::to_string(std::llround(rps.back())) + " (" +
               std::to_string(std::llround(r.counts.pump_us / 1000.0)) + ", " +
               std::to_string(std::llround(p99_ms.back() * 1000.0)) + ")";
  }
  report.phase("timed", sent, ok, sent - ok);
  report.phase("broker-restore", restore_sent, restore_ok, restore_sent - restore_ok);
  report.attempted = sent;
  report.failed = sent - ok;

  std::vector<double> per_base;
  for (const auto& m : base_means) per_base.push_back(fast_time(m));

  Quality q;
  for (std::size_t b = 0; b < s.pool.size(); ++b) {
    // The schedule the fleet served for the scenario in drift bucket 0.
    const sched::ScenarioFingerprint& fp = s.canons[b].fingerprint;
    const Quality one = judge(s.variants[b], s.validated.at(fp), false,
                              core::EvalOptions{.loop_barrier = true});
    q.vs_best_pct += one.vs_best_pct / static_cast<double>(s.pool.size());
    q.pred_err_pct += one.pred_err_pct / static_cast<double>(s.pool.size());
  }

  // Solves per distinct fingerprint over the fleet's life (pre-warm and
  // trace); 1.0 means every fingerprint was solved exactly once.
  std::set<std::uint32_t> distinct = first.counts.requested;
  for (const Request& r : s.trace.prewarm) distinct.insert(r.variant);
  const double resolve_ratio =
      num(s.prewarm_solves + first.counts.solves) / num(distinct.size());

  report.metric("req_per_s", fast_rate(rps), "1/s", true);
  report.metric("req_ms_p99", fast_time(p99_ms), "ms", true);
  report.metric("req_ms_geomean", geomean(per_base), "ms", true);
  report.metric("miss_rate", num(first.counts.solves) / num(first.counts.sent), "fraction",
                true);
  report.metric("sim_vs_best_pct", q.vs_best_pct, "%", true);
  report.metric("pred_err_pct", q.pred_err_pct, "%", true);
  report.metric("setup_s", median(setup_s), "s", true);

  char line[240];
  std::snprintf(line, sizeof line,
                "repetitions %zu  requests/rep %zu (after a %zu-request pre-warm)  "
                "solves/rep %llu  distinct fingerprints %zu  hit rate %.4f  evictions %llu",
                reps.size(), s.trace.timed.size(), s.trace.prewarm.size(),
                static_cast<unsigned long long>(first.counts.solves), distinct.size(),
                first.stats.hit_rate(), static_cast<unsigned long long>(first.evictions));
  report.note(line);
  report.note(per_rep);

  report.metric("fleet.resolve_ratio", resolve_ratio, "ratio", false);
  report.metric("fleet.applied", num(first.counts.applied), "count", false);
  report.metric("fleet.pump_ms", median(pump_ms), "ms", false);
  report.metric("fleet.apply_us", median(apply_us), "us", false);
  report.metric("fleet.snapshot_ms", median(snapshot_ms), "ms", false);
  report.metric("fleet.snapshot_kb", first.snapshot_kb, "KiB", false);
  report.metric("fleet.restore_ms", median(restore_ms), "ms", false);
  report.metric("fleet.restore_extra_solves", num(first.counts.restore_extra_solves), "count",
                false);
  report.metric("fleet.bus_log_entries", num(first.stats.bus.log_entries), "count", false);
  report.metric("fleet.bus_compactions", num(first.stats.bus.compactions), "count", false);
  report.metric("fleet.submit_us_p50", submit_us.percentile(50.0), "us", false);
  report.metric("fleet.virtual_ms_p99", first.stats.p99_ms, "virtual_ms", false);
  report.metric("serve.cache_insertions", num(first.insertions), "count", false);
  report.metric("serve.cache_evictions", num(first.evictions), "count", false);
  report.metric("sched.solve_ms", solve_us.percentile(50.0) / 1000.0, "ms", false);

  if (options.trace) (void)finish_trace(options, report, fast_rate(rps));
  return 0;
}

}  // namespace perfbench
