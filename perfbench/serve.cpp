/// \file serve.cpp
/// `serve-recurring`: a closed loop. Three client threads and one solver
/// worker share one threaded SchedulerService whose cache runs with
/// default options (epoch lock-free reads on).
///
/// Set-up characterizes the fleet benchmark's 8 base scenarios on Orin,
/// derives 32 calibration-drift variants of each and cold-solves all 256
/// through the service, so the cache starts warm. Clients then send raw
/// Problems (no precomputed canonicalization, so every submit fingerprints
/// its request), drawn with Zipf popularity from the warm set. With a
/// small probability a client instead sends a never-seen variant from its
/// own disjoint set: that request misses, runs a warm-started solve on the
/// worker and publishes — the write path, running beside the reads.
/// Solves are bounded by node count, not wall time, so what a solve
/// returns does not depend on timing.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "pool.h"
#include "sched/fingerprint.h"
#include "sched/validate.h"
#include "serve/service.h"

namespace perfbench {

using namespace hax;

namespace {

constexpr std::size_t kBuckets = 32;      // drift variants per base scenario
constexpr int kClients = 3;
constexpr std::size_t kFreshPerClient = 200;  // never-seen variants per client
// One never-seen variant per block of this many requests, at a seeded
// position in the block (so the share is exact and only its placement
// is random).
constexpr std::uint64_t kFreshEvery = 40'000;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kNodeLimit = 20'000;
constexpr std::uint64_t kTraceSample = 128;  // traced runs span 1 request in 128
constexpr int kSetups = 5;  // set-ups per run; the median is reported

/// Zipf popularity over the drift buckets of each base scenario. The seed
/// picks which bucket holds which rank; the scenario mix is uniform and
/// fixed, because scenarios differ in fingerprinting cost and a seeded mix
/// would move the figures from seed to seed.
struct Popularity {
  std::vector<double> cdf;                       ///< over kBuckets ranks
  std::vector<std::vector<std::size_t>> bucket;  ///< [base][rank]
};

Popularity popularity(std::uint64_t seed, std::size_t bases) {
  Popularity pop;
  double total = 0.0;
  for (std::size_t r = 0; r < kBuckets; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    pop.cdf.push_back(total);
  }
  for (double& c : pop.cdf) c /= total;
  Rng rng(seed ^ 0xD1B54A32D192ED03ull);
  pop.bucket.assign(bases, std::vector<std::size_t>(kBuckets));
  for (std::vector<std::size_t>& ranks : pop.bucket) {
    for (std::size_t i = 0; i < kBuckets; ++i) ranks[i] = i;
    for (std::size_t i = kBuckets - 1; i > 0; --i) {
      std::swap(ranks[i], ranks[rng.uniform_index(i + 1)]);
    }
  }
  return pop;
}

/// One client's request stream, a pure function of (seed, client).
class ClientTrace {
 public:
  ClientTrace(std::uint64_t seed, int client, const Popularity& pop)
      : rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(client) + 1),
        pop_(&pop) {}

  struct Draw {
    bool fresh = false;
    std::size_t variant = 0;  ///< warm variant index when !fresh
  };

  Draw next() {
    Draw d;
    if (index_ % kFreshEvery == 0) fresh_at_ = index_ + rng_.uniform_index(kFreshEvery);
    if (index_++ == fresh_at_) {
      d.fresh = true;
      return d;
    }
    const std::size_t base = rng_.uniform_index(pop_->bucket.size());
    const double u = rng_.uniform();
    const auto it = std::upper_bound(pop_->cdf.begin(), pop_->cdf.end(), u);
    const auto rank = std::min<std::size_t>(static_cast<std::size_t>(it - pop_->cdf.begin()),
                                            kBuckets - 1);
    d.variant = base * kBuckets + pop_->bucket[base][rank];
    return d;
  }

 private:
  Rng rng_;
  std::uint64_t index_ = 0;
  std::uint64_t fresh_at_ = 0;
  const Popularity* pop_;
};

/// The trace checks: a seed reproduces its trace exactly, and other seeds
/// keep the new-variant share at one per kFreshEvery requests.
void check_traces(std::uint64_t seed, std::size_t bases, Report& report) {
  const std::size_t variants = bases * kBuckets;
  constexpr std::size_t kDraws = 10 * kFreshEvery;
  const auto draw_all = [&](std::uint64_t s, std::vector<std::size_t>& out) {
    const Popularity pop = popularity(s, bases);
    std::size_t fresh = 0;
    out.clear();
    for (int c = 0; c < kClients; ++c) {
      ClientTrace t(s, c, pop);
      for (std::size_t i = 0; i < kDraws; ++i) {
        const ClientTrace::Draw d = t.next();
        fresh += d.fresh ? 1 : 0;
        out.push_back(d.fresh ? variants : d.variant);
      }
    }
    return fresh;
  };
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  (void)draw_all(seed, a);
  (void)draw_all(seed, b);
  report.check(a == b, "serve trace: the same seed gave different request streams");
  for (std::uint64_t other : {seed + 1, seed * 31 + 7}) {
    const std::size_t fresh = draw_all(other, b);
    const double share = static_cast<double>(fresh) / static_cast<double>(b.size());
    const double target = 1.0 / static_cast<double>(kFreshEvery);
    report.check(share >= 0.9 * target && share <= 1.1 * target,
                 "serve trace: new-variant share " + std::to_string(share) + " for seed " +
                     std::to_string(other) + " is outside its bounds");
  }
}

struct State {
  BasePool pool;
  std::vector<sched::Problem> warm;                 // base-major: base * kBuckets + bucket
  std::vector<std::vector<sched::Problem>> fresh;   // per client
  std::unique_ptr<serve::SchedulerService> service;
  std::vector<double> objective;                    // per warm variant, as published
  std::vector<sched::Schedule> schedule;            // per warm variant, validated
  std::uint64_t prewarm_ok = 0;
};

serve::ServiceOptions service_options() {
  serve::ServiceOptions o;
  o.workers = 1;
  o.default_budget_ms = 0.0;
  o.default_node_limit = kNodeLimit;
  return o;
}

/// Builds the pool and variants, then cold-solves every warm variant.
State make_state(Report& report) {
  State s;
  s.pool = make_base_pool(soc::Platform::orin());
  for (std::size_t b = 0; b < s.pool.size(); ++b) {
    for (std::size_t k = 0; k < kBuckets; ++k) s.warm.push_back(drift(s.pool.problem(b), k));
  }
  s.fresh.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t j = 0; j < kFreshPerClient; ++j) {
      const std::uint64_t bucket = 1000 + static_cast<std::uint64_t>(c) * kFreshPerClient + j;
      const sched::Problem& base = s.pool.problem(j % s.pool.size());
      s.fresh[static_cast<std::size_t>(c)].push_back(drift(base, bucket));
    }
  }
  s.service = std::make_unique<serve::SchedulerService>(service_options());
  for (const sched::Problem& p : s.warm) {
    serve::ScenarioRequest req;
    req.problem = &p;
    const serve::ServeReply r = s.service->submit(req).reply();
    const bool solved = r.outcome == serve::ServeOutcome::kSolved && r.proven_optimal;
    const bool valid = solved && sched::validate_schedule(p, r.schedule).ok();
    report.check(valid, "pre-warm: a warm variant did not solve to a valid proven optimum");
    s.objective.push_back(r.objective);
    s.schedule.push_back(r.schedule);
    s.prewarm_ok += valid ? 1 : 0;
  }
  return s;
}

/// What one client saw.
struct ClientLog {
  Histogram hit_us;
  Histogram miss_us;
  Histogram all_us;
  /// Per 1-second window and base scenario: summed µs and count.
  std::vector<std::vector<double>> window_sum;
  std::vector<std::vector<double>> window_count;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t warm_started = 0;
  std::uint64_t solved = 0;
  std::vector<std::string> errors;
};

/// Runs one client until `stop`. A hit must return the objective
/// published for its variant and a schedule that validates against the
/// request (validated once per distinct schedule); a solve must be a
/// valid proven optimum.
void client_requests(const State& s, int client, std::uint64_t seed, const Popularity& pop,
                     const std::atomic<bool>& stop, double start_us, bool fresh_allowed,
                     ClientLog& log) {
  ClientTrace trace_gen(seed, client, pop);
  const auto& fresh = s.fresh[static_cast<std::size_t>(client)];
  std::size_t next_fresh = 0;
  const std::size_t bases = s.pool.size();
  std::vector<sched::Schedule> known = s.schedule;  // validated during pre-warm
  std::uint64_t request_id = static_cast<std::uint64_t>(client + 1) << 40;
  const auto error = [&](const std::string& what) {
    if (log.errors.size() < 8) log.errors.push_back(what);
  };
  while (!stop.load(std::memory_order_relaxed)) {
    const ClientTrace::Draw d = trace_gen.next();
    const bool is_fresh = d.fresh && fresh_allowed && next_fresh < fresh.size();
    if (d.fresh && !is_fresh) continue;  // fresh set used up, or the solo phase
    const sched::Problem& p = is_fresh ? fresh[next_fresh++] : s.warm[d.variant];
    const std::size_t base = is_fresh ? (next_fresh - 1) % bases : d.variant / kBuckets;
    ++request_id;
    const bool sampled = request_id % kTraceSample == 0;
    const trace::Mute mute(!sampled);

    const double t0 = now_us();
    serve::ServeReply reply;
    {
      const trace::Scope request("request", request_id);
      serve::ScenarioRequest req;
      req.problem = &p;
      // A sampled traced request fingerprints on the client (the work
      // submit would do) so that cost gets its own span.
      std::optional<sched::CanonicalScenario> canon;
      if (sampled && trace::enabled()) {
        const trace::Scope span("sched.canonicalize");
        canon.emplace(sched::canonicalize(p));
        req.canon = &*canon;
      }
      serve::ScheduleTicket ticket;
      {
        const trace::Scope span("serve.submit");
        ticket = s.service->submit(req);
      }
      const trace::Scope span("serve.reply");
      reply = ticket.reply();
    }
    const double us = now_us() - t0;
    ++log.sent;

    bool ok = false;
    if (reply.outcome == serve::ServeOutcome::kHit && !is_fresh) {
      ok = reply.objective == s.objective[d.variant];
      if (ok && reply.schedule != known[d.variant]) {
        ok = sched::validate_schedule(p, reply.schedule).ok();
        known[d.variant] = reply.schedule;
      }
      if (!ok) error("a hit returned a schedule other than the published one");
      log.hit_us.add(us);
    } else if (reply.outcome == serve::ServeOutcome::kSolved) {
      ok = reply.proven_optimal && sched::validate_schedule(p, reply.schedule).ok() &&
           (is_fresh || reply.objective == s.objective[d.variant]);
      if (!ok) error("a solve returned an invalid or unproven schedule");
      ++log.solved;
      log.warm_started += reply.warm_started ? 1 : 0;
      log.miss_us.add(us);
    } else {
      error(std::string("request failed: ") + serve::to_string(reply.outcome));
    }
    log.ok += ok ? 1 : 0;
    log.all_us.add(us);
    const auto window = static_cast<std::size_t>((t0 - start_us) / 1e6);
    if (log.window_sum.size() <= window) {
      log.window_sum.resize(window + 1, std::vector<double>(bases, 0.0));
      log.window_count.resize(window + 1, std::vector<double>(bases, 0.0));
    }
    log.window_sum[window][base] += us;
    log.window_count[window][base] += 1.0;
  }
}

/// Thread entry: a client's failure is recorded, never thrown past it.
void client_loop(const State& s, int client, std::uint64_t seed, const Popularity& pop,
                 const std::atomic<bool>& stop, double start_us, bool fresh_allowed,
                 ClientLog& log) {
  try {
    client_requests(s, client, seed, pop, stop, start_us, fresh_allowed, log);
  } catch (const std::exception& e) {
    log.errors.push_back(std::string("client threw: ") + e.what());
  }
}

}  // namespace

int run_serve(const Options& options, Report& report) {
  // Set-up, kSetups times; the last state is the one measured.
  std::vector<double> setup_s;
  std::optional<State> state;
  for (int rep = 0; rep < kSetups; ++rep) {
    const trace::Mute mute(rep + 1 < kSetups);
    state.reset();
    const double t0 = now_us();
    state.emplace(make_state(report));
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  const State& s = *state;
  report.phase("pre-warm", s.warm.size(), s.prewarm_ok, s.warm.size() - s.prewarm_ok);
  check_traces(options.seed, s.pool.size(), report);

  const Popularity pop = popularity(options.seed, s.pool.size());

  // Timed: three clients for `seconds`.
  std::vector<ClientLog> logs(kClients);
  std::atomic<bool> stop{false};
  const double start = now_us();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::cref(s), c, options.seed, std::cref(pop),
                           std::cref(stop), start, true,
                           std::ref(logs[static_cast<std::size_t>(c)]));
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
    stop.store(true);
    for (std::thread& t : clients) t.join();
  }

  ClientLog all;
  std::size_t windows = 0;
  for (const ClientLog& l : logs) windows = std::max(windows, l.window_sum.size());
  const std::size_t bases = s.pool.size();
  std::vector<std::vector<double>> wsum(windows, std::vector<double>(bases, 0.0));
  std::vector<std::vector<double>> wcount(windows, std::vector<double>(bases, 0.0));
  for (const ClientLog& l : logs) {
    all.hit_us.merge(l.hit_us);
    all.miss_us.merge(l.miss_us);
    all.all_us.merge(l.all_us);
    all.sent += l.sent;
    all.ok += l.ok;
    all.solved += l.solved;
    all.warm_started += l.warm_started;
    for (const std::string& e : l.errors) report.fail(e);
    for (std::size_t w = 0; w < l.window_sum.size(); ++w) {
      for (std::size_t b = 0; b < bases; ++b) {
        wsum[w][b] += l.window_sum[w][b];
        wcount[w][b] += l.window_count[w][b];
      }
    }
  }
  report.phase("timed", all.sent, all.ok, all.sent - all.ok);
  report.attempted = all.sent;
  report.failed = all.sent - all.ok;

  // Over whole 1-second windows: the fast quartile of the throughput and,
  // per base scenario, of the mean request time (geomean over scenarios).
  const std::size_t whole = std::min(static_cast<std::size_t>(options.seconds), windows);
  std::vector<double> window_rate(whole, 0.0);
  std::vector<double> per_base;
  for (std::size_t b = 0; b < bases; ++b) {
    std::vector<double> means;
    for (std::size_t w = 0; w < whole; ++w) {
      window_rate[w] += wcount[w][b];
      if (wcount[w][b] > 0) means.push_back(wsum[w][b] / wcount[w][b] / 1000.0);
    }
    per_base.push_back(fast_time(means));
  }

  Quality q;
  for (std::size_t b = 0; b < bases; ++b) {
    const Quality one = judge(s.warm[b * kBuckets], s.schedule[b * kBuckets], false,
                              core::EvalOptions{.loop_barrier = true});
    q.vs_best_pct += one.vs_best_pct / static_cast<double>(bases);
    q.pred_err_pct += one.pred_err_pct / static_cast<double>(bases);
  }

  const serve::ServiceStats st = s.service->stats();
  const double req_per_s = fast_rate(window_rate);
  report.metric("req_per_s", req_per_s, "1/s", true);
  report.metric("req_ms_p99", all.all_us.percentile(99.0) / 1000.0, "ms", true);
  report.metric("req_ms_geomean", geomean(per_base), "ms", true);
  report.metric("miss_rate", static_cast<double>(all.solved) / static_cast<double>(all.sent),
                "fraction", true);
  report.metric("sim_vs_best_pct", q.vs_best_pct, "%", true);
  report.metric("pred_err_pct", q.pred_err_pct, "%", true);
  report.metric("setup_s", median(setup_s), "s", true);

  char line[200];
  std::snprintf(line, sizeof line,
                "requests %llu  hits %llu  solves %llu  p50 %.3f us  p99 %.3f us  "
                "miss p50 %.3f ms  cache size %zu",
                static_cast<unsigned long long>(all.sent),
                static_cast<unsigned long long>(all.hit_us.count()),
                static_cast<unsigned long long>(all.solved), all.all_us.percentile(50.0),
                all.all_us.percentile(99.0), all.miss_us.percentile(50.0) / 1000.0,
                s.service->cache().size());
  report.note(line);

  report.metric("serve.hit_us_p50", all.hit_us.percentile(50.0), "us", false);
  report.metric("serve.hit_us_p99", all.hit_us.percentile(99.0), "us", false);
  report.metric("serve.miss_ms_p50", all.miss_us.percentile(50.0) / 1000.0, "ms", false);
  report.metric("serve.warm_start_pct",
                all.solved == 0 ? 0.0
                                : 100.0 * static_cast<double>(all.warm_started) /
                                      static_cast<double>(all.solved),
                "%", false);
  report.metric("serve.peak_queue_depth", static_cast<double>(st.peak_queue_depth), "count",
                false);
  report.metric("serve.cache_insertions", static_cast<double>(st.cache.insertions), "count",
                false);
  report.metric("serve.cache_evictions", static_cast<double>(st.cache.evictions), "count",
                false);

  if (options.trace) {
    // The same hits from one client, for the contention ratio.
    ClientLog solo;
    std::atomic<bool> solo_stop{false};
    std::thread t(client_loop, std::cref(s), 0, options.seed, std::cref(pop),
                  std::cref(solo_stop), now_us(), false, std::ref(solo));
    std::this_thread::sleep_for(std::chrono::seconds(2));
    solo_stop.store(true);
    t.join();
    for (const std::string& e : solo.errors) report.fail(e);
    report.phase("solo", solo.sent, solo.ok, solo.sent - solo.ok);
    const double solo_p50 = solo.hit_us.percentile(50.0);
    report.metric("serve.hit_us_p50_solo", solo_p50, "us", false);
    report.metric("serve.contention_x", all.hit_us.percentile(50.0) / solo_p50, "ratio", false);

    (void)finish_trace(options, report, req_per_s);
  }
  return 0;
}

}  // namespace perfbench
