// Traffic replay against the SolverService (src/service): a seeded
// synthetic client population drives the session layer — open-loop
// (Poisson arrivals at --rate) or closed-loop (--clients synchronous
// clients) — over a small set of distinct operators, optionally with
// injected faults and a deadline storm, and the bench reports the
// latency distribution (p50/p99), throughput, and every admission /
// retry / degradation / breaker decision the service made.
//
// The chaos contract this bench demonstrates end-to-end: the replay
// FINISHES (every future resolves — zero hangs), every failed request
// carries a specific Status, and the reject/retry/downgrade counts are
// visible both in the JSON report and, with --live, in metrics.prom via
// the service.* instruments.
//
// Usage: bench_service [--requests 40] [--workers 2] [--queue 16]
//                      [--pool 4] [--matrices 2] [--n 20]
//                      [--arrival open|closed] [--rate 400] [--clients 4]
//                      [--deadline-ms 0] [--rtol 1e-6] [--seed 42]
//                      [--faults] [--deadline-storm] [--repeat N]
//                      [--json out.json] [--trace out.json] [--live dir]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gen/stencil.hpp"
#include "service/service.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

using namespace hpamg;
using namespace hpamg::bench;

namespace {

struct ReplayConfig {
  int requests = 40;
  int workers = 2;
  std::size_t queue = 16;
  std::size_t pool = 4;
  int matrices = 2;
  Int n = 20;
  std::string arrival = "open";
  double rate = 400.0;       ///< open-loop arrivals per second
  int clients = 4;           ///< closed-loop concurrency
  double deadline_ms = 0.0;  ///< 0 = unbounded
  double rtol = 1e-6;
  std::uint64_t seed = 42;
  bool faults = false;
  bool storm = false;
};

struct ReplayOutcome {
  std::vector<double> latencies_s;  ///< per resolved request
  std::map<Status, int> by_status;
  service::ServiceStats stats;
  double wall_s = 0.0;
  int unresolved = 0;  ///< futures that failed to resolve (must be 0)
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * double(xs.size() - 1);
  const std::size_t lo = std::size_t(idx);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - double(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Seeded chaos for --faults: a couple of setup allocation failures (the
/// retry path), a mid-run NaN-poison window (transient solve failures,
/// possibly a breaker trip), and two admission-site rejections. All
/// schedules are counter-deterministic, so a failing replay re-runs
/// identically for the same seed.
void arm_chaos(std::uint64_t seed) {
  fault::Schedule setup_fail;
  setup_fail.probability = 0.5;
  setup_fail.count = 2;
  setup_fail.seed = seed ^ 0xa11c;
  fault::arm("service.setup.alloc", setup_fail);

  fault::Schedule poison;
  poison.after_n = 50;
  poison.count = 40;
  poison.seed = seed ^ 0x9019;
  fault::arm("amg.solve.poison", poison);

  fault::Schedule admit_reject;
  admit_reject.after_n = 3;
  admit_reject.count = 2;
  admit_reject.seed = seed ^ 0xad31;
  fault::arm("service.admit", admit_reject);
}

service::RequestOptions request_opts(const ReplayConfig& cfg,
                                     const CounterRng& rng, int i) {
  service::RequestOptions ro;
  ro.rtol = cfg.rtol;
  ro.max_iterations = 200;
  if (cfg.deadline_ms > 0.0) {
    const double jitter = 0.5 + rng.uniform(std::uint64_t(1000 + i));
    ro.deadline = Deadline::after(cfg.deadline_ms * 1e-3 * jitter);
  }
  return ro;
}

ReplayOutcome run_replay(const ReplayConfig& cfg,
                         const std::vector<CSRMatrix>& mats) {
  fault::reset();
  if (cfg.faults) arm_chaos(cfg.seed);

  service::ServiceOptions so;
  so.workers = cfg.workers;
  so.queue_capacity = cfg.queue;
  so.max_hierarchies = cfg.pool;
  so.amg = table3_options(Variant::kOptimized);
  so.amg.max_levels = 5;
  so.backoff_initial_s = 0.001;
  so.backoff_max_s = 0.01;
  so.breaker_cooldown_s = 0.05;
  service::SolverService svc(so);

  const CounterRng rng(cfg.seed);
  std::vector<std::future<service::RequestReport>> futs;
  Timer wall;

  auto submit_one = [&](int i, const service::RequestOptions& ro) {
    const CSRMatrix& A = mats[std::size_t(i) % mats.size()];
    if (i % 5 == 4) {
      // Every fifth request is a 2-column batch through solve_multi.
      MultiVector B(A.nrows, 2);
      for (Int r = 0; r < A.nrows; ++r)
        for (Int j = 0; j < 2; ++j)
          B.at(r, j) = 1.0 + 0.25 * double(j) +
                       0.5 * std::sin(0.01 * double(r));
      return svc.submit_multi(A, std::move(B), ro);
    }
    Vector b(std::size_t(A.nrows));
    for (Int r = 0; r < A.nrows; ++r)
      b[std::size_t(r)] = 1.0 + 0.5 * std::sin(0.02 * double(r) * (i % 3 + 1));
    return svc.submit(A, std::move(b), ro);
  };

  auto storm_burst = [&]() {
    // Deadline storm: a back-to-back burst of requests whose budgets are
    // far below one solve — they must resolve (shed, expired in queue, or
    // expired mid-solve), never hang, never strand the queue.
    for (int s = 0; s < 8; ++s) {
      service::RequestOptions ro;
      ro.rtol = cfg.rtol;
      ro.deadline = Deadline::after(0.002);
      futs.push_back(submit_one(s, ro));
    }
  };

  if (cfg.arrival == "closed") {
    // Closed loop: `clients` synchronous clients, each waiting for its
    // previous request before issuing the next.
    std::mutex futs_mu;
    std::vector<std::thread> clients;
    const int per_client =
        (cfg.requests + cfg.clients - 1) / std::max(1, cfg.clients);
    for (int c = 0; c < cfg.clients; ++c) {
      clients.emplace_back([&, c] {
        for (int k = 0; k < per_client; ++k) {
          const int i = c * per_client + k;
          if (i >= cfg.requests) break;
          auto fut = submit_one(i, request_opts(cfg, rng, i));
          fut.wait();
          std::lock_guard<std::mutex> lk(futs_mu);
          futs.push_back(std::move(fut));
        }
      });
    }
    for (auto& t : clients) t.join();
    if (cfg.storm) storm_burst();
  } else {
    // Open loop: exponential inter-arrival times at --rate, oblivious to
    // completions (the regime where admission control earns its keep).
    for (int i = 0; i < cfg.requests; ++i) {
      if (cfg.storm && i == cfg.requests / 2) storm_burst();
      futs.push_back(submit_one(i, request_opts(cfg, rng, i)));
      const double u = std::max(1e-12, 1.0 - rng.uniform(std::uint64_t(i)));
      const double gap_s = -std::log(u) / std::max(1.0, cfg.rate);
      std::this_thread::sleep_for(std::chrono::duration<double>(gap_s));
    }
  }

  ReplayOutcome out;
  for (auto& f : futs) {
    if (!f.valid()) {
      ++out.unresolved;
      continue;
    }
    const service::RequestReport r = f.get();  // contract: always resolves
    out.latencies_s.push_back(r.total_seconds);
    ++out.by_status[r.status];
  }
  out.wall_s = wall.seconds();
  svc.stop(true);
  out.stats = svc.stats();
  fault::reset();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  ReplayConfig cfg;
  cfg.requests = int(cli.get_int("requests", 40));
  cfg.workers = int(cli.get_int("workers", 2));
  cfg.queue = std::size_t(cli.get_int("queue", 16));
  cfg.pool = std::size_t(cli.get_int("pool", 4));
  cfg.matrices = int(cli.get_int("matrices", 2));
  cfg.n = Int(cli.get_int("n", 20));
  cfg.arrival = cli.get("arrival", "open");
  cfg.rate = cli.get_double("rate", 400.0);
  cfg.clients = int(cli.get_int("clients", 4));
  cfg.deadline_ms = cli.get_double("deadline-ms", 0.0);
  cfg.rtol = cli.get_double("rtol", 1e-6);
  cfg.seed = std::uint64_t(cli.get_int("seed", 42));
  cfg.faults = cli.get("faults", "") != "";
  cfg.storm = cli.get("deadline-storm", "") != "";
  if (cfg.arrival != "open" && cfg.arrival != "closed") {
    std::fprintf(stderr, "--arrival must be open or closed\n");
    return 2;
  }
  const Repeat repeat(cli);
  const RunEnv env("service");
  JsonSink sink(cli, env);
  init_logging(cli);
  TraceSink trace_sink(cli, env);
  LiveSink live_sink(cli);
  sink.report.set_param("requests", long(cfg.requests));
  sink.report.set_param("workers", long(cfg.workers));
  sink.report.set_param("queue", long(cfg.queue));
  sink.report.set_param("arrival", cfg.arrival);
  sink.report.set_param("n", long(cfg.n));
  sink.report.set_param("matrices", long(cfg.matrices));
  sink.report.set_param("deadline_ms", cfg.deadline_ms);
  sink.report.set_param("seed", long(cfg.seed));
  sink.report.set_param("faults", cfg.faults ? 1L : 0L);
  sink.report.set_param("deadline_storm", cfg.storm ? 1L : 0L);
  sink.report.set_param("repeat", repeat.count);

  std::vector<CSRMatrix> mats;
  for (int k = 0; k < std::max(1, cfg.matrices); ++k)
    mats.push_back(lap2d_5pt(cfg.n + 4 * Int(k), cfg.n + 4 * Int(k)));

  std::printf("=== Service traffic replay: %d requests, %d workers, "
              "queue %zu, %s-loop%s%s ===\n",
              cfg.requests, cfg.workers, cfg.queue, cfg.arrival.c_str(),
              cfg.faults ? ", chaos" : "",
              cfg.storm ? ", deadline storm" : "");

  ReplayOutcome out;
  if (repeat.warmup()) (void)run_replay(cfg, mats);
  std::vector<double> p50s, p99s, walls;
  for (int r = 0; r < repeat.count; ++r) {
    begin_timed_repeat();
    out = run_replay(cfg, mats);
    p50s.push_back(percentile(out.latencies_s, 0.50));
    p99s.push_back(percentile(out.latencies_s, 0.99));
    walls.push_back(out.wall_s);
  }

  if (out.unresolved > 0) {
    std::fprintf(stderr, "FAIL: %d futures never resolved\n", out.unresolved);
    return 1;
  }
  int unknown = 0;
  std::printf("\n%-22s %s\n", "status", "requests");
  for (const auto& [st, count] : out.by_status) {
    std::printf("%-22s %d\n", status_name(st), count);
    if (st == Status::kUnknown) unknown = count;
  }
  const auto& st = out.stats;
  std::printf("\nlatency p50 %.4g s, p99 %.4g s; %.1f solves/s over %.3g s\n",
              percentile(out.latencies_s, 0.50),
              percentile(out.latencies_s, 0.99),
              out.wall_s > 0.0 ? double(st.completed_ok) / out.wall_s : 0.0,
              out.wall_s);
  std::printf("admission: %llu submitted, %llu admitted, %llu rejected "
              "(%llu queue-full, %llu shed), %llu degraded\n",
              (unsigned long long)st.submitted,
              (unsigned long long)st.admitted,
              (unsigned long long)st.rejected,
              (unsigned long long)st.queue_full,
              (unsigned long long)st.shed,
              (unsigned long long)st.degraded);
  std::printf("resilience: %llu retries, %llu breaker trips, %llu fast-fail "
              "circuit-open, %llu deadline-exceeded\n",
              (unsigned long long)st.retries,
              (unsigned long long)st.breaker_trips,
              (unsigned long long)st.circuit_open,
              (unsigned long long)st.deadline_exceeded);
  std::printf("pool: %llu setups, %llu cache hits, %llu evictions\n",
              (unsigned long long)st.setup_builds,
              (unsigned long long)st.cache_hits,
              (unsigned long long)st.evictions);
  if (unknown > 0) {
    // Every failure must be classified; kUnknown in a replay means an
    // unmapped exception escaped somewhere.
    std::fprintf(stderr, "FAIL: %d requests resolved to kUnknown\n", unknown);
    return 1;
  }

  // Fixed metric set (`hpamg diff` treats a missing metric as a verdict, so
  // every key is always emitted; counts are info-class, latencies sit
  // under the timing noise floor unless they genuinely regress past it).
  BenchReport::Run& run = sink.report.add_run("replay");
  run.label("arrival", cfg.arrival);
  add_time_metrics(run, "latency_p50", p50s);
  add_time_metrics(run, "latency_p99", p99s);
  add_time_metrics(run, "wall", walls);
  run.metric("requests", double(st.submitted));
  run.metric("completed_ok", double(st.completed_ok));
  run.metric("failed", double(st.failed));
  run.metric("rejected", double(st.rejected));
  run.metric("queue_full", double(st.queue_full));
  run.metric("shed", double(st.shed));
  run.metric("retries", double(st.retries));
  run.metric("degraded", double(st.degraded));
  run.metric("deadline_exceeded", double(st.deadline_exceeded));
  run.metric("circuit_open", double(st.circuit_open));
  run.metric("breaker_trips", double(st.breaker_trips));
  run.metric("cache_hits", double(st.cache_hits));
  run.metric("setup_builds", double(st.setup_builds));
  run.metric("evictions", double(st.evictions));
  run.metric("solves_per_second",
             out.wall_s > 0.0 ? double(st.completed_ok) / out.wall_s : 0.0);

  const int trace_rc = trace_sink.finish();
  const int live_rc = live_sink.finish();
  const int json_rc = sink.finish();
  return trace_rc != 0 ? trace_rc : live_rc != 0 ? live_rc : json_rc;
}
