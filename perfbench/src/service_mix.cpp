// service_mix: a closed loop of clients against SolverService with two
// workers; each client blocks on its reply, the way a simulation code
// blocks on its solve. Most traffic asks for a small hot set of operators
// (pool hits, entry-lock serialisation); submit_multi batches ride along;
// "drift" requests keep a hot operator's pattern but perturb its values,
// so each one gets a new fingerprint, a full setup and a pool insert or
// eviction. The hot set is smaller than the pool, so the hit ratio is set
// by the mix and not by timing. No deadlines and no faults.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <semaphore>
#include <thread>

#include "common.hpp"
#include "gen/stencil.hpp"
#include "service/service.hpp"
#include "support/metrics.hpp"

namespace pb {
namespace {

namespace svc = hpamg::service;

constexpr Int kN = 24;                 ///< hot operators are kN^3 grids
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kPool = 16;      ///< > hot set + recent drift entries
constexpr double kDriftShare = 0.20;   ///< most of latency_p95_s is drift
constexpr double kBatchShare = 0.10;
constexpr int kBatchM = 4;
constexpr int kSetups = 9;
constexpr long kMinRequests = 400;
constexpr int kTracedPerClient = 60;

enum class Kind { kHot, kBatch, kDrift };

struct Sample {
  Kind kind;
  double latency = 0.0;  ///< client-observed: submit -> future ready
  svc::RequestReport rep;  ///< solution vectors dropped after the check
  bool ok = false;
};

std::vector<CSRMatrix> hot_operators() {
  return {hpamg::lap3d_7pt(kN, kN, kN),
          hpamg::lap3d_7pt(kN, kN, kN, 1.0, 0.5),
          hpamg::lap3d_7pt(kN, kN, kN, 0.5, 0.2)};
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions so;
  so.workers = kWorkers;
  so.queue_capacity = 64;
  so.max_hierarchies = kPool;
  so.amg = table3(0.25);
  return so;
}

/// A + sigma diag(A), sigma in [0.01, 0.1): the mass-matrix shift of an
/// implicit time step whose step size changed. Same pattern, new values,
/// new fingerprint.
CSRMatrix drift(const CSRMatrix& A, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double sigma = 0.01 + 0.09 * u(rng);
  CSRMatrix D = A;
  for (Int i = 0; i < D.nrows; ++i)
    for (Int k = D.rowptr[i]; k < D.rowptr[i + 1]; ++k)
      if (D.colidx[k] == i) D.values[k] *= 1.0 + sigma;
  return D;
}

/// Client-side computing (building requests, checking answers) is limited
/// so that workers plus clients never compute on more than nproc threads.
std::counting_semaphore<kWorkers> client_compute(kWorkers);

/// One request: build it, submit, wait, check against its own operator.
Sample one_request(svc::SolverService& service,
                   const std::vector<CSRMatrix>& hot, std::mt19937_64& rng,
                   std::uint64_t request_id, bool fingerprint_replay) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double pick = u(rng);
  Sample s;
  s.kind = pick < kDriftShare                 ? Kind::kDrift
           : pick < kDriftShare + kBatchShare ? Kind::kBatch
                                              : Kind::kHot;
  const CSRMatrix& base = hot[std::size_t(u(rng) * double(hot.size()))];
  const int m = s.kind == Kind::kBatch ? kBatchM : 1;

  client_compute.acquire();
  const CSRMatrix A = s.kind == Kind::kDrift ? drift(base, rng) : base;
  hpamg::MultiVector B(A.nrows, m);
  for (double& v : B.data) v = u(rng) * 2.0 - 1.0;
  CSRMatrix A_sent = A;
  hpamg::MultiVector B_sent = B;
  if (fingerprint_replay) {
    Scope sc("matrix.fingerprint", request_id);
    (void)hpamg::matrix_fingerprint(A);
  }
  client_compute.release();

  const double t0 = now_s();
  {
    Scope sc("service.request", request_id);
    std::future<svc::RequestReport> fut;
    {
      Scope ss("service.submit", request_id);
      fut = m == 1 ? service.submit(std::move(A_sent), std::move(B_sent.data))
                   : service.submit_multi(std::move(A_sent),
                                          std::move(B_sent));
    }
    Scope sw("service.wait", request_id);
    s.rep = fut.get();
  }
  s.latency = now_s() - t0;

  client_compute.acquire();
  s.ok = hpamg::status_ok(s.rep.status);
  const double* X = m == 1 ? s.rep.x.data() : s.rep.X.data.data();
  const std::size_t have = m == 1 ? s.rep.x.size() : s.rep.X.data.size();
  if (have != B.data.size()) s.ok = false;
  for (int j = 0; j < m && s.ok; ++j)
    s.ok = residual_ok(relative_residual(A, B.data.data() + j, X + j, m),
                       kRtol);
  client_compute.release();
  s.rep.x = Vector();
  s.rep.X = hpamg::MultiVector(0, 1);
  return s;
}

/// Builds a service and warms the hot set one operator after the other:
/// each request is a cold miss that pays a full setup. Returns the seconds
/// taken, without the answer checks. (Concurrent warm-up would let the
/// race for the two workers decide the time.)
double warm_up(std::unique_ptr<svc::SolverService>& service,
               const std::vector<CSRMatrix>& hot, Outcome& o) {
  double seconds = 0.0;
  double t0 = now_s();
  service = std::make_unique<svc::SolverService>(service_options());
  for (const CSRMatrix& A : hot) {
    const Vector b(A.nrows, 1.0);
    const svc::RequestReport r = service->submit(A, b).get();
    seconds += now_s() - t0;
    o.count(hpamg::status_ok(r.status) && r.x.size() == b.size() &&
            residual_ok(relative_residual(A, b.data(), r.x.data()), kRtol));
    t0 = now_s();
  }
  return seconds;
}

/// Runs the closed loop: every client issues requests back to back while
/// `more(k)` holds for its k-th request. Each client draws from its own
/// seeded stream, so a fixed count gives the same requests every run.
std::vector<Sample> closed_loop(svc::SolverService& service,
                                const std::vector<CSRMatrix>& hot,
                                std::uint64_t seed, int phase,
                                const std::function<bool(long)>& more,
                                bool fingerprint_replay) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL +
                          std::uint64_t(phase) * 131ULL + std::uint64_t(c));
      for (long k = 0; more(k); ++k)
        per_client[c].push_back(one_request(
            service, hot, rng, std::uint64_t(c + 1) * 1000000 + k + 1,
            fingerprint_replay));
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Sample> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void count_samples(const std::vector<Sample>& samples, Outcome& o) {
  for (const Sample& s : samples) {
    o.count(s.ok);
    if (!s.ok && o.failed <= 5) {
      std::string ev;
      for (const std::string& e : s.rep.events) ev += " | " + e;
      o.notes.push_back("failed request: kind " +
                        std::to_string(int(s.kind)) + ", status " +
                        hpamg::status_name(s.rep.status) + ", relres " +
                        std::to_string(s.rep.final_relres) + ", attempts " +
                        std::to_string(s.rep.attempts) + ev);
    }
  }
}

std::vector<double> latencies_of(const std::vector<Sample>& samples,
                                 std::optional<Kind> kind = std::nullopt) {
  std::vector<double> v;
  for (const Sample& s : samples)
    if (!kind || s.kind == *kind) v.push_back(s.latency);
  return v;
}

/// Latency per request kind, and how many of each kind lie beyond the
/// overall p95, so the output shows which kind each percentile lands on.
void note_kinds(const std::vector<Sample>& samples, Outcome& o) {
  const double p95 = quantile(latencies_of(samples), 0.95);
  const std::pair<Kind, const char*> kinds[] = {
      {Kind::kHot, "hot"}, {Kind::kBatch, "batch"}, {Kind::kDrift, "drift"}};
  for (const auto& [kind, name] : kinds) {
    const std::vector<double> v = latencies_of(samples, kind);
    const long beyond =
        std::count_if(v.begin(), v.end(), [p95](double x) { return x > p95; });
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-5s requests %5zu: p50 %.4f s, p95 %.4f s, %ld beyond the "
                  "overall p95",
                  name, v.size(), median(v), quantile(v, 0.95), beyond);
    o.notes.push_back(line);
  }
}

void traced_run(const RunConfig& cfg, const std::vector<CSRMatrix>& hot,
                Outcome& o);

}  // namespace

void run_service_mix(const RunConfig& cfg, Outcome& o) {
  const std::vector<CSRMatrix> hot = hot_operators();
  o.notes.push_back("hot set: 3 operators of " + std::to_string(hot[0].nrows) +
                    " rows, pool " + std::to_string(kPool) + ", " +
                    std::to_string(kClients) + " closed-loop clients, " +
                    std::to_string(kWorkers) + " workers");
  if (cfg.trace) return traced_run(cfg, hot, o);

  const double start = now_s();
  std::unique_ptr<svc::SolverService> service;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    setups.push_back(warm_up(service, hot, o));
  }
  const double loop_start = now_s();
  const std::vector<Sample> samples = closed_loop(
      *service, hot, cfg.seed, 0,
      [&](long k) {
        return k < kMinRequests / kClients || now_s() - start < cfg.seconds;
      },
      false);
  const double wall = now_s() - loop_start;
  service->stop();
  count_samples(samples, o);
  note_kinds(samples, o);

  std::vector<double> solve_seconds, single_s, batch_s;
  long ok = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ++ok;
    solve_seconds.push_back(s.rep.solve_seconds);
    (s.kind == Kind::kBatch ? batch_s : single_s).push_back(s.rep.solve_seconds);
  }
  const double setup = median(setups), solve = median(solve_seconds);
  o.set("setup_s", setup);
  o.set("solve_s", solve);
  // Time to solution of an operator the pool has not seen: the client-
  // observed latency of drift requests (setup + solve + waits).
  o.set("time_to_solution_s", median(latencies_of(samples, Kind::kDrift)));
  // Rates from median service-side solve seconds. The service has no
  // Krylov path: krylov_rhs_per_s names the single-RHS rate (README.md).
  o.set("rhs_per_s", 1.0 / median(single_s));
  o.set("batched_rhs_per_s", kBatchM / median(batch_s));
  o.set("krylov_rhs_per_s", 1.0 / median(single_s));
  if (!add_latency(latencies_of(samples), wall, ok, o)) o.broken = true;
  o.set("peak_rss_bytes", double(hpamg::metrics::peak_rss_bytes()));
}

namespace {

double mean_of(const std::vector<Sample>& samples,
               double (*f)(const Sample&)) {
  double sum = 0.0;
  for (const Sample& s : samples) sum += f(s);
  return samples.empty() ? 0.0 : sum / double(samples.size());
}

void traced_run(const RunConfig& cfg, const std::vector<CSRMatrix>& hot,
                Outcome& o) {
  std::unique_ptr<svc::SolverService> service;
  warm_up(service, hot, o);
  auto fixed = [](long k) { return k < kTracedPerClient; };

  const std::vector<Sample> untraced =
      closed_loop(*service, hot, cfg.seed, 1, fixed, false);
  count_samples(untraced, o);

  const svc::ServiceStats before = service->stats();
  tracer().on = true;
  // A fresh request stream: repeating phase 1 would turn its drift
  // operators, still pooled, into hits.
  const std::vector<Sample> traced =
      closed_loop(*service, hot, cfg.seed, 2, fixed, true);
  const SpanTable T = finish_trace(cfg, o);
  const svc::ServiceStats after = service->stats();
  service->stop();
  count_samples(traced, o);

  o.set("trace.overhead_s",
        median(latencies_of(traced)) - median(latencies_of(untraced)));
  o.set("matrix.fingerprint_s",
        total_of(T, "matrix.fingerprint") / double(traced.size()));
  o.set("service.submit_s", total_of(T, "service.submit") / double(traced.size()));
  o.set("service.queue_s",
        mean_of(traced, [](const Sample& s) { return s.rep.queue_seconds; }));
  o.set("service.attempt_s",
        mean_of(traced, [](const Sample& s) { return s.rep.solve_seconds; }));
  o.set("service.unattributed_s", mean_of(traced, [](const Sample& s) {
          return s.rep.total_seconds - s.rep.queue_seconds -
                 s.rep.solve_seconds;
        }));
  const double requests = double(after.submitted - before.submitted);
  o.set("service.cache_hit_ratio",
        double(after.cache_hits - before.cache_hits) / requests);
  o.set("service.setup_builds",
        double(after.setup_builds - before.setup_builds));
  o.set("service.evictions", double(after.evictions - before.evictions));
  double iterations = 0.0;
  for (const Sample& s : traced) iterations += double(s.rep.iterations);
  o.set("amg.iterations", iterations);
  o.set("service.hot_latency_p50_s", median(latencies_of(traced, Kind::kHot)));
  o.set("service.drift_latency_p50_s",
        median(latencies_of(traced, Kind::kDrift)));
}

}  // namespace
}  // namespace pb
