#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

#include "amg/pmis.hpp"
#include "amg/smoother.hpp"
#include "amg/strength.hpp"
#include "matrix/permute.hpp"
#include "matrix/transpose.hpp"
#include "spgemm/rap.hpp"

namespace pb {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"solve_s", "s"},
      {"time_to_solution_s", "s"},
      {"rhs_per_s", "1/s"},
      {"batched_rhs_per_s", "1/s"},
      {"krylov_rhs_per_s", "1/s"},
      {"latency_p50_s", "s"},
      {"latency_p95_s", "s"},
      {"throughput_rps", "1/s"},
      {"peak_rss_bytes", "bytes"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"matrix.permute_s", "s"},
      {"matrix.fingerprint_s", "s"},
      {"amg.strength_s", "s"},
      {"amg.coarsen_s", "s"},
      {"amg.interp_s", "s"},
      {"amg.smoother_plan_s", "s"},
      {"spgemm.rap_s", "s"},
      {"amg.hierarchy_bytes", "bytes"},
      {"amg.smoother_bytes", "bytes"},
      {"amg.operator_complexity", "ratio"},
      {"amg.vcycle_s", "s"},
      {"amg.smooth_s", "s"},
      {"amg.spmv_s", "s"},
      {"amg.transfer_s", "s"},
      {"amg.coarse_solve_s", "s"},
      {"amg.smooth_gbps", "GB/s"},
      {"amg.spmv_gbps", "GB/s"},
      {"amg.vcycle_multi_s_per_rhs", "s"},
      {"amg.iterations", "count"},
      {"krylov.pcg_s", "s"},
      {"krylov.iterations", "count"},
      {"krylov.precond_share", "ratio"},
      {"service.submit_s", "s"},
      {"service.queue_s", "s"},
      {"service.attempt_s", "s"},
      {"service.unattributed_s", "s"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.setup_builds", "count"},
      {"service.evictions", "count"},
      {"service.hot_latency_p50_s", "s"},
      {"service.drift_latency_p50_s", "s"},
      {"dist.vcycle_s", "s"},
      {"dist.spmv_s", "s"},
      {"dist.allreduce_s", "s"},
      {"dist.rank_imbalance", "ratio"},
      {"dist.setup_msgs", "count"},
      {"dist.setup_bytes", "bytes"},
      {"dist.solve_msgs_per_iter", "count"},
      {"dist.solve_bytes_per_iter", "bytes"},
      {"dist.allreduces_per_iter", "count"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
  };
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double t = quantile(v, q);
  return std::size_t(std::count_if(v.begin(), v.end(),
                                   [t](double x) { return x > t; }));
}

std::optional<double> tail_quantile(const std::vector<double>& v, double q) {
  if (samples_beyond(v, q) < std::size_t(kTailSamples)) return std::nullopt;
  return quantile(v, q);
}

bool add_latency(const std::vector<double>& latencies, double wall_s,
                 long completed_ok, Outcome& o) {
  const std::optional<double> p95 = tail_quantile(latencies, 0.95);
  o.set("latency_p50_s", median(latencies));
  o.set("latency_p95_s", p95.value_or(0.0));
  o.set("throughput_rps", wall_s > 0.0 ? double(completed_ok) / wall_s : 0.0);
  o.notes.push_back("latency samples " + std::to_string(latencies.size()) +
                    ", beyond p95 " +
                    std::to_string(samples_beyond(latencies, 0.95)));
  return p95.has_value();
}

// ---------------------------------------------------------------------------

double relative_residual(const CSRMatrix& A, const double* b, const double* x,
                         std::size_t stride) {
  long double rr = 0.0L, bb = 0.0L;
  for (Int i = 0; i < A.nrows; ++i) {
    long double s = b[std::size_t(i) * stride];
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      s -= (long double)A.values[k] * x[std::size_t(A.colidx[k]) * stride];
    rr += s * s;
    const long double bi = b[std::size_t(i) * stride];
    bb += bi * bi;
  }
  if (bb == 0.0L) return rr == 0.0L ? 0.0 : INFINITY;
  return double(std::sqrt(rr / bb));
}

Vector random_rhs(Int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector b(n);
  for (double& v : b) v = u(rng);
  return b;
}

// ---------------------------------------------------------------------------

namespace {
using Clock = std::chrono::steady_clock;
const Clock::time_point t0 = Clock::now();
thread_local std::vector<int> t_stack;  // open spans of this thread
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::begin(const char* name, std::uint64_t request) {
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, t, 0.0, parent, request});
  t_stack.push_back(int(spans_.size()) - 1);
  return t_stack.back();
}

void Tracer::end(int idx) {
  const double t = now_s();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[idx].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool summarize(const std::vector<Span>& spans,
               std::map<std::string, SpanTotals>& out) {
  const std::vector<double> self = self_times(spans);
  bool ok = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = out[s.name];
    t.total += s.end - s.start;
    t.self += self[i];
    ++t.count;
    if (self[i] < -1e-12) ok = false;
    if (s.parent >= 0) {
      const Span& p = spans[std::size_t(s.parent)];
      if (self[i] > (p.end - p.start) + 1e-12) ok = false;
    }
  }
  return ok;
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":"
      << s.start << ",\"end\":" << s.end << ",\"self\":" << self[i]
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << "}\n";
  }
}

SpanTable finish_trace(const RunConfig& cfg, Outcome& o) {
  tracer().on = false;
  const std::vector<Span> spans = tracer().spans();
  SpanTable totals;
  if (!summarize(spans, totals)) {
    o.notes.push_back("trace: a child span's self time exceeds its parent");
    o.broken = true;
  }
  o.set("trace.spans", double(spans.size()));
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-22s count %6ld  total %.6f s  self %.6f s",
                  name.c_str(), t.count, t.total, t.self);
    o.notes.push_back(line);
  }
  const std::string path =
      cfg.out_dir + "/trace_" + cfg.workload + ".jsonl";
  write_trace(path, spans);
  o.notes.push_back("trace: " + std::to_string(spans.size()) +
                    " spans written to " + path);
  return totals;
}

// ---------------------------------------------------------------------------

hpamg::AMGOptions table3(double strength_threshold) {
  hpamg::AMGOptions o;
  o.variant = hpamg::Variant::kOptimized;
  o.max_levels = 7;
  o.strength.threshold = strength_threshold;
  o.strength.max_row_sum = 0.8;
  o.interp = hpamg::InterpKind::kExtPI;
  o.truncation.trunc_fact = 0.1;
  o.truncation.max_elmts = 4;
  o.smoother = hpamg::SmootherKind::kHybridGS;
  o.gs_partitions = kGsPartitions;
  return o;
}

void replay_setup_layers(const hpamg::Hierarchy& h) {
  using namespace hpamg;
  const AMGOptions& o = h.opts;
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    const Level& L = h.levels[l];
    CSRMatrix S;
    {
      Scope sc("amg.strength");
      S = strength_matrix(L.A, o.strength);
    }
    {
      Scope sc("amg.coarsen");
      CSRMatrix ST = transpose_parallel(S);
      PmisOptions po;
      po.seed = o.seed + std::uint64_t(l) * 0x1000193;
      CFMarker cf = pmis_coarsen(S, ST, po);
      (void)count_coarse(cf);
    }
    {
      // The library permutes and re-sorts both A and S on every level.
      Scope sc("matrix.permute");
      CSRMatrix Ap = permute_symmetric(L.A, L.perm);
      Ap.sort_rows();
      CSRMatrix Sp = permute_symmetric(S, L.perm);
      Sp.sort_rows();
    }
    {
      Scope sc("amg.interp");
      CFMarker cf(L.n);
      for (Int i = 0; i < L.n; ++i) cf[i] = i < L.nc ? 1 : -1;
      ExtPIOptions eo;
      eo.truncation = o.truncation;
      CSRMatrix P = extpi_interp_partitioned(L.A, S, cf, eo);
    }
    {
      Scope sc("spgemm.rap");
      CSRMatrix Ac = rap_cf_block(L.A, L.Pf, L.PfT, L.nc);
    }
    {
      Scope sc("amg.smoother_plan");
      HybridGSOptimized gs(L.A, int(o.gs_partitions));
    }
  }
}

void set_setup_layers(const SpanTable& t, double units, Outcome& o) {
  for (const char* layer : {"amg.strength", "amg.coarsen", "matrix.permute",
                            "amg.interp", "spgemm.rap", "amg.smoother_plan"})
    o.set(std::string(layer) + "_s", total_of(t, layer) / units);
}

void add_memory(const hpamg::Hierarchy& h, Outcome& o) {
  double total = 0.0, smoother = 0.0;
  for (const hpamg::LevelMemory& m : h.memory_by_level()) {
    total += double(m.operator_bytes + m.interp_bytes + m.smoother_bytes +
                    m.workspace_bytes);
    smoother += double(m.smoother_bytes);
  }
  o.values["amg.hierarchy_bytes"] += total;
  o.values["amg.smoother_bytes"] += smoother;
}

}  // namespace pb
