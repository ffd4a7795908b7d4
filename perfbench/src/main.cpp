// hpamg benchmark driver: runs one named workload in this process and
// prints the run configuration, notes, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics with every tracing layer off;
// --trace 1 reports the per-layer metrics from benchmark-side spans.
// Exit codes: 0 every answer correct, 1 a wrong answer or failed status
// (the result line says so), 2 usage error or a run that could not produce
// valid figures (no result line).
#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "support/live.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite_cold|rhs_stream|service_mix|dist_fgmres --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

/// OpenMP threads each workload's computing threads use: two per solve on
/// the single-node workloads; one per service worker (two workers) and one
/// per simmpi rank (four ranks), so no workload computes on more than four
/// threads at once.
int pinned_threads(const std::string& workload) {
  return workload == "suite_cold" || workload == "rhs_stream" ? pb::kThreads
                                                               : 1;
}

long llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
#endif
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) return usage("--seed must be an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(cfg.seconds > 0.0) || cfg.seconds > 600.0)
        return usage("--seconds must be in (0, 600]");
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || cfg.workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  void (*run)(const pb::RunConfig&, pb::Outcome&) = nullptr;
  if (cfg.workload == "suite_cold") run = pb::run_suite_cold;
  if (cfg.workload == "rhs_stream") run = pb::run_rhs_stream;
  if (cfg.workload == "service_mix") run = pb::run_service_mix;
  if (cfg.workload == "dist_fgmres") run = pb::run_dist_fgmres;
  if (!run) return usage(("unknown workload " + cfg.workload).c_str());

  // Worker threads the library starts (service workers, simmpi ranks) take
  // the OpenMP default from OMP_NUM_THREADS, so the launcher must set it.
  const int threads = pinned_threads(cfg.workload);
  if (omp_get_max_threads() != threads) {
    std::fprintf(stderr,
                 "perfbench: %s expects OMP_NUM_THREADS=%d, found %d "
                 "(run it through perfbench/run.py)\n",
                 cfg.workload.c_str(), threads, omp_get_max_threads());
    return 2;
  }
  if (hpamg::trace::enabled() || hpamg::metrics::enabled() ||
      hpamg::live::enabled()) {
    std::fprintf(stderr, "perfbench: library trace/metrics/live must be off\n");
    return 2;
  }
  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "llc_bytes=%ld omp_threads=%d gs_partitions=%d rtol=%g check=%gx "
      "library_trace=off library_metrics=off library_live=off\n",
      cfg.workload.c_str(), (unsigned long long)cfg.seed, cfg.seconds,
      int(cfg.trace), sysconf(_SC_NPROCESSORS_ONLN), llc_bytes(), threads,
      pb::kGsPartitions, pb::kRtol, pb::kCheckFactor);

  pb::Outcome o;
  run(cfg, o);
  for (const std::string& n : o.notes) std::printf("note: %s\n", n.c_str());
  if (o.broken) {
    std::fprintf(stderr, "perfbench: no valid figures from this run\n");
    return 2;
  }

  const std::vector<pb::MetricSpec>& specs =
      cfg.trace ? pb::per_layer_specs() : pb::end_to_end_specs();
  std::string json = "{";
  for (const pb::MetricSpec& m : specs) {
    auto it = o.values.find(m.name);
    const double v = it == o.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      return 2;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m.name, v, m.unit);
    json += buf;
  }
  json += "}";
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("error_rate: %ld failed of %ld attempted\n", o.failed,
              o.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", o.attempted, o.failed,
              json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
