// Ablation: parallel column-index renumbering (§4.2).
//
// Runs the distributed Galerkin product with the sequential ordered-map
// renumbering versus the paper's thread-private-hash + parallel-merge
// scheme, across rank counts, reporting the renumbering share of RAP and
// its hash-probe counts. (The paper measures 2.6-3.5x faster RAP on 128
// nodes from this optimization; on one host core the structural metrics —
// probes and the serialized fraction — carry the comparison.)
//
// Usage: bench_ablation_renumber [--n 12] [--max-ranks 8] [--repeat N]
//                                [--json out.json]
#include <cstdio>

#include "amg/interp_extpi.hpp"
#include "bench_util.hpp"
#include "dist/dist_coarsen.hpp"
#include "dist/dist_interp.hpp"
#include "dist/dist_spgemm.hpp"
#include "dist/dist_transpose.hpp"
#include "gen/stencil.hpp"

using namespace hpamg;
using namespace hpamg::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const Int n = Int(cli.get_int("n", 12));
  const int max_ranks = int(cli.get_int("max-ranks", 8));
  const Repeat repeat(cli);
  const RunEnv env("ablation_renumber");
  JsonSink sink(cli, env);
  init_logging(cli);
  TraceSink trace_sink(cli, env);
  sink.report.set_param("n", long(n));
  sink.report.set_param("max_ranks", long(max_ranks));
  sink.report.set_param("repeat", repeat.count);

  std::printf("=== Ablation: §4.2 column-index renumbering in distributed"
              " RAP (lap3d %d^3/rank) ===\n\n", n);
  print_row({"ranks", "variant", "renumber_s", "rap_local_s", "gathered_MB",
             "probes"}, 13);

  for (int ranks = 2; ranks <= max_ranks; ranks *= 2) {
    CSRMatrix A = lap3d_7pt(n, n, n * Int(ranks));
    for (bool parallel : {false, true}) {
      double renum = 0, local = 0, mb = 0;
      std::uint64_t probes = 0;
      std::vector<double> renum_samples, local_samples;
      const int passes = repeat.count + (repeat.warmup() ? 1 : 0);
      for (int p = 0; p < passes; ++p) {
        if (!(repeat.warmup() && p == 0)) begin_timed_repeat();
        std::vector<DistSpgemmInfo> infos(ranks);
        std::vector<WorkCounters> wcs(ranks);
        simmpi::run(ranks, [&](simmpi::Comm& c) {
          DistMatrix dA = distribute_csr(c, A);
          StrengthOptions so;
          DistMatrix dS = dist_strength(dA, so);
          DistMatrix dST = dist_transpose(c, dS);
          CFMarker cf = dist_pmis(c, dS, dST);
          CoarseNumbering cn = coarse_numbering(c, cf);
          DistMatrix dP = dist_extpi_interp(c, dA, dS, dST, cf, cn);
          DistSpgemmOptions o;
          o.parallel_renumber = parallel;
          dist_rap(c, dA, dP, o, &wcs[c.rank()], &infos[c.rank()]);
        });
        if (repeat.warmup() && p == 0) continue;
        double pass_renum = 0, pass_local = 0;
        mb = 0;
        probes = 0;
        for (int r = 0; r < ranks; ++r) {
          pass_renum = std::max(pass_renum, infos[r].renumber_seconds);
          pass_local = std::max(pass_local, infos[r].local_seconds);
          mb += double(infos[r].gathered_bytes) / 1e6;
          probes += wcs[r].hash_probes;
        }
        renum_samples.push_back(pass_renum);
        local_samples.push_back(pass_local);
      }
      renum = sample_stats(renum_samples).median;
      local = sample_stats(local_samples).median;
      const char* vname = parallel ? "parallel" : "baseline";
      print_row({fmt_int(ranks), vname,
                 fmt(renum, "%.5f"), fmt(local, "%.5f"), fmt(mb, "%.3f"),
                 fmt_int(long(probes))}, 13);
      sink.report
          .add_run(std::string(vname) + "/r" + std::to_string(ranks))
          .label("variant", vname)
          .metric("ranks", double(ranks))
          .metric("renumber_seconds", renum)
          .metric("rap_local_seconds", local)
          .metric("gathered_mb", mb)
          .metric("hash_probes", double(probes));
    }
  }
  std::printf("\nExpected shape (paper): the baseline's ordered-map"
              " renumbering grows with rank count (more off-rank columns)"
              " and serializes; the parallel scheme keeps renumbering a"
              " small fraction of RAP (2.6-3.5x RAP speedup at 128 nodes)."
              "\n");
  const int trace_rc = trace_sink.finish();
  const int json_rc = sink.finish();
  return trace_rc != 0 ? trace_rc : json_rc;
}
