// Machine/network calibration microbenchmark.
//
// The perfmodel defaults (perfmodel/machine.hpp, perfmodel/network.hpp) are
// the PAPER's constants — SC'15 Table 1 hardware — so projections reproduce
// the paper's numbers regardless of the host. This bench measures what the
// HOST actually delivers and emits the result in the calibration-JSON
// format `attrib::load_calibration_json` reads, so tools that diagnose
// local runs (`hpamg perf --machine <file>`) can judge kernels against
// this machine's ceilings instead of Endeavor's:
//
//   - STREAM triad (a[i] = b[i] + s*c[i], 24 bytes/element) over all OpenMP
//     threads — the bandwidth roofline;
//   - a dependent-FMA loop per thread — the (secondary) flop roofline;
//   - simmpi 2-rank ping-pong at eager (8 B), rendezvous-boundary (32 KiB)
//     and bulk (1 MiB) sizes — the transport the distributed benches
//     actually run on, so the derived NetworkModel describes mailbox
//     latency and memcpy bandwidth, not InfiniBand.
//
// Usage: bench_stream [--n <elements>] [--repeat N] [--msg-repeat N]
//                     [--out calibration.json]
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "dist/simmpi.hpp"
#include "perfmodel/attrib.hpp"

namespace {

using namespace hpamg;

/// Best-of-N wall seconds for one triad sweep of `n` elements.
double stream_triad_seconds(std::size_t n, int repeats) {
  std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 3.0);
  const double s = 0.42;
  double best = 1e300;
  for (int r = 0; r <= repeats; ++r) {  // repeat 0 is an untimed warm-up
    Timer t;
    parallel_for(Int(0), Int(n), [&](Int i) { a[i] = b[i] + s * c[i]; });
    const double sec = t.seconds();
    if (r > 0 && sec < best) best = sec;
  }
  // Defeat dead-code elimination.
  if (a[n / 2] == -1.0) std::printf("impossible\n");
  return best;
}

/// Measured double-precision flops/s from independent FMA chains on every
/// thread. Eight chains per thread keep the FMA pipelines full; the result
/// feeds a printf so the loop cannot be optimized away.
double peak_flops_measured(int repeats) {
  const std::size_t iters = 4u << 20;
  const int nt = num_threads();
  std::vector<double> sink(std::size_t(nt), 0.0);
  double best = 1e300;
  for (int r = 0; r <= repeats; ++r) {
    Timer t;
    parallel_for(Int(0), Int(nt), [&](Int tid) {
      double x0 = 1.0 + 1e-9 * double(tid), x1 = x0, x2 = x0, x3 = x0;
      double x4 = x0, x5 = x0, x6 = x0, x7 = x0;
      const double m = 1.0 + 1e-12, d = 1e-15;
      for (std::size_t i = 0; i < iters; ++i) {
        x0 = x0 * m + d;
        x1 = x1 * m + d;
        x2 = x2 * m + d;
        x3 = x3 * m + d;
        x4 = x4 * m + d;
        x5 = x5 * m + d;
        x6 = x6 * m + d;
        x7 = x7 * m + d;
      }
      sink[std::size_t(tid)] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
    });
    const double sec = t.seconds();
    if (r > 0 && sec < best) best = sec;
  }
  double acc = 0.0;
  for (double v : sink) acc += v;
  if (acc == -1.0) std::printf("impossible\n");
  // 8 chains x 2 flops (mul+add) per iteration per thread.
  return double(iters) * 16.0 * double(nt) / best;
}

/// Median one-way seconds for a `bytes`-sized ping-pong between two simmpi
/// ranks (half the round-trip, best of `repeats`).
double pingpong_seconds(std::size_t bytes, int repeats) {
  double one_way = 0.0;
  simmpi::run(2, [&](simmpi::Comm& comm) {
    std::vector<char> payload(bytes, 'x');
    const int tag = 1;
    double best = 1e300;
    for (int r = 0; r <= repeats; ++r) {
      Timer t;
      if (comm.rank() == 0) {
        comm.send(1, tag, payload.data(), payload.size());
        (void)comm.recv(1, tag);
      } else {
        std::vector<char> got = comm.recv(0, tag);
        comm.send(0, tag, got.data(), got.size());
      }
      const double sec = t.seconds();
      if (r > 0 && sec < best) best = sec;
    }
    if (comm.rank() == 0) one_way = 0.5 * best;
  });
  return one_way;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n = std::size_t(cli.get_int("n", 1 << 22));
  const int repeats = int(std::max(1L, cli.get_int("repeat", 3)));
  const int msg_repeats = int(std::max(1L, cli.get_int("msg-repeat", 50)));
  const std::string out = cli.get("out", "");

  // ---- bandwidth and flop rooflines.
  const double triad_sec = stream_triad_seconds(n, repeats);
  const double stream_bw = 24.0 * double(n) / triad_sec;
  const double flops = peak_flops_measured(repeats);

  // ---- transport calibration. Eager latency gives the per-message
  // overhead; the bulk transfer gives peak bandwidth once overhead is
  // subtracted; the rendezvous-boundary size isolates the extra handshake
  // cost above the eager limit.
  const NetworkModel dflt;  // for the eager limit the model will use
  const std::size_t eager_bytes = 8;
  const std::size_t rendez_bytes = std::size_t(dflt.eager_limit_bytes) * 2;
  const std::size_t bulk_bytes = 1u << 20;
  const double t_eager = pingpong_seconds(eager_bytes, msg_repeats);
  const double t_rendez = pingpong_seconds(rendez_bytes, msg_repeats);
  const double t_bulk = pingpong_seconds(bulk_bytes, msg_repeats);
  const double overhead = t_eager;
  const double bw =
      double(bulk_bytes) / std::max(t_bulk - overhead, 1e-12);
  const double rendezvous_extra = std::max(
      0.0, t_rendez - overhead - double(rendez_bytes) / bw);

  std::printf("STREAM triad:  %8.2f GB/s (%zu elements, best of %d)\n",
              stream_bw * 1e-9, n, repeats);
  std::printf("peak flops:    %8.2f Gflop/s (%d threads)\n", flops * 1e-9,
              num_threads());
  std::printf("msg overhead:  %8.3f us (8 B one-way)\n", overhead * 1e6);
  std::printf("msg bandwidth: %8.2f GB/s (1 MiB one-way)\n", bw * 1e-9);
  std::printf("rendezvous:    %8.3f us extra (%zu B one-way)\n",
              rendezvous_extra * 1e6, rendez_bytes);

  // ---- calibration JSON in the load_calibration_json format. Only the
  // measured fields are written; loaders keep their defaults for the rest
  // (sparse_efficiency, branch costs, eager limit).
  JsonWriter w;
  w.begin_object();
  w.key("machine").begin_object();
  w.kv("name", "host-calibrated");
  w.kv("stream_bw_bytes_per_s", stream_bw);
  w.kv("peak_flops", flops);
  w.end_object();
  w.key("network").begin_object();
  w.kv("overhead_s", overhead);
  w.kv("peak_bw_bytes_per_s", bw);
  w.kv("rendezvous_extra_s", rendezvous_extra);
  w.end_object();
  w.end_object();

  // Round-trip through the loader so a malformed emission fails HERE, in
  // the bench, not later in `hpamg perf`.
  MachineModel mm = endeavor_rank();
  NetworkModel nm;
  std::string err;
  if (!attrib::load_calibration_json(w.str(), &mm, &nm, &err)) {
    std::fprintf(stderr, "calibration self-check failed: %s\n", err.c_str());
    return 1;
  }

  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write\n", out.c_str());
      return 1;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}
