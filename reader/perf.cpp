// hpamg perf [--check] [--json <out>] [--machine <calib.json>]
//            <BENCH_*.json> [<trace.json>]
//
// Merges a BENCH_*.json report with its trace into one view of where a
// solve's time went and why:
//   - roofline table: per (kernel, level) measured time, achieved bandwidth
//     and the achieved-vs-modeled fractions recorded by perfmodel/attrib
//     (recomputed against `--machine <calibration.json>` when given, e.g.
//     the file bench_stream emits for this host);
//   - wait-state breakdown: the trace's per-rank blocked time classified
//     Scalasca-style by reader/trace_analyze, plus per-kernel load
//     imbalance and the cross-rank critical path;
//   - convergence trajectory: the report's per-iteration telemetry
//     (residual, contraction factor, per-level time split).
//
// --check exits 1 on a violation: the report fails the schema validator, a
// roofline fraction lies outside (0, 1], a per-iteration convergence
// factor does not reproduce the residual history, the trace has duplicate
// flow ids or unexplained half-arrows, or a rank's classified +
// unattributed wait time does not sum to its blocked self time (the
// classifier's partition invariant). --json <out> writes the diagnosis as
// JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfmodel/attrib.hpp"
#include "reader/tool.hpp"
#include "reader/trace_analyze.hpp"
#include "reader/validate.hpp"

namespace hpamg::tool {

namespace {

/// One roofline row lifted back out of the report JSON.
struct RoofRow {
  std::string kernel;
  long level = -1;
  long calls = 0;
  double seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  double achieved_bw = 0.0;
  double modeled_seconds = 0.0;
  double bw_fraction = 0.0;
  double efficiency = 0.0;
};

}  // namespace

int perf(int argc, char** argv) {
  const Args args = parse_args(argc, argv, {"check"});
  const std::vector<std::string>& inputs = args.cli.positional();
  if (inputs.empty() || inputs.size() > 2) {
    std::fprintf(stderr,
                 "usage: hpamg perf [--check] [--json <out>] "
                 "[--machine <calib.json>] <BENCH_*.json> [<trace.json>]\n");
    return 2;
  }
  const std::string json_out = args.cli.get("json", "");
  const std::string machine_path = args.cli.get("machine", "");
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& message) {
    if (ok) return;
    std::fprintf(stderr, "%s\n", message.c_str());
    ++failures;
  };

  // ---- optional calibration override of the paper-constant machine model.
  MachineModel machine = attrib::machine();
  bool recalibrated = false;
  if (!machine_path.empty()) {
    std::string text;
    if (!read_file(machine_path, &text)) {
      std::fprintf(stderr, "%s: cannot open\n", machine_path.c_str());
      return 2;
    }
    std::string err;
    if (!attrib::load_calibration_json(text, &machine, nullptr, &err)) {
      std::fprintf(stderr, "%s: %s\n", machine_path.c_str(), err.c_str());
      return 2;
    }
    recalibrated = true;
  }

  // ---- bench report.
  std::string bench_text;
  if (!read_file(inputs[0], &bench_text)) {
    std::fprintf(stderr, "%s: cannot open\n", inputs[0].c_str());
    return 2;
  }
  const std::string verr = validate_bench_report_json(bench_text);
  expect(verr.empty(), inputs[0] + ": " + verr);
  JsonValue doc;
  try {
    doc = json_parse(bench_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: parse error: %s\n", inputs[0].c_str(),
                 e.what());
    return 1;
  }
  const JsonValue* bench_name = doc.find("bench");
  std::printf("bench: %s\n",
              bench_name != nullptr ? bench_name->text.c_str() : "?");
  if (recalibrated)
    std::printf("machine: %s (%.1f GB/s STREAM, calibrated)\n",
                machine.name.c_str(), machine.stream_bw_bytes_per_s * 1e-9);

  struct RunView {
    std::string name;
    std::vector<RoofRow> roofline;
    const JsonValue* iterations = nullptr;
    const JsonValue* history = nullptr;
  };
  std::vector<RunView> views;
  if (const JsonValue* runs = doc.find("runs")) {
    for (const JsonValue& run : runs->items) {
      RunView v;
      if (const JsonValue* n = run.find("name")) v.name = n->text;
      const JsonValue* rep = run.find("report");
      if (rep == nullptr) continue;
      if (const JsonValue* roof = rep->find("roofline")) {
        for (const JsonValue& e : roof->items) {
          RoofRow r;
          if (const JsonValue* k = e.find("kernel")) r.kernel = k->text;
          r.level = long(num(e, "level", -1));
          r.calls = long(num(e, "calls"));
          r.seconds = num(e, "seconds");
          r.flops = num(e, "flops");
          r.bytes = num(e, "bytes");
          r.achieved_bw = num(e, "achieved_bw_bytes_per_s");
          r.modeled_seconds = num(e, "modeled_seconds");
          r.bw_fraction = num(e, "bw_fraction");
          r.efficiency = num(e, "efficiency");
          if (recalibrated && r.seconds > 0.0 && r.bytes > 0.0) {
            // Re-derive the fractions against the calibrated ceilings
            // (branch counters are not in the report; the bandwidth
            // roofline dominates for these kernels anyway).
            WorkCounters wc;
            wc.flops = std::uint64_t(r.flops);
            wc.bytes_read = std::uint64_t(r.bytes);
            r.modeled_seconds = machine.seconds(wc);
            const double roof = std::max(
                machine.stream_bw_bytes_per_s * machine.sparse_efficiency,
                1.0);
            r.bw_fraction = std::min(1.0, r.achieved_bw / roof);
            r.efficiency = std::min(1.0, r.modeled_seconds / r.seconds);
          }
          v.roofline.push_back(std::move(r));
        }
      }
      v.iterations = rep->find("iterations");
      if (const JsonValue* conv = rep->find("convergence"))
        v.history = conv->find("residual_history");
      views.push_back(std::move(v));
    }
  }

  // ---- roofline tables.
  for (const RunView& v : views) {
    if (v.roofline.empty()) continue;
    std::printf("\n== roofline: %s ==\n", v.name.c_str());
    std::printf("%-24s %5s %7s %10s %9s %7s %7s\n", "kernel", "level",
                "calls", "seconds", "GB/s", "bw%", "eff%");
    for (const RoofRow& r : v.roofline) {
      std::printf("%-24s %5ld %7ld %10.4f %9.2f %6.1f%% %6.1f%%\n",
                  r.kernel.c_str(), r.level, r.calls, r.seconds,
                  r.achieved_bw * 1e-9, 100.0 * r.bw_fraction,
                  100.0 * r.efficiency);
      expect(r.bw_fraction > 0.0 && r.bw_fraction <= 1.0,
             v.name + "/" + r.kernel + ": bw_fraction outside (0,1]");
      expect(r.efficiency > 0.0 && r.efficiency <= 1.0,
             v.name + "/" + r.kernel + ": efficiency outside (0,1]");
    }
  }

  // ---- convergence trajectory + factor cross-check.
  for (const RunView& v : views) {
    if (v.iterations == nullptr || v.iterations->items.empty()) continue;
    std::printf("\n== iterations: %s ==\n", v.name.c_str());
    std::printf("%5s %12s %9s %10s %10s\n", "it", "relres", "conv",
                "seconds", "smoother");
    for (const JsonValue& e : v.iterations->items) {
      const long it = long(num(e, "iteration"));
      const double relres = num(e, "relres");
      const double conv = num(e, "conv_factor");
      const JsonValue* sm = e.find("smoother_contraction");
      char smbuf[32] = "-";
      if (sm != nullptr && sm->is_number())
        std::snprintf(smbuf, sizeof(smbuf), "%.4f", sm->number);
      std::printf("%5ld %12.4e %9.4f %10.6f %10s\n", it, relres, conv,
                  num(e, "seconds"), smbuf);
      // conv_factor must reproduce the residual history: relres matches
      // history[it-1] and conv matches history[it-1]/history[it-2].
      if (v.history != nullptr) {
        const auto& h = v.history->items;
        if (it >= 1 && std::size_t(it) <= h.size()) {
          const double hr = h[std::size_t(it - 1)].number;
          expect(std::abs(relres - hr) <= 1e-9 * std::max(1.0, hr),
                 v.name + ": iteration relres disagrees with residual_history");
          if (it >= 2) {
            const double prev = h[std::size_t(it - 2)].number;
            const double want = prev > 0.0 ? hr / prev : 0.0;
            expect(
                std::abs(conv - want) <= 1e-6 * std::max(1.0, std::abs(want)),
                v.name + ": conv_factor does not reproduce residual_history");
          }
        }
      }
    }
  }

  // ---- trace wait-state classification.
  bool have_trace = false;
  trace_analyze::Analysis an;
  if (inputs.size() == 2) {
    std::string trace_text;
    if (!read_file(inputs[1], &trace_text)) {
      std::fprintf(stderr, "%s: cannot open\n", inputs[1].c_str());
      return 2;
    }
    trace_analyze::Timeline tl;
    try {
      tl = trace_analyze::parse_timeline(trace_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", inputs[1].c_str(), e.what());
      return 1;
    }
    an = trace_analyze::analyze(tl);
    have_trace = true;
    expect(tl.duplicate_flow_ids == 0,
           inputs[1] + ": duplicate flow ids in trace");
    expect(tl.dropped_total > 0 || an.unmatched_flows == 0,
           inputs[1] + ": unmatched flows in a trace reporting zero drops");

    std::printf("\n== wait states (ms) ==\n");
    std::printf("%-10s %9s %9s %9s %9s %9s %9s\n", "rank", "blocked",
                "late_snd", "late_rcv", "collectv", "transfer", "unattrib");
    for (const auto& r : an.ranks) {
      std::printf("%-10s %9s %9s %9s %9s %9s %9s\n", r.name.c_str(),
                  fmt_ms(r.blocked_us).c_str(),
                  fmt_ms(r.late_sender_us).c_str(),
                  fmt_ms(r.late_receiver_us).c_str(),
                  fmt_ms(r.wait_collective_us).c_str(),
                  fmt_ms(r.transfer_us).c_str(),
                  fmt_ms(r.unattributed_us).c_str());
      // The classifier's partition invariant: classified + unattributed
      // == the rank's blocked self time.
      const double sum = r.late_sender_us + r.late_receiver_us +
                         r.wait_collective_us + r.transfer_us +
                         r.unattributed_us;
      expect(std::abs(sum - r.blocked_us) <=
                 std::max(0.5, 1e-6 * std::abs(r.blocked_us)),
             r.name + ": wait-state buckets do not sum to blocked time");
    }
    if (!an.kernels.empty()) {
      std::printf("\n== load imbalance (max/avg self time) ==\n");
      std::size_t shown = 0;
      for (const auto& k : an.kernels) {
        if (shown++ == 5) break;
        std::printf("%-28s %6.3fx (max %s ms on pid %d over %d ranks)\n",
                    k.kernel.c_str(), k.imbalance,
                    fmt_ms(k.max_us).c_str(), k.max_pid, k.ranks);
      }
    }
    std::printf("\n== critical path ==\n");
    std::printf("%zu segment(s), %s ms total (%s ms in transfers)\n",
                an.critical_path.size(), fmt_ms(an.critical_path_us).c_str(),
                fmt_ms(an.critical_transfer_us).c_str());
  }

  // ---- merged diagnosis JSON.
  if (!json_out.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("bench", bench_name != nullptr ? bench_name->text : "");
    w.key("machine").begin_object();
    w.kv("name", machine.name);
    w.kv("stream_bw_bytes_per_s", machine.stream_bw_bytes_per_s);
    w.kv("sparse_efficiency", machine.sparse_efficiency);
    w.kv("calibrated", recalibrated);
    w.end_object();
    w.key("runs").begin_array();
    for (const RunView& v : views) {
      w.begin_object();
      w.kv("name", v.name);
      w.key("roofline").begin_array();
      for (const RoofRow& r : v.roofline) {
        w.begin_object();
        w.kv("kernel", r.kernel);
        w.kv("level", r.level);
        w.kv("seconds", r.seconds);
        w.kv("achieved_bw_bytes_per_s", r.achieved_bw);
        w.kv("bw_fraction", r.bw_fraction);
        w.kv("efficiency", r.efficiency);
        w.end_object();
      }
      w.end_array();
      w.kv("iterations",
           (long long)(v.iterations != nullptr ? v.iterations->items.size()
                                               : 0));
      w.end_object();
    }
    w.end_array();
    if (have_trace) {
      w.key("wait").begin_object();
      w.key("ranks").begin_array();
      for (const auto& r : an.ranks) {
        w.begin_object();
        w.kv("pid", r.pid);
        w.kv("name", r.name);
        w.kv("compute_us", r.compute_us);
        w.kv("blocked_us", r.blocked_us);
        w.kv("late_sender_us", r.late_sender_us);
        w.kv("late_receiver_us", r.late_receiver_us);
        w.kv("wait_collective_us", r.wait_collective_us);
        w.kv("transfer_us", r.transfer_us);
        w.kv("unattributed_us", r.unattributed_us);
        w.end_object();
      }
      w.end_array();
      w.kv("critical_path_us", an.critical_path_us);
      w.kv("critical_transfer_us", an.critical_transfer_us);
      w.kv("unmatched_flows", an.unmatched_flows);
      w.end_object();
    }
    w.end_object();
    std::FILE* f = std::fopen(json_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write\n", json_out.c_str());
      return 2;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_out.c_str());
  }

  if (!args.on("check")) return 0;
  std::printf("\n%s: %d check failure(s)\n", inputs[0].c_str(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace hpamg::tool
