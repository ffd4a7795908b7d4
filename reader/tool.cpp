#include "reader/tool.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "reader/report_diff.hpp"
#include "reader/trace_analyze.hpp"
#include "reader/validate.hpp"

namespace hpamg::tool {

namespace fs = std::filesystem;

int run(int argc, char** argv) {
  struct Sub {
    const char* name;
    int (*entry)(int, char**);
  };
  static constexpr Sub kSubs[] = {{"check", check}, {"diff", diff},
                                  {"trace", trace}, {"perf", perf},
                                  {"top", top}};
  if (argc >= 2)
    for (const Sub& s : kSubs)
      if (std::string_view(argv[1]) == s.name)
        return s.entry(argc - 1, argv + 1);
  std::fprintf(stderr,
               "usage: hpamg check|diff|trace|perf|top [args]\n"
               "       (each subcommand prints its own usage)\n");
  return 2;
}

bool Args::on(std::string_view sw) const {
  return std::find(switches.begin(), switches.end(), sw) != switches.end();
}

Args parse_args(int argc, char** argv,
                std::initializer_list<std::string_view> switches) {
  std::vector<std::string> on;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i > 0 && a.starts_with("--") &&
        std::find(switches.begin(), switches.end(), a.substr(2)) !=
            switches.end())
      on.emplace_back(a.substr(2));
    else
      rest.push_back(argv[i]);
  }
  return {std::move(on), Cli(int(rest.size()), rest.data())};
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, got);
  std::fclose(f);
  return true;
}

double num(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string fmt_ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us * 1e-3);
  return buf;
}

// ------------------------------------------------------------------------
// hpamg check [--require-solve] [--require-metrics] file.json ...
//
// --require-solve: at least one run per file carries a full solver report
// with >= 1 iteration; --require-metrics: each file carries the envelope
// "metrics" block. Fails on any invalid file.
// ------------------------------------------------------------------------

int check(int argc, char** argv) {
  const Args args =
      parse_args(argc, argv, {"require-solve", "require-metrics"});
  const std::vector<std::string>& files = args.cli.positional();
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: hpamg check [--require-solve] [--require-metrics] "
                 "file.json ...\n");
    return 2;
  }
  int bad = 0;
  for (const std::string& path : files) {
    std::string content;
    if (!read_file(path, &content)) {
      std::fprintf(stderr, "%s: cannot open\n", path.c_str());
      ++bad;
      continue;
    }
    const std::string err = validate_bench_report_json(
        content, args.on("require-solve"), args.on("require-metrics"));
    if (err.empty()) {
      std::printf("%s: ok\n", path.c_str());
    } else {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------------------
// hpamg diff [--time-tol F] [--work-tol F] [--time-floor F] [--all] old new
//
// old/new are two BENCH_*.json files, or two directories matched by file
// name (every baseline needs a counterpart). Exit 1 on a regressed or
// missing metric, run or file; 2 on usage, I/O or incomparable reports.
// ------------------------------------------------------------------------

namespace {

const char* verdict_name(MetricDelta::Verdict v) {
  switch (v) {
    case MetricDelta::Verdict::kOk: return "ok";
    case MetricDelta::Verdict::kImproved: return "improved";
    case MetricDelta::Verdict::kRegressed: return "REGRESSED";
    case MetricDelta::Verdict::kMissing: return "MISSING";
    case MetricDelta::Verdict::kAdded: return "added";
  }
  return "?";
}

const char* class_name(MetricClass c) {
  switch (c) {
    case MetricClass::kTiming: return "time";
    case MetricClass::kWork: return "work";
    case MetricClass::kInfo: return "info";
  }
  return "?";
}

void print_diff(const std::string& label, const DiffResult& res,
                bool show_all) {
  std::printf("== %s ==\n", label.c_str());
  std::printf("%-28s %-34s %-5s %12s %12s %8s  %s\n", "run", "metric", "cls",
              "old", "new", "delta%", "verdict");
  int hidden = 0;
  for (const MetricDelta& d : res.deltas) {
    const bool notable = d.verdict != MetricDelta::Verdict::kOk &&
                         d.verdict != MetricDelta::Verdict::kAdded;
    if (!show_all && !notable) {
      ++hidden;
      continue;
    }
    double pct = 0.0;
    if (d.old_value != 0.0)
      pct = 100.0 * (d.new_value - d.old_value) / d.old_value;
    std::printf("%-28s %-34s %-5s %12.6g %12.6g %+8.1f  %s\n", d.run.c_str(),
                d.key.c_str(), class_name(d.cls), d.old_value, d.new_value,
                pct, verdict_name(d.verdict));
  }
  if (hidden > 0)
    std::printf("(%d within-tolerance/added deltas hidden; --all shows them)\n",
                hidden);
  std::printf(
      "summary: %zu metrics, %d regressed, %d missing, %d improved, "
      "%d added\n\n",
      res.deltas.size(), res.regressions, res.missing, res.improvements,
      res.added);
}

int diff_files(const fs::path& old_path, const fs::path& new_path,
               const DiffOptions& opts, bool show_all) {
  std::string old_json, new_json;
  for (const auto& [path, text] :
       {std::pair{&old_path, &old_json}, std::pair{&new_path, &new_json}})
    if (!read_file(path->string(), text)) {
      std::fprintf(stderr, "hpamg diff: cannot read %s\n",
                   path->string().c_str());
      return 2;
    }
  const DiffResult res = diff_bench_reports(old_json, new_json, opts);
  if (!res.error.empty()) {
    std::fprintf(stderr, "hpamg diff: %s vs %s: %s\n",
                 old_path.string().c_str(), new_path.string().c_str(),
                 res.error.c_str());
    return 2;
  }
  print_diff(old_path.filename().string(), res, show_all);
  return res.ok() ? 0 : 1;
}

}  // namespace

int diff(int argc, char** argv) {
  const Args args = parse_args(argc, argv, {"all"});
  const Cli& cli = args.cli;
  if (cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: hpamg diff [--time-tol F] [--work-tol F] "
                 "[--time-floor F] [--all] <old> <new>\n"
                 "       (<old>/<new>: BENCH_*.json files, or directories "
                 "matched by filename)\n");
    return 2;
  }
  DiffOptions opts;
  opts.time_rel_tol = cli.get_double("time-tol", opts.time_rel_tol);
  opts.work_rel_tol = cli.get_double("work-tol", opts.work_rel_tol);
  opts.time_floor_seconds =
      cli.get_double("time-floor", opts.time_floor_seconds);
  const bool show_all = args.on("all");

  const fs::path old_arg = cli.positional()[0];
  const fs::path new_arg = cli.positional()[1];
  std::error_code ec;
  const bool old_dir = fs::is_directory(old_arg, ec);
  if (old_dir != fs::is_directory(new_arg, ec)) {
    std::fprintf(stderr,
                 "hpamg diff: both arguments must be files or both "
                 "directories\n");
    return 2;
  }
  if (!old_dir) return diff_files(old_arg, new_arg, opts, show_all);

  // Directory mode: every BENCH_*.json in the baseline directory must have
  // a same-named counterpart in the new directory (a vanished report is a
  // regression in coverage). Extra new-side reports are informational.
  std::vector<fs::path> baselines;
  for (const fs::directory_entry& e : fs::directory_iterator(old_arg)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.starts_with("BENCH_") &&
        e.path().extension() == ".json")
      baselines.push_back(e.path());
  }
  std::sort(baselines.begin(), baselines.end());
  if (baselines.empty()) {
    std::fprintf(stderr, "hpamg diff: no BENCH_*.json files in %s\n",
                 old_arg.string().c_str());
    return 2;
  }
  int worst = 0;
  for (const fs::path& old_path : baselines) {
    const fs::path new_path = new_arg / old_path.filename();
    if (!fs::exists(new_path)) {
      std::fprintf(stderr, "hpamg diff: %s has no counterpart in %s\n",
                   old_path.filename().string().c_str(),
                   new_arg.string().c_str());
      worst = std::max(worst, 1);
      continue;
    }
    worst = std::max(worst, diff_files(old_path, new_path, opts, show_all));
  }
  return worst;
}

// ------------------------------------------------------------------------
// hpamg trace [--check] <trace.json>
//
// Per-kernel self/total time over all tracks, per-rank compute vs blocked
// wall-clock (the Fig 7 breakdown), a power-of-two histogram of message
// sizes, flow-arrow matching and ring drops. --check exits 1 when the
// parser met any problem (trace_analyze::Timeline::problems).
// ------------------------------------------------------------------------

namespace {

/// Power-of-two bucket label for a message size ("256-511", ...).
std::string bucket_label(long long bytes) {
  long long lo = 1;
  while (lo * 2 <= bytes) lo *= 2;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld-%lld", lo, lo * 2 - 1);
  return buf;
}

}  // namespace

int trace(int argc, char** argv) {
  const Args args = parse_args(argc, argv, {"check"});
  if (args.cli.positional().size() != 1) {
    std::fprintf(stderr, "usage: hpamg trace [--check] <trace.json>\n");
    return 2;
  }
  const std::string& path = args.cli.positional()[0];
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return 2;
  }
  trace_analyze::Timeline tl;
  try {
    tl = trace_analyze::parse_timeline(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  for (const std::string& p : tl.problems)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  const trace_analyze::Analysis an = trace_analyze::analyze(tl);

  std::printf("== per-kernel time (all tracks) ==\n");
  std::printf("%-28s %10s %12s %12s\n", "name", "count", "total_ms",
              "self_ms");
  std::vector<std::pair<std::string, trace_analyze::KernelTime>> by_self(
      an.kernel_times.begin(), an.kernel_times.end());
  std::stable_sort(by_self.begin(), by_self.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.self_us > b.second.self_us;
                   });
  for (const auto& [name, k] : by_self)
    std::printf("%-28s %10ld %12s %12s\n", name.c_str(), k.count,
                fmt_ms(k.total_us).c_str(), fmt_ms(k.self_us).c_str());

  std::printf("\n== per-rank compute vs blocked ==\n");
  std::printf("%-12s %12s %12s %12s %9s\n", "track", "compute_ms",
              "blocked_ms", "span_ms", "blocked%");
  for (const trace_analyze::RankWait& r : an.ranks) {
    const double span = r.compute_us + r.blocked_us;
    std::printf("%-12s %12s %12s %12s %8.1f%%\n", r.name.c_str(),
                fmt_ms(r.compute_us).c_str(), fmt_ms(r.blocked_us).c_str(),
                fmt_ms(span).c_str(),
                span > 0 ? 100.0 * r.blocked_us / span : 0.0);
  }

  long messages = 0;
  long long message_bytes = 0;
  long long matched = 0, send_only = 0, recv_only = 0;
  std::map<std::string, long> size_hist;
  for (const auto& [id, ends] : tl.flows) {
    const auto& [send, recv] = ends;
    if (send.present && send.bytes >= 0) {
      ++messages;
      message_bytes += send.bytes;
      ++size_hist[bucket_label(send.bytes)];
    }
    if (send.present && recv.present)
      ++matched;
    else if (send.present)
      ++send_only;
    else
      ++recv_only;
  }
  std::printf("\n== message sizes (%ld messages, %lld bytes) ==\n", messages,
              message_bytes);
  for (const auto& [bucket, count] : size_hist)
    std::printf("%16s B: %ld\n", bucket.c_str(), count);

  std::printf("\n== flows (%lld matched, %lld send-only, %lld recv-only) ==\n",
              matched, send_only, recv_only);
  if (send_only + recv_only > 0)
    std::printf("  %lld unmatched arrow(s): %s\n", send_only + recv_only,
                tl.dropped_total > 0
                    ? "attributable to ring wraparound (see drops below)"
                    : "NOT explained by drops -- tracer bug");
  if (tl.dropped_total > 0) {
    std::printf("\n== dropped events (%lld total) ==\n", tl.dropped_total);
    for (const auto& [track, n] : tl.dropped_by_track)
      std::printf("%16s: %lld\n", track.c_str(), n);
    if (tl.dropped_by_track.empty())
      std::printf("  (no per-track breakdown in this trace)\n");
  }

  if (!args.on("check")) return 0;
  std::printf("\n%s: %zu spans, %lld matched flows, %lld unmatched, "
              "%lld dropped, %zu check failure(s)\n",
              path.c_str(), tl.spans.size(), matched, send_only + recv_only,
              tl.dropped_total, tl.problems.size());
  return tl.problems.empty() ? 0 : 1;
}

}  // namespace hpamg::tool
