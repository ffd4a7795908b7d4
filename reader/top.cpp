// hpamg top: live progress viewer for a running solve.
//
// Tails the progress.jsonl stream the live observability layer appends
// (see src/support/live.hpp) and renders a per-rank table: iteration,
// residual, per-iteration convergence factor, heartbeat age, and the
// fraction of the last sampling interval the rank spent blocked in simmpi
// waits. Three modes:
//
//   hpamg top <dir>            render the latest sample and exit
//   hpamg top <dir> --follow   re-render as new samples are appended
//   hpamg top <dir> --check    CI validation: parse every line, enforce
//                              schema + monotonic seq/ts, and sanity-check
//                              the Prometheus exposition file if present
//
// <dir> is the --live directory a bench was started with; a direct path
// to a progress.jsonl also works.
#include <sys/stat.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "reader/tool.hpp"

namespace hpamg::tool {

namespace {

// ------------------------------------------------------------------------
// Rendering
// ------------------------------------------------------------------------

std::string fmt_res(double v) {
  char buf[32];
  if (v < 0.0 || std::isnan(v)) return "-";
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

/// Looks up a metric in the sample's "counters" or "gauges" objects;
/// `found` (optional) reports whether the key exists at all.
double metric_of(const JsonValue& sample, const char* group, const char* key,
                 bool* found = nullptr) {
  const JsonValue* obj = sample.find(group);
  const JsonValue* f = obj != nullptr ? obj->find(key) : nullptr;
  if (found != nullptr) *found = f != nullptr;
  return f != nullptr && f->is_number() ? f->number : 0.0;
}

/// SolverService line (only when the run registers service.* instruments):
/// queue/in-flight/pool gauges plus the admission and resilience counters
/// — the at-a-glance answer to "is the service shedding or breaking?".
void render_service(const JsonValue& sample) {
  bool has_service = false;
  const double depth =
      metric_of(sample, "gauges", "service.queue_depth", &has_service);
  if (!has_service) return;
  std::printf("service: queue %.0f  in-flight %.0f  cached %.0f  "
              "breakers-open %.0f\n",
              depth, metric_of(sample, "gauges", "service.in_flight"),
              metric_of(sample, "gauges", "service.cached_hierarchies"),
              metric_of(sample, "gauges", "service.breakers_open"));
  std::printf("         ok %.0f  rejected %.0f (full %.0f, shed %.0f)  "
              "deadline %.0f  circuit %.0f  retries %.0f  degraded %.0f\n",
              metric_of(sample, "counters", "service.completed_ok"),
              metric_of(sample, "counters", "service.rejected"),
              metric_of(sample, "counters", "service.queue_full"),
              metric_of(sample, "counters", "service.shed"),
              metric_of(sample, "counters", "service.deadline_exceeded"),
              metric_of(sample, "counters", "service.circuit_open"),
              metric_of(sample, "counters", "service.retries"),
              metric_of(sample, "counters", "service.degraded"));
}

void render(const JsonValue& sample, bool follow) {
  if (follow) std::printf("\x1b[H\x1b[J");  // cursor home + clear screen
  std::printf("hpamg_top  seq=%llu  t=%.1fs\n",
              (unsigned long long)num(sample, "seq"),
              num(sample, "ts_ms") / 1e3);
  std::printf("%-6s %-9s %-6s %-20s %-11s %-7s %-8s %-5s %-8s\n", "RANK",
              "ITER", "LEVEL", "PHASE", "RELRES", "CONV", "AGE_MS", "WAIT",
              "BLOCKED");
  const JsonValue* ranks = sample.find("ranks");
  if (ranks == nullptr || !ranks->is_array() || ranks->items.empty()) {
    std::printf("(no active ranks)\n");
    render_service(sample);
    return;
  }
  for (const JsonValue& r : ranks->items) {
    const long rank = long(num(r, "rank", -1));
    const JsonValue* phase = r.find("phase");
    const JsonValue* waiting = r.find("waiting");
    char rank_cell[16];
    if (rank < 0)
      std::snprintf(rank_cell, sizeof(rank_cell), "host");
    else
      std::snprintf(rank_cell, sizeof(rank_cell), "%ld", rank);
    std::printf("%-6s %-9lld %-6lld %-20s %-11s %-7.3f %-8.0f %-5s %6.1f%%\n",
                rank_cell, (long long)num(r, "iteration", -1),
                (long long)num(r, "level", -1),
                phase != nullptr && phase->is_string() ? phase->text.c_str()
                                                       : "-",
                fmt_res(num(r, "relres", -1.0)).c_str(),
                num(r, "conv_factor"), num(r, "age_ms"),
                waiting != nullptr && waiting->boolean ? "yes" : "no",
                100.0 * num(r, "blocked_frac"));
  }
  render_service(sample);
}

// ------------------------------------------------------------------------
// --check: schema + monotonicity validation (the CI smoke gate)
// ------------------------------------------------------------------------

/// One line's structural check; returns an error message or "".
std::string check_sample(const JsonValue& v) {
  if (!v.is_object()) return "line is not a JSON object";
  for (const char* k : {"seq", "ts_ms"})
    if (const JsonValue* f = v.find(k); f == nullptr || !f->is_number())
      return std::string("missing/non-number field '") + k + "'";
  const JsonValue* ranks = v.find("ranks");
  if (ranks == nullptr || !ranks->is_array()) return "missing 'ranks' array";
  for (const JsonValue& r : ranks->items) {
    if (!r.is_object()) return "rank entry is not an object";
    for (const char* k :
         {"rank", "epoch", "age_ms", "iteration", "level", "blocked_s",
          "blocked_frac"})
      if (const JsonValue* f = r.find(k); f == nullptr || !f->is_number())
        return std::string("rank entry missing number '") + k + "'";
    // Residual-derived doubles round-trip NaN as null (same contract as
    // the bench report schema).
    for (const char* k : {"relres", "conv_factor"})
      if (const JsonValue* f = r.find(k);
          f == nullptr || !(f->is_number() || f->is_null()))
        return std::string("rank entry missing double '") + k + "'";
    if (const JsonValue* f = r.find("phase"); f == nullptr || !f->is_string())
      return "rank entry missing string 'phase'";
    if (const JsonValue* f = r.find("waiting");
        f == nullptr || !f->is_bool())
      return "rank entry missing bool 'waiting'";
    const double bf = num(r, "blocked_frac");
    if (bf < 0.0 || bf > 1.0) return "blocked_frac outside [0, 1]";
  }
  for (const char* k : {"counters", "gauges"}) {
    const JsonValue* obj = v.find(k);
    if (obj == nullptr || !obj->is_object())
      return std::string("missing '") + k + "' object";
    for (const auto& [name, field] : obj->members)
      if (!field.is_number() && !field.is_null())
        return std::string("non-number metric '") + name + "'";
  }
  return "";
}

/// Prometheus text-format sanity check: every non-comment line must be
/// `name{labels} value` with a well-formed metric name, every `# TYPE`
/// names a known type, and the file must not be empty (a torn rename or
/// truncated scrape would fail here).
int check_exposition(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::printf("check: no exposition file %s (ok if sampler never ticked)\n",
                path.c_str());
    return 0;
  }
  char line[4096];
  int lineno = 0, samples = 0, errors = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    std::size_t len = std::strlen(line);
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r'))
      line[--len] = '\0';
    if (len == 0) continue;
    if (line[0] == '#') {
      if (std::strncmp(line, "# TYPE ", 7) == 0 &&
          std::strstr(line, " counter") == nullptr &&
          std::strstr(line, " gauge") == nullptr &&
          std::strstr(line, " histogram") == nullptr) {
        std::printf("check: %s:%d: unknown TYPE: %s\n", path.c_str(), lineno,
                    line);
        ++errors;
      }
      continue;
    }
    // name[{labels}] value
    const char* p = line;
    if (!std::isalpha((unsigned char)*p) && *p != '_') {
      std::printf("check: %s:%d: bad metric name: %s\n", path.c_str(),
                  lineno, line);
      ++errors;
      continue;
    }
    while (std::isalnum((unsigned char)*p) || *p == '_' || *p == ':') ++p;
    if (*p == '{') {
      const char* close = std::strchr(p, '}');
      if (close == nullptr) {
        std::printf("check: %s:%d: unterminated labels: %s\n", path.c_str(),
                    lineno, line);
        ++errors;
        continue;
      }
      p = close + 1;
    }
    char* endp = nullptr;
    std::strtod(p, &endp);
    if (endp == p) {
      std::printf("check: %s:%d: missing value: %s\n", path.c_str(), lineno,
                  line);
      ++errors;
      continue;
    }
    ++samples;
  }
  std::fclose(f);
  if (samples == 0) {
    std::printf("check: %s has no samples\n", path.c_str());
    ++errors;
  }
  std::printf("check: %s: %d samples, %d errors\n", path.c_str(), samples,
              errors);
  return errors == 0 ? 0 : 1;
}

int check_stream(const std::string& path, const std::string& dir) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "hpamg top: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  int lines = 0, errors = 0;
  unsigned long long last_seq = 0;
  double last_ts = -1.0;
  char buf[65536];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ++lines;
    try {
      const JsonValue v = json_parse(buf);
      const std::string err = check_sample(v);
      if (!err.empty()) {
        std::printf("check: %s:%d: %s\n", path.c_str(), lines, err.c_str());
        ++errors;
        continue;
      }
      const auto seq = (unsigned long long)num(v, "seq");
      const double ts = num(v, "ts_ms");
      if (lines > 1 && seq != last_seq + 1) {
        std::printf("check: %s:%d: seq %llu after %llu (not contiguous)\n",
                    path.c_str(), lines, seq, last_seq);
        ++errors;
      }
      if (ts < last_ts) {
        std::printf("check: %s:%d: ts_ms went backwards (%.3f < %.3f)\n",
                    path.c_str(), lines, ts, last_ts);
        ++errors;
      }
      last_seq = seq;
      last_ts = ts;
    } catch (const std::exception& e) {
      std::printf("check: %s:%d: %s\n", path.c_str(), lines, e.what());
      ++errors;
    }
  }
  std::fclose(f);
  std::printf("check: %s: %d samples, %d errors\n", path.c_str(), lines,
              errors);
  if (lines == 0) {
    std::printf("check: stream is empty\n");
    ++errors;
  }
  int rc = errors == 0 ? 0 : 1;
  if (!dir.empty()) {
    const int prom_rc = check_exposition(dir + "/metrics.prom");
    if (prom_rc != 0) rc = prom_rc;
  }
  return rc;
}

// ------------------------------------------------------------------------
// Snapshot / follow
// ------------------------------------------------------------------------

/// Last complete line of the stream (the newest sample). Reads forward —
/// progress streams are small (one line per 50 ms).
bool last_line(const std::string& path, std::string* out, long* consumed) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[65536];
  bool any = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    const std::size_t len = std::strlen(buf);
    if (len == 0 || buf[len - 1] != '\n') break;  // torn tail; keep previous
    out->assign(buf, len);
    any = true;
  }
  if (consumed != nullptr) *consumed = std::ftell(f);
  std::fclose(f);
  return any;
}

}  // namespace

int top(int argc, char** argv) {
  const Args args = parse_args(argc, argv, {"check", "follow", "help"});
  const Cli& cli = args.cli;
  if (cli.positional().empty() || args.on("help")) {
    std::fprintf(stderr,
                 "usage: hpamg top <live-dir | progress.jsonl> "
                 "[--follow [--interval s]] [--check]\n");
    return args.on("help") ? 0 : 2;
  }
  const std::string arg = cli.positional()[0];
  struct stat st{};
  const bool is_dir = stat(arg.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
  const std::string path = is_dir ? arg + "/progress.jsonl" : arg;

  if (args.on("check"))
    return check_stream(path, is_dir ? arg : std::string());

  const bool follow = args.on("follow");
  const double interval = cli.get_double("interval", 0.2);
  long last_size = -1;
  do {
    std::string line;
    long size = 0;
    if (last_line(path, &line, &size)) {
      if (size != last_size) {
        last_size = size;
        try {
          render(json_parse(line), follow);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "hpamg top: %s\n", e.what());
          if (!follow) return 1;
        }
      }
    } else if (!follow) {
      std::fprintf(stderr, "hpamg top: no samples in %s\n", path.c_str());
      return 1;
    }
    if (follow)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval));
  } while (follow);
  return 0;
}

}  // namespace hpamg::tool
