#include "reader/report_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "reader/validate.hpp"
#include "support/report.hpp"

namespace hpamg {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

/// Leaf key = the last dotted segment.
std::string_view leaf(std::string_view key) {
  const std::size_t dot = key.rfind('.');
  return dot == std::string_view::npos ? key : key.substr(dot + 1);
}

struct FlatMetric {
  std::string key;
  double value = 0.0;
};

/// Numeric members of `obj` appended under `prefix.`.
void flatten_numbers(const JsonValue* obj, const std::string& prefix,
                     std::vector<FlatMetric>& out) {
  if (!obj || !obj->is_object()) return;
  for (const auto& [k, v] : obj->members)
    if (v.is_number()) out.push_back({prefix + k, v.number});
}

/// The gate-relevant numeric leaves of one run object.
std::vector<FlatMetric> flatten_run(const JsonValue& run) {
  std::vector<FlatMetric> out;
  flatten_numbers(run.find("metrics"), "metrics.", out);
  const JsonValue* rep = run.find("report");
  if (!rep) return out;
  if (const JsonValue* hier = rep->find("hierarchy"))
    for (const char* f :
         {"num_levels", "operator_complexity", "grid_complexity"})
      if (const JsonValue* v = hier->find(f))
        if (v->is_number()) out.push_back({std::string("hierarchy.") + f,
                                           v->number});
  if (const JsonValue* phases = rep->find("phases")) {
    flatten_numbers(phases->find("setup"), "phases.setup.", out);
    flatten_numbers(phases->find("solve"), "phases.solve.", out);
  }
  if (const JsonValue* counters = rep->find("counters")) {
    flatten_numbers(counters->find("setup"), "counters.setup.", out);
    flatten_numbers(counters->find("solve"), "counters.solve.", out);
  }
  if (const JsonValue* comm = rep->find("comm")) {
    for (const char* side : {"setup", "solve"}) {
      const JsonValue* s = comm->find(side);
      if (!s || !s->is_object()) continue;
      for (const char* f : {"messages_sent", "bytes_sent", "allreduces",
                            "request_setups", "persistent_starts"})
        if (const JsonValue* v = s->find(f))
          if (v->is_number())
            out.push_back(
                {std::string("comm.") + side + "." + f, v->number});
    }
  }
  flatten_numbers(rep->find("memory"), "memory.", out);
  if (const JsonValue* conv = rep->find("convergence"))
    for (const char* f : {"iterations", "final_relres", "convergence_factor"})
      if (const JsonValue* v = conv->find(f))
        if (v->is_number())
          out.push_back({std::string("convergence.") + f, v->number});
  flatten_numbers(rep->find("times"), "times.", out);
  return out;
}

const FlatMetric* find_metric(const std::vector<FlatMetric>& ms,
                              const std::string& key) {
  for (const FlatMetric& m : ms)
    if (m.key == key) return &m;
  return nullptr;
}

const JsonValue* find_run(const JsonValue& runs, const std::string& name) {
  for (const JsonValue& r : runs.items) {
    const JsonValue* n = r.find("name");
    if (n && n->is_string() && n->text == name) return &r;
  }
  return nullptr;
}

}  // namespace

MetricClass classify_metric(std::string_view key) {
  const std::string_view l = leaf(key);
  // Environment-dependent values never gate.
  if (contains(l, "rss") || contains(key, "mem.")) return MetricClass::kInfo;
  // Ratios/speedups are derived and noisy in both directions. Suffix
  // matches only: "iterations" contains "ratio" as a substring.
  if (contains(l, "speedup") || ends_with(l, "ratio") ||
      ends_with(l, "reduction") || ends_with(l, "factor") ||
      ends_with(l, "fraction") || contains(l, "relres"))
    return MetricClass::kInfo;
  if (ends_with(l, "_seconds") || ends_with(l, "_s") || l == "seconds" ||
      ends_with(l, "_us") || ends_with(l, "_ms") ||
      contains(key, "phases.setup.") || contains(key, "phases.solve."))
    return MetricClass::kTiming;
  if (l == "iterations" || l == "num_levels" || ends_with(l, "flops") ||
      l == "branches" || l == "hash_probes" || l == "allreduces" ||
      l == "messages_sent" || l == "request_setups" ||
      l == "persistent_starts" || contains(l, "bytes") ||
      contains(l, "nnz") || ends_with(l, "complexity") ||
      ends_with(l, "_iters"))
    return MetricClass::kWork;
  return MetricClass::kInfo;
}

DiffResult diff_bench_reports(std::string_view old_json,
                              std::string_view new_json,
                              const DiffOptions& opts) {
  DiffResult res;
  const std::string err_old = validate_bench_report_json(old_json);
  if (!err_old.empty()) {
    res.error = "old report invalid: " + err_old;
    return res;
  }
  const std::string err_new = validate_bench_report_json(new_json);
  if (!err_new.empty()) {
    res.error = "new report invalid: " + err_new;
    return res;
  }
  const JsonValue doc_old = json_parse(old_json);
  const JsonValue doc_new = json_parse(new_json);

  const std::string bench_old = doc_old.find("bench")->text;
  const std::string bench_new = doc_new.find("bench")->text;
  if (bench_old != bench_new) {
    res.error = "bench mismatch: \"" + bench_old + "\" vs \"" + bench_new +
                "\" — not comparable";
    return res;
  }

  // Params present in BOTH documents must agree: a differing scale or rank
  // count makes every downstream number incomparable. Params only one side
  // has (schema growth) are fine.
  const JsonValue* params_old = doc_old.find("params");
  const JsonValue* params_new = doc_new.find("params");
  for (const auto& [k, v_old] : params_old->members) {
    const JsonValue* v_new = params_new->find(k);
    if (!v_new) continue;
    const bool same =
        v_old.kind == v_new->kind &&
        (v_old.is_number()
             ? std::abs(v_old.number - v_new->number) <=
                   1e-12 * std::max(std::abs(v_old.number), 1.0)
             : v_old.text == v_new->text);
    if (!same) {
      auto show = [](const JsonValue& v) {
        return v.is_number() ? std::to_string(v.number) : v.text;
      };
      res.error = "param \"" + k + "\" differs (" + show(v_old) + " vs " +
                  show(*v_new) + ") — not comparable";
      return res;
    }
  }

  const JsonValue* runs_old = doc_old.find("runs");
  const JsonValue* runs_new = doc_new.find("runs");

  auto push = [&res](MetricDelta d) {
    switch (d.verdict) {
      case MetricDelta::Verdict::kRegressed: ++res.regressions; break;
      case MetricDelta::Verdict::kImproved: ++res.improvements; break;
      case MetricDelta::Verdict::kMissing: ++res.missing; break;
      case MetricDelta::Verdict::kAdded: ++res.added; break;
      case MetricDelta::Verdict::kOk: break;
    }
    res.deltas.push_back(std::move(d));
  };

  for (const JsonValue& run_old : runs_old->items) {
    const std::string name = run_old.find("name")->text;
    const JsonValue* run_new = find_run(*runs_new, name);
    if (!run_new) {
      MetricDelta d;
      d.run = name;
      d.key = "(run)";
      d.verdict = MetricDelta::Verdict::kMissing;
      push(std::move(d));
      continue;
    }
    const std::vector<FlatMetric> ms_old = flatten_run(run_old);
    const std::vector<FlatMetric> ms_new = flatten_run(*run_new);
    for (const FlatMetric& m : ms_old) {
      MetricDelta d;
      d.run = name;
      d.key = m.key;
      d.old_value = m.value;
      d.cls = classify_metric(m.key);
      const FlatMetric* n = find_metric(ms_new, m.key);
      if (!n) {
        d.verdict = MetricDelta::Verdict::kMissing;
        push(std::move(d));
        continue;
      }
      d.new_value = n->value;
      if (d.cls == MetricClass::kInfo) {
        d.verdict = MetricDelta::Verdict::kOk;
      } else {
        const double tol = d.cls == MetricClass::kTiming ? opts.time_rel_tol
                                                         : opts.work_rel_tol;
        const bool sub_floor =
            d.cls == MetricClass::kTiming &&
            std::max(d.old_value, d.new_value) < opts.time_floor_seconds;
        const double base = std::max(std::abs(d.old_value), 1e-300);
        if (sub_floor)
          d.verdict = MetricDelta::Verdict::kOk;
        else if (d.new_value > d.old_value + tol * base)
          d.verdict = MetricDelta::Verdict::kRegressed;
        else if (d.new_value < d.old_value - tol * base)
          d.verdict = MetricDelta::Verdict::kImproved;
        else
          d.verdict = MetricDelta::Verdict::kOk;
      }
      push(std::move(d));
    }
    for (const FlatMetric& n : ms_new) {
      if (find_metric(ms_old, n.key)) continue;
      MetricDelta d;
      d.run = name;
      d.key = n.key;
      d.new_value = n.value;
      d.cls = classify_metric(n.key);
      d.verdict = MetricDelta::Verdict::kAdded;
      push(std::move(d));
    }
  }
  for (const JsonValue& run_new : runs_new->items) {
    const std::string name = run_new.find("name")->text;
    if (find_run(*runs_old, name)) continue;
    MetricDelta d;
    d.run = name;
    d.key = "(run)";
    d.verdict = MetricDelta::Verdict::kAdded;
    push(std::move(d));
  }
  // Envelope-level perf.* gauges (roofline efficiency per kernel) are
  // advisory: efficiency shifts with the host and with instrumentation
  // coverage, so they surface as info rows and never gate. A gauge present
  // only in the old document is skipped outright — removing instrumentation
  // must not read as a regression.
  {
    auto perf_gauges = [](const JsonValue& doc) {
      std::vector<FlatMetric> out;
      const JsonValue* m = doc.find("metrics");
      const JsonValue* gauges = m ? m->find("gauges") : nullptr;
      if (!gauges || !gauges->is_object()) return out;
      for (const auto& [k, v] : gauges->members)
        if (v.is_number() && k.rfind("perf.", 0) == 0) out.push_back({k, v.number});
      return out;
    };
    const std::vector<FlatMetric> g_old = perf_gauges(doc_old);
    const std::vector<FlatMetric> g_new = perf_gauges(doc_new);
    for (const FlatMetric& n : g_new) {
      MetricDelta d;
      d.run = "";
      d.key = n.key;
      d.new_value = n.value;
      d.cls = MetricClass::kInfo;
      const FlatMetric* o = find_metric(g_old, n.key);
      if (o) {
        d.old_value = o->value;
        d.verdict = MetricDelta::Verdict::kOk;
      } else {
        d.verdict = MetricDelta::Verdict::kAdded;
      }
      push(std::move(d));
    }
  }
  // Gate-relevant entries first, biggest relative change first.
  std::stable_sort(res.deltas.begin(), res.deltas.end(),
                   [](const MetricDelta& a, const MetricDelta& b) {
                     auto rank = [](const MetricDelta& d) {
                       switch (d.verdict) {
                         case MetricDelta::Verdict::kRegressed: return 0;
                         case MetricDelta::Verdict::kMissing: return 1;
                         case MetricDelta::Verdict::kImproved: return 2;
                         case MetricDelta::Verdict::kAdded: return 3;
                         case MetricDelta::Verdict::kOk: return 4;
                       }
                       return 4;
                     };
                     return rank(a) < rank(b);
                   });
  return res;
}

}  // namespace hpamg
