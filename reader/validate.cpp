#include "reader/validate.hpp"

#include <initializer_list>

#include "support/error.hpp"
#include "support/report.hpp"

namespace hpamg {

namespace {

/// Appends nothing and returns false on success; else fills `err`.
bool schema_fail(std::string& err, const std::string& what) {
  if (err.empty()) err = what;
  return false;
}

/// A measured-double field: a number, or `null` — the writer's encoding
/// of NaN/Inf (JsonWriter::value(double)). Structural integer fields
/// (levels, rows, counts) stay strict is_number().
bool is_double_field(const JsonValue* f) {
  return f != nullptr && (f->is_number() || f->is_null());
}

bool check_object_of_numbers(const JsonValue* v, const std::string& where,
                             std::string& err) {
  if (!v || !v->is_object())
    return schema_fail(err, where + " must be an object");
  for (const auto& [k, val] : v->members)
    if (!val.is_number() && !val.is_null())
      return schema_fail(err, where + "." + k + " must be a number");
  return true;
}

/// Fails on the first of `fields` that is not a number in `obj`, as
/// "<where>.<field> missing".
bool check_numbers(const JsonValue& obj,
                   std::initializer_list<const char*> fields,
                   const std::string& where, std::string& err) {
  for (const char* field : fields) {
    const JsonValue* f = obj.find(field);
    if (!f || !f->is_number())
      return schema_fail(err, where + "." + field + " missing");
  }
  return true;
}

bool check_counters(const JsonValue* v, const std::string& where,
                    std::string& err) {
  if (!v || !v->is_object())
    return schema_fail(err, where + " must be an object");
  return check_numbers(
      *v, {"flops", "bytes_read", "bytes_written", "branches", "hash_probes"},
      where, err);
}

bool check_solve_report(const JsonValue& rep, const std::string& where,
                        std::string& err) {
  if (!rep.is_object()) return schema_fail(err, where + " must be an object");
  for (const char* field : {"solver", "variant"}) {
    const JsonValue* f = rep.find(field);
    if (!f || !f->is_string())
      return schema_fail(err, where + "." + field + " missing");
  }

  const JsonValue* hier = rep.find("hierarchy");
  if (!hier || !hier->is_object())
    return schema_fail(err, where + ".hierarchy missing");
  if (!check_numbers(*hier,
                     {"num_levels", "operator_complexity", "grid_complexity"},
                     where + ".hierarchy", err))
    return false;
  const JsonValue* levels = hier->find("levels");
  if (!levels || !levels->is_array())
    return schema_fail(err, where + ".hierarchy.levels missing");
  for (std::size_t i = 0; i < levels->items.size(); ++i)
    if (!check_numbers(levels->items[i],
                       {"level", "rows", "nnz", "nnz_per_row", "coarse",
                        "interp_nnz", "operator_bytes", "interp_bytes",
                        "smoother_bytes", "workspace_bytes"},
                       where + ".hierarchy.levels[" + std::to_string(i) + "]",
                       err))
      return false;

  const JsonValue* phases = rep.find("phases");
  if (!phases || !phases->is_object())
    return schema_fail(err, where + ".phases missing");
  if (!check_object_of_numbers(phases->find("setup"), where + ".phases.setup",
                               err) ||
      !check_object_of_numbers(phases->find("solve"), where + ".phases.solve",
                               err))
    return false;

  const JsonValue* counters = rep.find("counters");
  if (!counters || !counters->is_object())
    return schema_fail(err, where + ".counters missing");
  if (!check_counters(counters->find("setup"), where + ".counters.setup",
                      err) ||
      !check_counters(counters->find("solve"), where + ".counters.solve",
                      err))
    return false;

  if (const JsonValue* comm = rep.find("comm")) {
    for (const char* side : {"setup", "solve"}) {
      const JsonValue* s = comm->find(side);
      if (!s || !s->is_object())
        return schema_fail(err, where + ".comm." + side + " missing");
      if (!check_numbers(*s,
                         {"messages_sent", "bytes_sent", "allreduces",
                          "request_setups", "persistent_starts"},
                         where + ".comm." + side, err))
        return false;
      const JsonValue* pp = s->find("per_peer");
      if (!pp || !pp->is_array())
        return schema_fail(err,
                           where + ".comm." + side + ".per_peer missing");
      for (const JsonValue& entry : pp->items) {
        if (!check_numbers(entry, {"peer", "messages", "bytes"},
                           where + ".comm." + side + ".per_peer[]", err))
          return false;
        if (const JsonValue* hist = entry.find("size_hist")) {
          if (!hist->is_array())
            return schema_fail(err, where + ".comm." + side +
                                        ".per_peer[].size_hist must be an "
                                        "array");
          for (const JsonValue& b : hist->items)
            if (!b.is_number())
              return schema_fail(err, where + ".comm." + side +
                                          ".per_peer[].size_hist entries "
                                          "must be numbers");
        }
      }
    }
  }

  if (const JsonValue* mem = rep.find("memory")) {
    if (!mem->is_object())
      return schema_fail(err, where + ".memory must be an object");
    if (!check_numbers(*mem, {"setup_bytes", "solve_bytes", "peak_rss_bytes"},
                       where + ".memory", err))
      return false;
  }

  if (const JsonValue* roof = rep.find("roofline")) {
    if (!roof->is_array())
      return schema_fail(err, where + ".roofline must be an array");
    for (std::size_t i = 0; i < roof->items.size(); ++i) {
      const JsonValue& e = roof->items[i];
      const std::string at =
          where + ".roofline[" + std::to_string(i) + "]";
      const JsonValue* kernel = e.find("kernel");
      if (!kernel || !kernel->is_string())
        return schema_fail(err, at + ".kernel missing");
      if (!check_numbers(e,
                         {"level", "calls", "seconds", "flops", "bytes",
                          "achieved_bw_bytes_per_s", "modeled_seconds",
                          "bw_fraction", "efficiency"},
                         at, err))
        return false;
      // The attribution contract: entries exist only for kernels that
      // moved bytes in measurable time, so both fractions land in (0, 1].
      for (const char* field : {"bw_fraction", "efficiency"}) {
        const double v = e.find(field)->number;
        if (!(v > 0.0 && v <= 1.0))
          return schema_fail(err, at + "." + field + " must be in (0, 1]");
      }
    }
  }

  if (const JsonValue* its = rep.find("iterations")) {
    if (!its->is_array())
      return schema_fail(err, where + ".iterations must be an array");
    for (std::size_t i = 0; i < its->items.size(); ++i) {
      const JsonValue& e = its->items[i];
      const std::string at =
          where + ".iterations[" + std::to_string(i) + "]";
      const JsonValue* itn = e.find("iteration");
      if (!itn || !itn->is_number())
        return schema_fail(err, at + ".iteration missing");
      // Residual-derived doubles go NaN in a diverged solve and are
      // written as null; the telemetry entry is still schema-valid.
      for (const char* field : {"relres", "conv_factor", "seconds"})
        if (!is_double_field(e.find(field)))
          return schema_fail(err, at + "." + field + " missing");
      const JsonValue* ls = e.find("level_seconds");
      if (!ls || !ls->is_array())
        return schema_fail(err, at + ".level_seconds missing");
      for (const JsonValue& s : ls->items)
        if (!s.is_number())
          return schema_fail(err,
                             at + ".level_seconds entries must be numbers");
      // Optional smoother-effectiveness fields (omitted when unmeasured).
      for (const char* field : {"presmooth_relres", "smoother_contraction"})
        if (const JsonValue* f = e.find(field))
          if (!is_double_field(f))
            return schema_fail(err, at + "." + field + " must be a number");
    }
  }

  const JsonValue* conv = rep.find("convergence");
  if (!conv || !conv->is_object())
    return schema_fail(err, where + ".convergence missing");
  const JsonValue* iters = conv->find("iterations");
  if (!iters || !iters->is_number())
    return schema_fail(err, where + ".convergence.iterations missing");
  const JsonValue* converged = conv->find("converged");
  if (!converged || !converged->is_bool())
    return schema_fail(err, where + ".convergence.converged missing");
  const JsonValue* hist = conv->find("residual_history");
  if (!hist || !hist->is_array())
    return schema_fail(err, where + ".convergence.residual_history missing");

  const JsonValue* status = rep.find("status");
  if (!status || !status->is_object())
    return schema_fail(err, where + ".status missing");
  const JsonValue* sname = status->find("status");
  if (!sname || !sname->is_string())
    return schema_fail(err, where + ".status.status missing");
  if (status_from_name(sname->text) == Status::kUnknown &&
      sname->text != "unknown")
    return schema_fail(err, where + ".status.status unknown value \"" +
                                sname->text + "\"");
  if (!check_numbers(*status, {"nonfinite_iteration", "recoveries"},
                     where + ".status", err))
    return false;
  const JsonValue* events = status->find("events");
  if (!events || !events->is_array())
    return schema_fail(err, where + ".status.events missing");
  for (const JsonValue& e : events->items)
    if (!e.is_string())
      return schema_fail(err,
                         where + ".status.events entries must be strings");

  const JsonValue* times = rep.find("times");
  if (!times || !times->is_object())
    return schema_fail(err, where + ".times missing");
  return check_numbers(*times,
                       {"setup_seconds", "solve_seconds",
                        "modeled_setup_seconds", "modeled_solve_seconds"},
                       where + ".times", err);
}

bool check_metrics_block(const JsonValue& m, std::string& err) {
  if (!m.is_object()) return schema_fail(err, "metrics must be an object");
  if (!check_numbers(m, {"threads"}, "metrics", err)) return false;
  const JsonValue* build = m.find("build");
  if (!build || !build->is_string())
    return schema_fail(err, "metrics.build missing");
  if (!check_numbers(m, {"peak_rss_bytes"}, "metrics", err)) return false;
  const JsonValue* net = m.find("net");
  if (!net || !net->is_object())
    return schema_fail(err, "metrics.net missing");
  if (!check_numbers(*net,
                     {"overhead_s", "peak_bw_bytes_per_s", "setup_cost_s",
                      "rendezvous_extra_s", "eager_limit_bytes"},
                     "metrics.net", err))
    return false;
  if (!check_object_of_numbers(m.find("counters"), "metrics.counters", err) ||
      !check_object_of_numbers(m.find("gauges"), "metrics.gauges", err))
    return false;
  const JsonValue* hists = m.find("histograms");
  if (!hists || !hists->is_object())
    return schema_fail(err, "metrics.histograms missing");
  for (const auto& [name, h] : hists->members) {
    if (!h.is_object())
      return schema_fail(err, "metrics.histograms." + name +
                                  " must be an object");
    if (!check_numbers(h, {"count", "sum"}, "metrics.histograms." + name,
                       err))
      return false;
    const JsonValue* buckets = h.find("buckets");
    if (!buckets || !buckets->is_array())
      return schema_fail(err, "metrics.histograms." + name +
                                  ".buckets missing");
    for (const JsonValue& b : buckets->items)
      if (!b.is_number())
        return schema_fail(err, "metrics.histograms." + name +
                                    ".buckets entries must be numbers");
  }
  return true;
}

}  // namespace

std::string validate_bench_report_json(std::string_view json_text,
                                       bool require_solve,
                                       bool require_metrics) {
  JsonValue root;
  try {
    root = json_parse(json_text);
  } catch (const std::exception& e) {
    return e.what();
  }
  std::string err;
  if (!root.is_object()) return "document must be an object";

  const JsonValue* ver = root.find("schema_version");
  if (!ver || !ver->is_number()) return "schema_version missing";
  if (long(ver->number) != BenchReport::kSchemaVersion)
    return "unsupported schema_version " + ver->text;

  const JsonValue* bench = root.find("bench");
  if (!bench || !bench->is_string() || bench->text.empty())
    return "bench (non-empty string) missing";

  const JsonValue* params = root.find("params");
  if (!params || !params->is_object()) return "params object missing";

  const JsonValue* metrics_block = root.find("metrics");
  if (require_metrics && !metrics_block) return "metrics block missing";
  if (metrics_block && !check_metrics_block(*metrics_block, err)) return err;

  const JsonValue* runs = root.find("runs");
  if (!runs || !runs->is_array()) return "runs array missing";
  if (runs->items.empty()) return "runs array is empty";

  bool any_solve = false;
  for (std::size_t i = 0; i < runs->items.size(); ++i) {
    const JsonValue& run = runs->items[i];
    const std::string where = "runs[" + std::to_string(i) + "]";
    if (!run.is_object()) return where + " must be an object";
    const JsonValue* name = run.find("name");
    if (!name || !name->is_string() || name->text.empty())
      return where + ".name missing";
    if (const JsonValue* metrics = run.find("metrics"))
      if (!check_object_of_numbers(metrics, where + ".metrics", err))
        return err;
    if (const JsonValue* labels = run.find("labels")) {
      if (!labels->is_object()) return where + ".labels must be an object";
      for (const auto& [k, v] : labels->members)
        if (!v.is_string()) return where + ".labels." + k + " must be a string";
      // Multi-RHS sweep points (labeled with a column count "m") must
      // carry the per-RHS amortization triple — the numbers the m-sweep
      // acceptance gate and `hpamg diff` read.
      if (labels->find("m")) {
        const JsonValue* metrics = run.find("metrics");
        for (const char* field : {"per_rhs_solve_seconds", "per_rhs_flops",
                                  "per_rhs_bytes"}) {
          const JsonValue* f = metrics ? metrics->find(field) : nullptr;
          if (!f || !f->is_number())
            return where + ".metrics." + field +
                   " missing (required for runs labeled with \"m\")";
        }
      }
    }
    if (const JsonValue* rep = run.find("report")) {
      if (!check_solve_report(*rep, where + ".report", err)) return err;
      const JsonValue* iters = rep->find("convergence")->find("iterations");
      if (iters->number >= 1.0) any_solve = true;
    }
  }
  if (require_solve && !any_solve)
    return "no run carries a solve report with >= 1 iteration";
  return "";
}

}  // namespace hpamg
