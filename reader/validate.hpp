// Schema validation for the BENCH_*.json envelope that support/report.hpp
// writes. Every bench self-checks its report with it before writing
// (bench_util.hpp's JsonSink), and `hpamg check` runs it on files.
#pragma once

#include <string>
#include <string_view>

namespace hpamg {

/// Validates a BENCH_*.json document against the envelope schema and, for
/// every run carrying a "report", the SolveReport schema. With
/// `require_solve`, at least one run must carry a report with >= 1
/// iteration (the CI perf-trajectory contract for the solver benches).
/// With `require_metrics`, the envelope must carry a "metrics" block (it
/// is validated whenever present). Returns "" when valid, else a
/// description of the first violation.
std::string validate_bench_report_json(std::string_view json_text,
                                       bool require_solve = false,
                                       bool require_metrics = false);

}  // namespace hpamg
