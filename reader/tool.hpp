// The `hpamg` artifact tool: one executable whose subcommands read back
// what the benches and the live layer write.
//
//   hpamg check  BENCH_*.json against the report schema (reader/validate)
//   hpamg diff   two reports, or two directories of them: the CI perf gate
//   hpamg trace  per-kernel, per-rank, message and flow tables of a trace
//   hpamg perf   a report merged with its trace into one diagnosis
//   hpamg top    render or check a live progress stream
//
// Each entry takes its subcommand's argv (argv[0] = the subcommand name)
// and returns the exit code: 0 ok, 1 invalid artifact or failed check,
// 2 usage or I/O error (diff also returns 2 on incomparable reports).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "support/cli.hpp"
#include "support/report.hpp"

namespace hpamg::tool {

/// Dispatches argv[1] to its subcommand; 2 when it names none.
int run(int argc, char** argv);

int check(int argc, char** argv);
int diff(int argc, char** argv);
int trace(int argc, char** argv);
int perf(int argc, char** argv);
int top(int argc, char** argv);

// ---- shared by the subcommands

struct Args {
  std::vector<std::string> switches;  ///< boolean flags given, sans "--"
  Cli cli;                            ///< everything else
  bool on(std::string_view sw) const;
};

/// Cli over argv after taking out the boolean `switches`: Cli reads the
/// token after a bare --flag as its value, which would swallow the
/// positional that follows.
Args parse_args(int argc, char** argv,
                std::initializer_list<std::string_view> switches);

/// Reads the whole file into `out`; false when it cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// obj[key] when it is a number, else `fallback`.
double num(const JsonValue& obj, const char* key, double fallback = 0.0);

/// Microseconds as a "%.3f" milliseconds cell.
std::string fmt_ms(double us);

}  // namespace hpamg::tool
