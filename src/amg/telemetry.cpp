#include "amg/telemetry.hpp"

#include <cmath>

namespace hpamg {

void CycleTelemetryHook::begin_cycle(std::size_t nlevels) {
  level_seconds.assign(nlevels, 0.0);
  presmooth_norm2 = -1.0;
}

IterationReportEntry make_iteration_entry(Int iteration, double relres,
                                          double prev_relres, double seconds,
                                          double normb,
                                          const CycleTelemetryHook* hook) {
  IterationReportEntry e;
  e.iteration = iteration;
  e.relres = relres;
  e.conv_factor = prev_relres > 0.0 ? relres / prev_relres : 0.0;
  e.seconds = seconds;
  if (hook != nullptr) {
    e.level_seconds = hook->level_seconds;
    if (hook->presmooth_norm2 >= 0.0 && normb > 0.0) {
      e.presmooth_relres = std::sqrt(hook->presmooth_norm2) / normb;
      // How much of this cycle's contraction the fine pre-smoother alone
      // delivered (1.0 = smoother did nothing, smaller = more).
      e.smoother_contraction = prev_relres > 0.0
                                   ? e.presmooth_relres / prev_relres
                                   : -1.0;
    }
  }
  return e;
}

}  // namespace hpamg
