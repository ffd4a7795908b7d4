#include "perfmodel/attrib.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "perfmodel/network.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg::attrib {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::pair<std::string, int>, KernelStats> cells;
  MachineModel model = endeavor_rank();
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void record(std::string_view kernel, int level, double seconds,
            const WorkCounters& wc) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  KernelStats& s = r.cells[{std::string(kernel), level}];
  ++s.calls;
  s.seconds += seconds;
  s.work += wc;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.cells.clear();
}

void set_machine(const MachineModel& m) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.model = m;
}

MachineModel machine() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.model;
}

std::vector<RooflineEntry> snapshot(const MachineModel& m) {
  std::map<std::pair<std::string, int>, KernelStats> cells;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    cells = r.cells;
  }
  std::vector<RooflineEntry> out;
  const double bw_roof = m.stream_bw_bytes_per_s * m.sparse_efficiency;
  for (const auto& [key, s] : cells) {
    // Zero bytes (counter-less call) or zero time (clock resolution)
    // would produce meaningless fractions; skip rather than fabricate.
    if (s.work.bytes_total() == 0 || s.seconds <= 0.0) continue;
    RooflineEntry e;
    e.kernel = key.first;
    e.level = key.second;
    e.calls = s.calls;
    e.seconds = s.seconds;
    e.flops = s.work.flops;
    e.bytes = s.work.bytes_total();
    e.achieved_bw_bytes_per_s = double(e.bytes) / e.seconds;
    e.modeled_seconds = m.seconds(s.work);
    e.bw_fraction =
        std::min(1.0, e.achieved_bw_bytes_per_s / std::max(bw_roof, 1.0));
    e.efficiency =
        std::min(1.0, e.modeled_seconds / std::max(e.seconds, 1e-300));
    if (e.bw_fraction <= 0.0 || e.efficiency <= 0.0) continue;
    out.push_back(std::move(e));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RooflineEntry& a, const RooflineEntry& b) {
                     return a.seconds > b.seconds;
                   });
  return out;
}

std::vector<RooflineEntry> snapshot() { return snapshot(machine()); }

void publish_metrics(const std::vector<RooflineEntry>& entries) {
  if (!metrics::enabled()) return;
  // Level-summed per kernel: the gauges are for `hpamg diff` trend lines, and
  // a per-level explosion there would drown the envelope diff.
  std::map<std::string, RooflineEntry> by_kernel;
  for (const RooflineEntry& e : entries) {
    RooflineEntry& k = by_kernel[e.kernel];
    k.seconds += e.seconds;
    k.bytes += e.bytes;
    k.modeled_seconds += e.modeled_seconds;
  }
  for (const auto& [name, k] : by_kernel) {
    if (k.seconds <= 0.0) continue;
    const std::string base = "perf.kernel." + name;
    metrics::gauge(base + ".seconds").set(k.seconds);
    const MachineModel m = machine();
    const double bw_roof =
        std::max(m.stream_bw_bytes_per_s * m.sparse_efficiency, 1.0);
    metrics::gauge(base + ".bw_fraction")
        .set(std::min(1.0, double(k.bytes) / k.seconds / bw_roof));
    metrics::gauge(base + ".efficiency")
        .set(std::min(1.0, k.modeled_seconds / k.seconds));
  }
}

bool load_calibration_json(std::string_view json_text, MachineModel* mm,
                           NetworkModel* nm, std::string* err) {
  JsonValue doc;
  try {
    doc = json_parse(json_text);
  } catch (const std::exception& e) {
    if (err != nullptr) *err = e.what();
    return false;
  }
  if (!doc.is_object()) {
    if (err != nullptr) *err = "calibration: top level is not an object";
    return false;
  }
  auto num = [err](const JsonValue& obj, const char* key, double* out) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return true;  // optional: keep the default
    if (!v->is_number()) {
      if (err != nullptr)
        *err = std::string("calibration: ") + key + " is not a number";
      return false;
    }
    *out = v->number;
    return true;
  };
  MachineModel m = mm != nullptr ? *mm : endeavor_rank();
  NetworkModel n = nm != nullptr ? *nm : NetworkModel{};
  if (const JsonValue* jm = doc.find("machine")) {
    if (!jm->is_object()) {
      if (err != nullptr) *err = "calibration: machine is not an object";
      return false;
    }
    if (const JsonValue* name = jm->find("name"))
      if (name->is_string()) m.name = name->text;
    if (!num(*jm, "stream_bw_bytes_per_s", &m.stream_bw_bytes_per_s) ||
        !num(*jm, "peak_flops", &m.peak_flops) ||
        !num(*jm, "sparse_efficiency", &m.sparse_efficiency) ||
        !num(*jm, "branch_miss_cost_s", &m.branch_miss_cost_s) ||
        !num(*jm, "branch_miss_rate", &m.branch_miss_rate))
      return false;
    if (m.stream_bw_bytes_per_s <= 0.0 || m.peak_flops <= 0.0) {
      if (err != nullptr)
        *err = "calibration: machine bandwidth/flops must be positive";
      return false;
    }
  }
  if (const JsonValue* jn = doc.find("network")) {
    if (!jn->is_object()) {
      if (err != nullptr) *err = "calibration: network is not an object";
      return false;
    }
    double eager = double(n.eager_limit_bytes);
    if (!num(*jn, "overhead_s", &n.overhead_s) ||
        !num(*jn, "peak_bw_bytes_per_s", &n.peak_bw_bytes_per_s) ||
        !num(*jn, "setup_cost_s", &n.setup_cost_s) ||
        !num(*jn, "rendezvous_extra_s", &n.rendezvous_extra_s) ||
        !num(*jn, "eager_limit_bytes", &eager))
      return false;
    n.eager_limit_bytes = std::uint64_t(eager);
  }
  if (mm != nullptr) *mm = m;
  if (nm != nullptr) *nm = n;
  return true;
}

Probe::Probe(const char* kernel, int level, const char* phase,
             PhaseTimes* pt, double* level_seconds, const WorkCounters* wc,
             Clock clock)
    : kernel_(kernel), phase_(phase), pt_(pt), level_seconds_(level_seconds),
      wc_(wc), level_(level), clock_(clock), record_(metrics::enabled()),
      trace_(trace::enabled()) {
  active_ = pt_ != nullptr || level_seconds_ != nullptr || record_ || trace_;
  if (!active_) return;
  if (record_ && wc_ != nullptr) start_ = *wc_;
  if (trace_ && clock_ == Clock::kCpu) wall0_ = clock_ns(Clock::kWall);
  t0_ = clock_ns(clock_);
  if (clock_ == Clock::kWall) wall0_ = t0_;
}

void Probe::set_work(const WorkCounters& wc) {
  analytic_ = wc;
  analytic_set_ = true;
}

void Probe::finish() {
  if (!active_) return;
  active_ = false;
  const std::uint64_t t1 = clock_ns(clock_);
  const double sec = double(t1 - t0_) * 1e-9;
  if (pt_ != nullptr) pt_->add(phase_, sec);
  if (level_seconds_ != nullptr) *level_seconds_ += sec;
  if (record_ && (wc_ != nullptr || analytic_set_)) {
    WorkCounters delta = analytic_;
    if (wc_ != nullptr) {
      delta = *wc_;
      delta.flops -= start_.flops;
      delta.bytes_read -= start_.bytes_read;
      delta.bytes_written -= start_.bytes_written;
      delta.branches -= start_.branches;
      delta.hash_probes -= start_.hash_probes;
    }
    record(kernel_, level_, sec, delta);
  }
  if (trace_)
    trace::complete(kernel_, wall0_,
                    clock_ == Clock::kWall ? t1 : clock_ns(Clock::kWall),
                    level_);
}

}  // namespace hpamg::attrib
