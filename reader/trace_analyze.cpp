#include "reader/trace_analyze.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "support/report.hpp"

namespace hpamg::trace_analyze {

namespace {

bool is_collective(const std::string& name) {
  return name == "mpi.barrier" || name == "mpi.allreduce" ||
         name == "mpi.allgather" || name == "mpi.alltoall";
}

double clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

Timeline parse_timeline(std::string_view json_text) {
  JsonValue doc;
  try {
    doc = json_parse(json_text);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("parse error: ") + e.what());
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    throw std::invalid_argument("traceEvents array missing");
  Timeline t;
  auto expect = [&t](bool ok, const char* problem) {
    if (!ok) t.problems.emplace_back(problem);
  };
  const JsonValue* other = doc.find("otherData");
  expect(doc.find("displayTimeUnit") != nullptr, "displayTimeUnit missing");
  expect(other != nullptr && other->is_object(), "otherData missing");

  std::map<std::pair<int, int>, double> last_ts;  // per-track monotonicity
  std::set<long long> duplicate_ids;
  for (const JsonValue& e : events->items) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const int pid = e.find("pid") ? int(e.find("pid")->number) : 0;
    const int tid = e.find("tid") ? int(e.find("tid")->number) : 0;
    if (ph->text == "M") {
      const JsonValue* name = e.find("name");
      const JsonValue* args = e.find("args");
      if (name && name->text == "process_name" && args)
        if (const JsonValue* n = args->find("name"))
          t.process_names[pid] = n->text;
      continue;
    }
    const JsonValue* ts = e.find("ts");
    expect(ts != nullptr && ts->is_number(), "event without ts");
    if (ts == nullptr || !ts->is_number()) continue;
    double& prev = last_ts[{pid, tid}];
    expect(ts->number + 1e-9 >= prev,
           "non-monotonic timestamps within a track");
    prev = std::max(prev, ts->number);
    if (ph->text == "X") {
      SpanRec s;
      const JsonValue* name = e.find("name");
      s.name = name ? name->text : "";
      s.cat = e.find("cat") ? e.find("cat")->text : "";
      s.pid = pid;
      s.tid = tid;
      s.ts_us = ts->number;
      const JsonValue* dur = e.find("dur");
      expect(dur != nullptr && dur->is_number(), "span without dur");
      s.dur_us = dur ? dur->number : 0.0;
      expect(s.dur_us >= 0.0, "negative span duration");
      t.spans.push_back(std::move(s));
    } else if (ph->text == "s" || ph->text == "f") {
      const JsonValue* id = e.find("id");
      expect(id != nullptr && id->is_number(), "flow event without id");
      if (id == nullptr || !id->is_number()) continue;
      auto& pair = t.flows[(long long)id->number];
      FlowEnd& end = ph->text == "s" ? pair.first : pair.second;
      if (end.present) {
        ++t.duplicate_flow_ids;
        duplicate_ids.insert((long long)id->number);
        continue;
      }
      end.present = true;
      end.pid = pid;
      end.tid = tid;
      end.ts_us = ts->number;
      if (const JsonValue* args = e.find("args"))
        if (const JsonValue* bytes = args->find("bytes"))
          end.bytes = (long long)bytes->number;
    }
  }
  if (other != nullptr) {
    if (const JsonValue* d = other->find("dropped_events"))
      t.dropped_total = (long long)d->number;
    if (const JsonValue* by_track = other->find("dropped_by_track")) {
      long long sum = 0;
      for (const auto& [track, n] : by_track->members) {
        t.dropped_by_track[track] = (long long)n.number;
        sum += (long long)n.number;
      }
      expect(sum == t.dropped_total,
             "dropped_by_track does not sum to dropped_events");
    }
  }
  t.problems.insert(t.problems.end(), duplicate_ids.size(),
                    "duplicate flow id (multiple sends or recvs)");
  bool unmatched = false;
  for (const auto& [id, pair] : t.flows)
    unmatched = unmatched || !pair.first.present || !pair.second.present;
  // A half-arrow with nothing dropped means the tracer lost an event.
  expect(t.dropped_total > 0 || !unmatched,
         "unmatched flow arrows in a trace reporting zero drops");
  return t;
}

Analysis analyze(const Timeline& tl) {
  Analysis out;
  for (const auto& [id, pair] : tl.flows)
    if (!pair.first.present || !pair.second.present) ++out.unmatched_flows;

  // ---- self time: start-sorted, parents first, nested durations
  // subtracted from the innermost parent (so "blocked" time inside
  // mpi.recv is not also counted as compute in the enclosing kernel).
  std::vector<SpanRec> spans = tl.spans;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  {
    std::vector<SpanRec*> stack;
    for (SpanRec& s : spans) {
      while (!stack.empty() &&
             (stack.back()->pid != s.pid || stack.back()->tid != s.tid ||
              stack.back()->ts_us + stack.back()->dur_us <= s.ts_us))
        stack.pop_back();
      s.self_us = s.dur_us;
      KernelTime& k = out.kernel_times[s.name];
      ++k.count;
      k.total_us += s.dur_us;
      k.self_us += s.dur_us;
      if (!stack.empty()) {
        stack.back()->self_us -= s.dur_us;
        out.kernel_times[stack.back()->name].self_us -= s.dur_us;
      }
      stack.push_back(&s);
    }
  }

  std::map<int, RankWait> ranks;
  auto rank = [&](int pid) -> RankWait& {
    RankWait& r = ranks[pid];
    if (r.name.empty()) {
      r.pid = pid;
      auto it = tl.process_names.find(pid);
      r.name = it != tl.process_names.end() ? it->second
                                            : "pid " + std::to_string(pid);
    }
    return r;
  };

  // ---- recv-side flow endpoints per track, for matching a blocked
  // mpi.recv span to the arrow completed inside it.
  struct TrackFlow {
    double ts_us;
    long long id;
    bool consumed = false;
  };
  std::map<std::pair<int, int>, std::vector<TrackFlow>> recv_ends, send_ends;
  for (const auto& [id, pair] : tl.flows) {
    if (pair.second.present)
      recv_ends[{pair.second.pid, pair.second.tid}].push_back(
          {pair.second.ts_us, id});
    if (pair.first.present)
      send_ends[{pair.first.pid, pair.first.tid}].push_back(
          {pair.first.ts_us, id});
  }
  for (auto* ends : {&recv_ends, &send_ends})
    for (auto& [track, v] : *ends)
      std::sort(v.begin(), v.end(),
                [](const TrackFlow& a, const TrackFlow& b) {
                  return a.ts_us < b.ts_us;
                });

  // First unconsumed flow endpoint inside [ts, ts+dur] on `track`;
  // nullptr when none.
  auto take_flow_in = [](std::vector<TrackFlow>& v, double ts,
                         double end) -> TrackFlow* {
    auto it = std::lower_bound(v.begin(), v.end(), ts,
                               [](const TrackFlow& f, double t) {
                                 return f.ts_us < t;
                               });
    for (; it != v.end() && it->ts_us <= end; ++it)
      if (!it->consumed) {
        it->consumed = true;
        return &*it;
      }
    return nullptr;
  };

  // ---- classification. Collectives need cross-rank alignment, so they
  // are collected first and distributed in a second pass.
  struct CollSpan {
    const SpanRec* s;
    bool aligned = false;
  };
  std::map<std::string, std::map<int, std::vector<CollSpan>>> collectives;
  // Matched recv spans, kept for the critical-path walk:
  // (recv pid, recv span end, send pid, send ts).
  struct Hop {
    int pid;
    double span_ts, span_end;
    int send_pid;
    double send_ts;
  };
  std::vector<Hop> hops;

  std::map<std::string, std::map<int, double>> kernel_self;  // name->pid->us

  for (SpanRec& s : spans) {
    const double self = std::max(0.0, s.self_us);
    RankWait& r = rank(s.pid);
    kernel_self[s.name][s.pid] += self;
    if (s.cat != "blocked") {
      r.compute_us += s.self_us;
      continue;
    }
    r.blocked_us += s.self_us;
    const double end = s.ts_us + s.dur_us;
    const double scale = s.dur_us > 0.0 ? self / s.dur_us : 0.0;
    if (is_collective(s.name)) {
      collectives[s.name][s.pid].push_back({&s});
      continue;  // distributed below
    }
    if (s.name == "mpi.recv") {
      auto it = recv_ends.find({s.pid, s.tid});
      TrackFlow* f =
          it != recv_ends.end() ? take_flow_in(it->second, s.ts_us, end)
                                : nullptr;
      const FlowEnd* send =
          f != nullptr ? &tl.flows.at(f->id).first : nullptr;
      if (send != nullptr && send->present) {
        // Receiver entered at ts; the sender's arrow left at send->ts_us.
        // Time before the send is late-sender wait; the rest is transfer.
        const double wait = clamp(send->ts_us - s.ts_us, 0.0, s.dur_us);
        r.late_sender_us += wait * scale;
        r.transfer_us += self - wait * scale;
        hops.push_back({s.pid, s.ts_us, end, send->pid, send->ts_us});
      } else {
        r.unattributed_us += self;  // half-arrow: ring wraparound
      }
      continue;
    }
    if (s.name == "mpi.send") {
      // A blocking send: its own arrow leaves inside the span; the peer's
      // recv completion stamps when the receiver finally took it.
      auto it = send_ends.find({s.pid, s.tid});
      TrackFlow* f =
          it != send_ends.end() ? take_flow_in(it->second, s.ts_us, end)
                                : nullptr;
      const FlowEnd* recv =
          f != nullptr ? &tl.flows.at(f->id).second : nullptr;
      if (recv != nullptr && recv->present) {
        const double wait = clamp(recv->ts_us - s.ts_us, 0.0, s.dur_us);
        r.late_receiver_us += wait * scale;
        r.transfer_us += self - wait * scale;
      } else {
        r.unattributed_us += self;
      }
      continue;
    }
    r.unattributed_us += self;  // unknown blocked span
  }

  // ---- collectives: align the k-th instance counted from the END of each
  // rank's sequence (newest-wins rings drop the oldest events, so the tail
  // instances are the ones every rank still has).
  for (auto& [name, by_pid] : collectives) {
    std::size_t common = 0;
    bool first = true;
    for (const auto& [pid, v] : by_pid) {
      common = first ? v.size() : std::min(common, v.size());
      first = false;
    }
    if (by_pid.size() < 2) common = 0;  // nothing to align against
    for (std::size_t j = 0; j < common; ++j) {
      double last_enter = 0.0;
      for (const auto& [pid, v] : by_pid)
        last_enter = std::max(last_enter,
                              v[v.size() - common + j].s->ts_us);
      for (auto& [pid, v] : by_pid) {
        CollSpan& c = v[v.size() - common + j];
        c.aligned = true;
        const SpanRec& s = *c.s;
        const double self = std::max(0.0, s.self_us);
        const double scale = s.dur_us > 0.0 ? self / s.dur_us : 0.0;
        const double wait = clamp(last_enter - s.ts_us, 0.0, s.dur_us);
        RankWait& r = rank(pid);
        r.wait_collective_us += wait * scale;
        r.transfer_us += self - wait * scale;
      }
    }
    for (auto& [pid, v] : by_pid)
      for (CollSpan& c : v)
        if (!c.aligned)
          rank(pid).unattributed_us += std::max(0.0, c.s->self_us);
  }

  for (auto& [pid, r] : ranks) out.ranks.push_back(r);

  // ---- per-kernel load imbalance across ranks.
  for (const auto& [name, by_pid] : kernel_self) {
    if (by_pid.size() < 2) continue;
    KernelImbalance k;
    k.kernel = name;
    double sum = 0.0;
    for (const auto& [pid, us] : by_pid) {
      sum += us;
      if (us > k.max_us) {
        k.max_us = us;
        k.max_pid = pid;
      }
      ++k.ranks;
    }
    k.avg_us = sum / double(k.ranks);
    k.imbalance = k.avg_us > 0.0 ? k.max_us / k.avg_us : 0.0;
    out.kernels.push_back(std::move(k));
  }
  std::stable_sort(out.kernels.begin(), out.kernels.end(),
                   [](const KernelImbalance& a, const KernelImbalance& b) {
                     return a.imbalance != b.imbalance
                                ? a.imbalance > b.imbalance
                                : a.max_us > b.max_us;
                   });

  // ---- critical path: backward replay from the latest span end. On each
  // rank, walk back to the most recent matched recv whose sender was late,
  // then hop to the sender at its send timestamp. Approximate (segments
  // may include other waits), but the hop structure is exact.
  std::map<int, double> first_ts;
  int cur_pid = -1;
  double cur_t = 0.0;
  for (const SpanRec& s : spans) {
    auto [it, fresh] = first_ts.try_emplace(s.pid, s.ts_us);
    if (!fresh) it->second = std::min(it->second, s.ts_us);
    if (s.ts_us + s.dur_us > cur_t || cur_pid < 0) {
      cur_t = s.ts_us + s.dur_us;
      cur_pid = s.pid;
    }
  }
  std::sort(hops.begin(), hops.end(), [](const Hop& a, const Hop& b) {
    return a.span_end < b.span_end;
  });
  for (int step = 0; cur_pid >= 0 && step < 10000; ++step) {
    const Hop* best = nullptr;
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
      if (it->pid != cur_pid) continue;
      if (it->span_end > cur_t) continue;
      if (it->send_pid == cur_pid) continue;
      if (it->send_ts >= cur_t || it->send_ts <= it->span_ts) continue;
      best = &*it;
      break;  // hops sorted ascending; reverse scan finds the latest
    }
    if (best == nullptr) {
      const double start =
          first_ts.count(cur_pid) ? std::min(first_ts[cur_pid], cur_t)
                                  : cur_t;
      out.critical_path.push_back({cur_pid, start, cur_t});
      break;
    }
    if (cur_t > best->span_end)
      out.critical_path.push_back({cur_pid, best->span_end, cur_t});
    out.critical_transfer_us +=
        std::max(0.0, best->span_end - best->send_ts);
    cur_t = best->send_ts;
    cur_pid = best->send_pid;
  }
  std::reverse(out.critical_path.begin(), out.critical_path.end());
  for (const CriticalSegment& seg : out.critical_path)
    out.critical_path_us += seg.end_us - seg.start_us;
  out.critical_path_us += out.critical_transfer_us;
  return out;
}

}  // namespace hpamg::trace_analyze
