// Tracer coverage: ring wraparound, concurrent rank writers, flow pairing,
// the Chrome trace-event golden schema (mirroring test_report.cpp), and
// agreement between trace flow events and the simmpi CommStats counters.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dist/simmpi.hpp"
#include "support/report.hpp"
#include "support/trace.hpp"

namespace hpamg {
namespace {

/// Fresh tracer state for each test (tests in one binary run serially).
void restart_tracing(std::size_t events_per_thread = 0) {
  trace::disable();
  trace::reset();
  trace::enable(events_per_thread);
}

JsonValue export_parsed() { return json_parse(trace::export_chrome_json()); }

std::vector<std::string> member_names(const JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& [k, _] : v.members) out.push_back(k);
  return out;
}

TEST(Trace, DisabledRecordsNothing) {
  trace::disable();
  trace::reset();
  ASSERT_FALSE(trace::enabled());
  {
    TRACE_SPAN("should.not.appear");
    trace::instant("nor.this");
    trace::counter("c", "v", 1);
  }
  const trace::TraceStats s = trace::stats();
  EXPECT_EQ(s.recorded, 0u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(Trace, RingWraparoundKeepsNewest) {
  restart_tracing(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) trace::counter("wrap", "i", i);
  trace::disable();

  const trace::TraceStats s = trace::stats();
  EXPECT_EQ(s.recorded, 8u);
  EXPECT_EQ(s.dropped, 12u);

  // The survivors must be exactly the 8 newest samples, still in order.
  JsonValue v = export_parsed();
  std::vector<int> seen;
  for (const JsonValue& e : v.find("traceEvents")->items)
    if (e.find("ph")->text == "C")
      seen.push_back(int(e.find("args")->find("i")->number));
  EXPECT_EQ(seen, (std::vector<int>{12, 13, 14, 15, 16, 17, 18, 19}));
  EXPECT_DOUBLE_EQ(v.find("otherData")->find("dropped_events")->number, 12.0);
}

TEST(Trace, SpanNesting) {
  restart_tracing();
  {
    TRACE_SPAN("outer");
    TRACE_SPAN("inner", std::int64_t(3));
  }
  trace::disable();
  JsonValue v = export_parsed();
  std::map<std::string, const JsonValue*> spans;
  for (const JsonValue& e : v.find("traceEvents")->items)
    if (e.find("ph")->text == "X") spans[e.find("name")->text] = &e;
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by begin ts with parents first; the outer span covers the inner.
  EXPECT_LE(spans["outer"]->find("ts")->number,
            spans["inner"]->find("ts")->number);
  EXPECT_GE(spans["outer"]->find("dur")->number,
            spans["inner"]->find("dur")->number);
  EXPECT_DOUBLE_EQ(spans["inner"]->find("args")->find("level")->number, 3.0);
}

TEST(Trace, ConcurrentRankWritersMergeMonotonic) {
  restart_tracing();
  constexpr int kRanks = 4;
  simmpi::run(kRanks, [](simmpi::Comm& c) {
    for (int round = 0; round < 50; ++round) {
      TRACE_SPAN("work");
      const int peer = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      double v = round;
      c.send(peer, 100, &v, sizeof v);
      (void)c.recv(prev, 100);
      c.barrier();
    }
  });
  trace::disable();

  JsonValue v = export_parsed();
  std::map<std::pair<int, int>, double> last_ts;
  std::set<int> pids;
  for (const JsonValue& e : v.find("traceEvents")->items) {
    if (e.find("ph")->text == "M") continue;
    const int pid = int(e.find("pid")->number);
    const int tid = int(e.find("tid")->number);
    pids.insert(pid);
    double& prev = last_ts[{pid, tid}];
    EXPECT_GE(e.find("ts")->number, prev)
        << "track (" << pid << "," << tid << ") not time-sorted";
    prev = std::max(prev, e.find("ts")->number);
  }
  EXPECT_EQ(pids.size(), std::size_t(kRanks));  // one process row per rank
}

TEST(Trace, FlowIdsPairUp) {
  restart_tracing();
  std::vector<simmpi::CommStats> stats =
      simmpi::run(2, [](simmpi::Comm& c) {
        for (int i = 0; i < 10; ++i) {
          double v = i;
          c.send(1 - c.rank(), 200, &v, sizeof v);
          (void)c.recv(1 - c.rank(), 200);
        }
      });
  trace::disable();

  JsonValue v = export_parsed();
  std::map<long long, std::pair<int, int>> flows;  // id -> (sends, recvs)
  for (const JsonValue& e : v.find("traceEvents")->items) {
    const std::string& ph = e.find("ph")->text;
    if (ph == "s")
      ++flows[(long long)e.find("id")->number].first;
    else if (ph == "f")
      ++flows[(long long)e.find("id")->number].second;
  }
  std::uint64_t expected = 0;
  for (const simmpi::CommStats& s : stats) expected += s.messages_sent;
  EXPECT_EQ(flows.size(), expected);
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts.first, 1) << "flow " << id;
    EXPECT_EQ(counts.second, 1) << "flow " << id;
  }
}

TEST(Trace, FlowTotalsAgreeWithCommStats) {
  restart_tracing();
  std::vector<simmpi::CommStats> stats =
      simmpi::run(3, [](simmpi::Comm& c) {
        // Uneven traffic so per-peer accounting is distinguishable.
        std::vector<char> payload(64 * (c.rank() + 1));
        for (int r = 0; r < c.size(); ++r) {
          if (r == c.rank()) continue;
          c.send(r, 300, payload.data(), payload.size());
        }
        for (int r = 0; r < c.size(); ++r) {
          if (r == c.rank()) continue;
          (void)c.recv(r, 300);
        }
        (void)c.allreduce_sum(1.0);
      });
  trace::disable();

  std::uint64_t report_msgs = 0, report_bytes = 0;
  for (const simmpi::CommStats& s : stats) {
    report_msgs += s.messages_sent;
    report_bytes += s.bytes_sent;
    // per_peer splits must sum back to the rank totals.
    std::uint64_t peer_msgs = 0, peer_bytes = 0;
    for (const simmpi::PeerTraffic& p : s.per_peer) {
      peer_msgs += p.messages;
      peer_bytes += p.bytes;
    }
    EXPECT_EQ(peer_msgs, s.messages_sent);
    EXPECT_EQ(peer_bytes, s.bytes_sent);
  }

  std::uint64_t trace_msgs = 0, trace_bytes = 0;
  JsonValue v = export_parsed();
  for (const JsonValue& e : v.find("traceEvents")->items)
    if (e.find("ph")->text == "s") {
      ++trace_msgs;
      trace_bytes += std::uint64_t(e.find("args")->find("bytes")->number);
    }
  EXPECT_EQ(trace_msgs, report_msgs);
  EXPECT_EQ(trace_bytes, report_bytes);
}

TEST(Trace, DeltaSince) {
  simmpi::CommStats before, after;
  before.messages_sent = 2;
  before.bytes_sent = 100;
  before.per_peer = {{1, 50}, {1, 50}};
  after.messages_sent = 5;
  after.bytes_sent = 400;
  after.allreduces = 3;
  after.per_peer = {{2, 150}, {3, 250}};
  const simmpi::CommStats d = after.delta_since(before);
  EXPECT_EQ(d.messages_sent, 3u);
  EXPECT_EQ(d.bytes_sent, 300u);
  EXPECT_EQ(d.allreduces, 3u);
  ASSERT_EQ(d.per_peer.size(), 2u);
  EXPECT_EQ(d.per_peer[0].messages, 1u);
  EXPECT_EQ(d.per_peer[1].bytes, 200u);
}

// ---------------------------------------------------------- golden schema --

TEST(TraceSchema, GoldenFieldNames) {
  // The trace JSON is consumed by Perfetto/chrome://tracing and by
  // reader/trace_analyze.cpp; renaming any field breaks both. This test
  // makes that a deliberate act (mirroring test_report.cpp).
  restart_tracing();
  trace::set_thread_track(1, "rank 0", "rank 0");
  trace::set_metadata("bench", "unit");
  {
    TRACE_SPAN("span.name", "kernel", "rows", std::int64_t(7));
  }
  trace::instant("mark");
  trace::counter("work", "flops", 42);
  const std::uint64_t id = trace::next_flow_id();
  trace::flow_out("msg", id, 1, 64);
  trace::flow_in("msg", id, 0, 64);
  trace::disable();

  JsonValue v = export_parsed();
  EXPECT_EQ(member_names(v), (std::vector<std::string>{
                                 "traceEvents", "displayTimeUnit",
                                 "otherData"}));
  EXPECT_EQ(v.find("displayTimeUnit")->text, "ms");
  EXPECT_TRUE(v.find("otherData")->has("bench"));
  EXPECT_TRUE(v.find("otherData")->has("dropped_events"));

  std::map<std::string, const JsonValue*> by_ph;
  for (const JsonValue& e : v.find("traceEvents")->items)
    by_ph[e.find("ph")->text] = &e;
  ASSERT_TRUE(by_ph.count("M"));
  ASSERT_TRUE(by_ph.count("X"));
  ASSERT_TRUE(by_ph.count("i"));
  ASSERT_TRUE(by_ph.count("C"));
  ASSERT_TRUE(by_ph.count("s"));
  ASSERT_TRUE(by_ph.count("f"));

  EXPECT_EQ(member_names(*by_ph["X"]),
            (std::vector<std::string>{"name", "cat", "ph", "ts", "dur",
                                      "pid", "tid", "args"}));
  EXPECT_EQ(member_names(*by_ph["i"]),
            (std::vector<std::string>{"name", "cat", "ph", "ts", "pid",
                                      "tid", "s"}));
  EXPECT_EQ(member_names(*by_ph["C"]),
            (std::vector<std::string>{"name", "cat", "ph", "ts", "pid",
                                      "tid", "args"}));
  EXPECT_EQ(member_names(*by_ph["s"]),
            (std::vector<std::string>{"name", "cat", "ph", "ts", "pid",
                                      "tid", "id", "args"}));
  EXPECT_EQ(member_names(*by_ph["f"]),
            (std::vector<std::string>{"name", "cat", "ph", "ts", "pid",
                                      "tid", "id", "bp", "args"}));
  const JsonValue* process_meta = nullptr;
  const JsonValue* thread_meta = nullptr;
  for (const JsonValue& e : v.find("traceEvents")->items) {
    if (e.find("ph")->text != "M") continue;
    if (e.find("name")->text == "process_name") process_meta = &e;
    if (e.find("name")->text == "thread_name") thread_meta = &e;
  }
  ASSERT_NE(process_meta, nullptr);
  ASSERT_NE(thread_meta, nullptr);
  EXPECT_EQ(member_names(*process_meta),
            (std::vector<std::string>{"name", "ph", "pid", "args"}));
  EXPECT_EQ(member_names(*thread_meta),
            (std::vector<std::string>{"name", "ph", "pid", "tid", "args"}));

  // Track naming: rank 0 renders as Chrome process 1 named "rank 0".
  bool found_process_name = false;
  for (const JsonValue& e : v.find("traceEvents")->items) {
    if (e.find("ph")->text != "M") continue;
    if (e.find("name")->text != "process_name") continue;
    if (int(e.find("pid")->number) == 1) {
      EXPECT_EQ(e.find("args")->find("name")->text, "rank 0");
      found_process_name = true;
    }
  }
  EXPECT_TRUE(found_process_name);

  EXPECT_DOUBLE_EQ(by_ph["X"]->find("args")->find("rows")->number, 7.0);
  EXPECT_EQ(by_ph["f"]->find("bp")->text, "e");
}

}  // namespace
}  // namespace hpamg
