// Live observability tests: heartbeat publishing, the activity-scope
// gate, the progress stream + exposition files, flight-recorder rings,
// and the watchdog — including the sanitizer deadline-scaling contract
// (a slow-but-alive solve must never become a false stall report) and
// the chaos scenario where a compute-hung simmpi rank is detected,
// attributed, and unwound as a DeadlockError with artifacts.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/simmpi.hpp"
#include "support/error.hpp"
#include "support/live.hpp"
#include "support/metrics.hpp"
#include "support/report.hpp"

namespace hpamg {
namespace {

namespace fs = std::filesystem;

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Fresh per-test output directory under gtest's temp root.
fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

int count_files_with_prefix(const fs::path& dir, const std::string& prefix) {
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    n += entry.path().filename().string().rfind(prefix, 0) == 0 ? 1 : 0;
  return n;
}

class Live : public ::testing::Test {
 protected:
  void TearDown() override {
    if (live::running()) live::stop();
    live::reset_watchdog();
    live::set_rank(-1);
    ::unsetenv("HPAMG_WATCHDOG_SCALE");
  }
};

TEST_F(Live, DisabledByDefaultPublishingIsANoOp) {
  EXPECT_FALSE(live::enabled());
  EXPECT_FALSE(live::running());
  live::beat_iteration(3, 0.5);
  live::beat_phase("cycle.level", 2);
  live::add_blocked_ns(1000);
  live::set_waiting(true);
  { live::ActivityScope scope; }
  EXPECT_TRUE(live::heartbeat_snapshot().empty());
  EXPECT_EQ(live::watchdog_verdict(), Status::kOk);
}

TEST_F(Live, HeartbeatPublishesIterationPhaseAndConvergenceFactor) {
  live::Options opts;
  opts.interval_s = 0.01;
  ASSERT_TRUE(live::start(opts));
  EXPECT_FALSE(live::start(opts));  // second start refused
  live::ActivityScope scope;
  live::beat_iteration(1, 0.5);
  live::beat_iteration(2, 0.25);
  live::beat_phase("cycle.level", 3);
  const std::vector<live::HeartbeatSample> beats = live::heartbeat_snapshot();
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].rank, -1);  // host slot
  EXPECT_EQ(beats[0].iteration, 2);
  EXPECT_EQ(beats[0].level, 3);
  EXPECT_STREQ(beats[0].phase, "cycle.level");
  EXPECT_DOUBLE_EQ(beats[0].relres, 0.25);
  EXPECT_DOUBLE_EQ(beats[0].conv_factor, 0.5);  // 0.25 / 0.5
  EXPECT_GE(beats[0].epoch, 3u);
  EXPECT_FALSE(beats[0].waiting);
  live::stop();
  EXPECT_FALSE(live::enabled());
}

TEST_F(Live, ActivityScopeGatesSnapshotVisibility) {
  live::Options opts;
  opts.interval_s = 0.01;
  ASSERT_TRUE(live::start(opts));
  EXPECT_TRUE(live::heartbeat_snapshot().empty());  // idle slot: invisible
  {
    live::ActivityScope scope;
    EXPECT_EQ(live::heartbeat_snapshot().size(), 1u);
    {
      live::ActivityScope nested;  // depth-counted, still one slot
      EXPECT_EQ(live::heartbeat_snapshot().size(), 1u);
    }
    EXPECT_EQ(live::heartbeat_snapshot().size(), 1u);
  }
  EXPECT_TRUE(live::heartbeat_snapshot().empty());
}

TEST_F(Live, ActivityScopeResetsPerSolveFields) {
  live::Options opts;
  opts.interval_s = 0.01;
  ASSERT_TRUE(live::start(opts));
  {
    live::ActivityScope scope;
    live::beat_iteration(7, 1e-9);
  }
  {
    live::ActivityScope scope;
    const auto beats = live::heartbeat_snapshot();
    ASSERT_EQ(beats.size(), 1u);
    // The previous solve's residual/iteration must not leak.
    EXPECT_EQ(beats[0].iteration, -1);
    EXPECT_LT(beats[0].relres, 0.0);
    EXPECT_DOUBLE_EQ(beats[0].conv_factor, 0.0);
  }
}

TEST_F(Live, RankBindingRoutesBeatsToRankSlots) {
  live::Options opts;
  opts.interval_s = 0.01;
  ASSERT_TRUE(live::start(opts));
  EXPECT_EQ(live::current_rank(), -1);
  live::set_rank(3);
  EXPECT_EQ(live::current_rank(), 3);
  {
    live::ActivityScope scope;
    live::beat_iteration(5, 0.125);
    live::set_waiting(true);
    live::add_blocked_ns(2'000'000'000ull);
    const auto beats = live::heartbeat_snapshot();
    ASSERT_EQ(beats.size(), 1u);
    EXPECT_EQ(beats[0].rank, 3);
    EXPECT_EQ(beats[0].iteration, 5);
    EXPECT_TRUE(beats[0].waiting);
    EXPECT_GE(beats[0].blocked_s, 2.0);
    live::set_waiting(false);
  }
  live::set_rank(-1);
  EXPECT_EQ(live::current_rank(), -1);
  // Ranks beyond the slot table are dropped to the host slot, never
  // misattributed to another rank.
  live::set_rank(live::kSlots + 5);
  EXPECT_EQ(live::current_rank(), -1);
}

TEST_F(Live, ProgressStreamAndExpositionFilesAreWellFormed) {
  const fs::path dir = fresh_dir("hpamg_live_stream");
  metrics::enable();
  metrics::counter("amg.test_events").add(3);
  live::Options opts;
  opts.dir = dir.string();
  opts.interval_s = 0.005;
  ASSERT_TRUE(live::start(opts));
  {
    live::ActivityScope scope;
    for (int it = 1; it <= 5; ++it) {
      live::beat_iteration(it, 1.0 / it);
      sleep_s(0.01);
    }
  }
  live::stop();
  metrics::reset();

  // Every progress line parses and carries the schema `hpamg top` renders.
  std::ifstream in(dir / "progress.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  unsigned long long last_seq = 0;
  while (std::getline(in, line)) {
    ++lines;
    const JsonValue v = json_parse(line);
    ASSERT_TRUE(v.is_object());
    const JsonValue* seq = v.find("seq");
    ASSERT_NE(seq, nullptr);
    if (lines > 1) EXPECT_EQ((unsigned long long)seq->number, last_seq + 1);
    last_seq = (unsigned long long)seq->number;
    ASSERT_TRUE(v.has("ts_ms"));
    const JsonValue* ranks = v.find("ranks");
    ASSERT_NE(ranks, nullptr);
    ASSERT_TRUE(ranks->is_array());
    for (const JsonValue& r : ranks->items) {
      EXPECT_TRUE(r.has("rank"));
      EXPECT_TRUE(r.has("iteration"));
      EXPECT_TRUE(r.has("phase"));
      EXPECT_TRUE(r.has("blocked_frac"));
    }
    ASSERT_TRUE(v.has("counters"));
    ASSERT_TRUE(v.has("gauges"));
  }
  EXPECT_GE(lines, 2);  // several ticks plus the final flush sample

  // Exposition file: atomic rename means no .tmp leftover is required
  // reading; the published file carries the sampler's own counter.
  std::ifstream prom(dir / "metrics.prom");
  ASSERT_TRUE(prom.good());
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# TYPE hpamg_live_samples counter"),
            std::string::npos);
  EXPECT_NE(text.find("hpamg_amg_test_events 3"), std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------------- flight recorder ----

TEST_F(Live, FlightRecorderKeepsNewestEventsAndCountsDrops) {
  live::Options opts;
  opts.interval_s = 0.05;
  opts.flight_capacity = 16;
  ASSERT_TRUE(live::start(opts));
  const live::FlightStats before = live::flight_stats();
  // Record from a fresh thread: ring capacity binds at a thread's first
  // record, so this thread's ring is guaranteed to carry flight_capacity
  // (the main thread's ring may predate this test with a larger one).
  std::thread recorder([] {
    for (int i = 0; i < 40; ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "ev%d", i);
      live::record(live::EventKind::kInstant, name, "payload");
    }
  });
  recorder.join();
  const live::FlightStats after = live::flight_stats();
  EXPECT_GE(after.recorded - before.recorded, 16u);  // the full ring is held
  EXPECT_GE(after.dropped - before.dropped, 24u);    // 40 into a 16-ring
  const std::string dump = live::flight_dump();
  EXPECT_NE(dump.find("ev39"), std::string::npos);     // newest survives
  EXPECT_EQ(dump.find("ev0 "), std::string::npos);     // oldest evicted
  EXPECT_NE(dump.find("payload"), std::string::npos);
  live::stop();
}

TEST_F(Live, NoteFaultDumpsOncePerSite) {
  const fs::path dir = fresh_dir("hpamg_live_fault");
  live::Options opts;
  opts.dir = dir.string();
  opts.interval_s = 0.05;
  ASSERT_TRUE(live::start(opts));
  // Unique site name: the once-per-site latch is process-global.
  live::note_fault("test.live.fault_once");
  live::note_fault("test.live.fault_once");
  EXPECT_EQ(count_files_with_prefix(dir, "flightrec_"), 1);
  const live::FlightStats st = live::flight_stats();
  EXPECT_GE(st.recorded, 2u);  // both trips recorded, one dump written
  live::stop();
  fs::remove_all(dir);
}

// --------------------------------------------------------------- watchdog ----

TEST_F(Live, WatchdogStaysQuietWhileHeartbeatsArrive) {
  ::setenv("HPAMG_WATCHDOG_SCALE", "1", 1);
  live::Options opts;
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.15;
  ASSERT_TRUE(live::start(opts));
  live::ActivityScope scope;
  for (int it = 1; it <= 20; ++it) {
    live::beat_iteration(it, 1.0 / it);
    sleep_s(0.02);  // well inside the deadline
  }
  EXPECT_EQ(live::watchdog_verdict(), Status::kOk);
  live::stop();
}

TEST_F(Live, WatchdogDeclaresStallAndDumpsFlightRecorder) {
  ::setenv("HPAMG_WATCHDOG_SCALE", "1", 1);
  const fs::path dir = fresh_dir("hpamg_live_stall");
  live::Options opts;
  opts.dir = dir.string();
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.1;
  ASSERT_TRUE(live::start(opts));
  live::ActivityScope scope;
  live::beat_iteration(4, 0.125);
  // Silent past the deadline: the sampler must latch a stall on its own.
  for (int i = 0; i < 100 && live::watchdog_verdict() == Status::kOk; ++i)
    sleep_s(0.02);
  EXPECT_EQ(live::watchdog_verdict(), Status::kDeadlock);
  const live::StallInfo info = live::stall_info();
  EXPECT_EQ(info.rank, -1);  // the host thread went quiet
  EXPECT_GE(info.stalled_s, 0.1);
  EXPECT_DOUBLE_EQ(info.deadline_s, 0.1);  // scale pinned to 1
  EXPECT_EQ(info.iteration, 4);
  EXPECT_FALSE(info.waiting);
  EXPECT_GE(count_files_with_prefix(dir, "flightrec_"), 1);
  live::stop();
  live::reset_watchdog();
  EXPECT_EQ(live::watchdog_verdict(), Status::kOk);
  fs::remove_all(dir);
}

TEST_F(Live, StallHandlersRunOnceAndUnregisterSafely) {
  ::setenv("HPAMG_WATCHDOG_SCALE", "1", 1);
  std::atomic<int> calls{0};
  std::atomic<int> seen_rank{99};
  const int token = live::register_stall_handler(
      [&](const live::StallInfo& info) {
        calls.fetch_add(1);
        seen_rank.store(info.rank);
      });
  live::Options opts;
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.05;
  ASSERT_TRUE(live::start(opts));
  live::ActivityScope scope;
  live::beat_iteration(1, 0.5);
  for (int i = 0; i < 100 && calls.load() == 0; ++i) sleep_s(0.02);
  // The latch fires handlers exactly once even though the sampler keeps
  // observing the stale slot every tick.
  sleep_s(0.05);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_rank.load(), -1);
  live::unregister_stall_handler(token);
  live::stop();
}

// ------------------------------------------- sanitizer deadline scaling ----

TEST_F(Live, SanitizerScaleIsAtLeastOneAndEnvOverridable) {
  ::unsetenv("HPAMG_WATCHDOG_SCALE");
  EXPECT_GE(live::sanitizer_scale(), 1.0);
#if defined(__SANITIZE_THREAD__)
  EXPECT_GE(live::sanitizer_scale(), 20.0);
#endif
  ::setenv("HPAMG_WATCHDOG_SCALE", "30", 1);
  EXPECT_DOUBLE_EQ(live::sanitizer_scale(), 30.0);
  ::setenv("HPAMG_WATCHDOG_SCALE", "bogus", 1);
  EXPECT_GE(live::sanitizer_scale(), 1.0);  // bad override falls through
}

TEST_F(Live, ScaledDeadlineToleratesSanitizerSlowSolve) {
  // Model a sanitized build: beats arrive 5x slower than the unscaled
  // deadline allows. With the deadline stretched by the (overridden)
  // scale, the slow-but-alive solve must NOT be declared a stall — this
  // is the contract that keeps the TSan/ASan CI jobs free of false
  // positives.
  ::setenv("HPAMG_WATCHDOG_SCALE", "30", 1);
  live::Options opts;
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.02;  // effective: 0.6 s
  ASSERT_TRUE(live::start(opts));
  live::ActivityScope scope;
  for (int it = 1; it <= 4; ++it) {
    live::beat_iteration(it, 1.0 / it);
    sleep_s(0.1);  // 5x past the unscaled deadline, inside the scaled one
  }
  EXPECT_EQ(live::watchdog_verdict(), Status::kOk);
  live::stop();
}

// ----------------------------------------------------- simmpi chaos test ----

TEST_F(Live, WatchdogAttributesComputeHungRankAndUnwindsWorld) {
  ::setenv("HPAMG_WATCHDOG_SCALE", "1", 1);
  const fs::path live_dir = fresh_dir("hpamg_live_chaos");
  const fs::path dump_dir = fresh_dir("hpamg_live_chaos_dumps");
  ::setenv("HPAMG_STATE_DUMP_DIR", dump_dir.string().c_str(), 1);

  live::Options opts;
  opts.dir = live_dir.string();
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.2;
  ASSERT_TRUE(live::start(opts));

  // The injected hang: rank 0 beats once, then stops computing without
  // entering a wait. Rank 1 blocks in a recv that can never complete. The
  // simmpi timeout (30 s) would eventually fire, but the watchdog must
  // resolve it first, attributing the stall to rank 0 — the rank whose
  // heartbeat stopped — not to rank 1, the waiting victim.
  simmpi::RunOptions ropts;
  ropts.timeout_seconds = 30.0;
  try {
    simmpi::run(
        2,
        [&](simmpi::Comm& c) {
          live::beat_iteration(1, 0.5);
          if (c.rank() == 0)
            sleep_s(1.2);  // compute hang (finite, so the test terminates)
          else
            c.recv(0, 7);  // never satisfied; unwound by the watchdog
        },
        ropts);
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog declared rank 0"), std::string::npos)
        << what;
    EXPECT_FALSE(e.state_dump().empty());
    // The dump shows the victim blocked in its recv.
    EXPECT_NE(e.state_dump().find("rank 1"), std::string::npos);
  }

  EXPECT_EQ(live::watchdog_verdict(), Status::kDeadlock);
  const live::StallInfo info = live::stall_info();
  EXPECT_EQ(info.rank, 0);
  EXPECT_FALSE(info.waiting);  // a compute hang, not a deadlock cycle
  EXPECT_GE(info.stalled_s, 0.2);

  live::stop();
  ::unsetenv("HPAMG_STATE_DUMP_DIR");
  // Artifacts: flight recorder in the live dir, simmpi state dump in the
  // dump dir — both tied to the same stall.
  EXPECT_GE(count_files_with_prefix(live_dir, "flightrec_"), 1);
  EXPECT_GE(count_files_with_prefix(dump_dir, "simmpi_deadlock_"), 1);
  fs::remove_all(live_dir);
  fs::remove_all(dump_dir);
}

TEST_F(Live, WaitingRanksAloneDoNotTripTheWatchdogWhilePeersBeat) {
  ::setenv("HPAMG_WATCHDOG_SCALE", "1", 1);
  live::Options opts;
  opts.interval_s = 0.01;
  opts.watchdog_deadline_s = 0.15;
  ASSERT_TRUE(live::start(opts));
  // Load imbalance, not a stall: rank 1 sits in a (satisfiable) recv far
  // past the deadline while rank 0 keeps beating, then rank 0 sends. No
  // stall may be declared.
  simmpi::RunOptions ropts;
  ropts.timeout_seconds = 30.0;
  simmpi::run(
      2,
      [&](simmpi::Comm& c) {
        if (c.rank() == 0) {
          for (int it = 1; it <= 25; ++it) {
            live::beat_iteration(it, 1.0 / it);
            sleep_s(0.02);  // 0.5 s of work while rank 1 waits
          }
          const double x = 1.0;
          c.send(1, 7, &x, sizeof x);
        } else {
          live::beat_iteration(1, 0.5);
          (void)c.recv(0, 7);
        }
      },
      ropts);
  EXPECT_EQ(live::watchdog_verdict(), Status::kOk);
  live::stop();
}

}  // namespace
}  // namespace hpamg
