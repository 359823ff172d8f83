// Arrival streams (core::JobEmulator on Simulator::reserve_seqs) against
// the eager emulator they replaced (eager_job_emulator_reference.hpp): on
// seeded worlds with equal submit times within and across streams, other
// events at the same instants and the paper's 100x time scale, both must
// fire the same callbacks in the same order, report the same kernel
// counters and write byte-identical emulator snapshot sections at every
// boundary — and a stream restored at any boundary must continue exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/job_emulator.hpp"
#include "eager_job_emulator_reference.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace dc::core {
namespace {

using Log = std::vector<std::string>;

struct Scenario {
  double time_scale = 1.0;
  std::vector<workload::Trace> traces;
  std::vector<SimTime> oneshot_times;  // emulate_at, unscaled
  std::vector<SimTime> foreign_times;  // plain schedule_at, scaled
  SimDuration tick = 0;                // periodic timer period (scaled)
  std::vector<SimTime> boundaries;     // run_until chunk ends (scaled)
  SimTime horizon = 0;
};

// Submit times come from a coarse grid so equal times are common, within a
// stream and across streams; the foreign events and the timer land on the
// same grid.
Scenario make_scenario(std::uint64_t seed, double time_scale) {
  Rng rng(seed);
  Scenario s;
  s.time_scale = time_scale;
  const SimDuration grid = time_scale == 1.0 ? 10 : 1000;
  const std::int64_t streams = rng.uniform_int(1, 4);
  for (std::int64_t k = 0; k < streams; ++k) {
    std::vector<workload::TraceJob> jobs;
    const std::int64_t n = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < n; ++i) {
      workload::TraceJob job;
      job.id = k * 1000 + i;
      job.submit = grid * rng.uniform_int(0, 20) + rng.uniform_int(0, 1);
      job.runtime = rng.uniform_int(1, 500);
      job.nodes = rng.uniform_int(1, 8);
      jobs.push_back(job);
    }
    s.traces.emplace_back("t" + std::to_string(k), 64, std::move(jobs));
  }
  for (int i = 0; i < 3; ++i) {
    s.oneshot_times.push_back(grid * rng.uniform_int(0, 20));
  }
  const SimDuration scaled_grid =
      static_cast<SimDuration>(static_cast<double>(grid) / time_scale);
  for (int i = 0; i < 6; ++i) {
    s.foreign_times.push_back(scaled_grid * rng.uniform_int(0, 20));
  }
  s.tick = scaled_grid * rng.uniform_int(1, 3);
  s.horizon = scaled_grid * 22;
  for (SimTime t = 0; t <= s.horizon; t += scaled_grid) {
    s.boundaries.push_back(t);
    if (rng.uniform_int(0, 1) == 1) s.boundaries.push_back(t + 1);
  }
  return s;
}

struct Checkpoint {
  std::string emulator_bytes;
  std::size_t pending = 0;
  std::size_t peak = 0;
  std::uint32_t next_seq = 0;
  std::uint64_t processed = 0;
  std::size_t log_size = 0;

  bool operator==(const Checkpoint&) const = default;
};

struct Outcome {
  Log log;
  std::vector<Checkpoint> checkpoints;
};

// One world: the streams, the emulate_at one-shots, foreign events
// scheduled before and after the streams register (older and newer seqs
// at the same instants), and a periodic timer. Every submission schedules
// an echo at its own instant and, for every third job, one a bit later.
template <typename Emulator>
Outcome run_world(const Scenario& s, sim::QueueKind queue) {
  sim::Simulator sim(queue);
  Outcome out;
  Log& log = out.log;
  Emulator emulator(sim, s.time_scale);
  auto foreign = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const SimTime t = s.foreign_times[i];
      sim.schedule_at(t, [&log, &sim, i] {
        log.push_back(std::to_string(sim.now()) + " foreign " +
                      std::to_string(i));
      });
    }
  };
  foreign(0, s.foreign_times.size() / 2);
  for (std::size_t k = 0; k < s.traces.size(); ++k) {
    emulator.emulate_trace(s.traces[k], [&log, &sim,
                                         k](const workload::TraceJob& job) {
      log.push_back(std::to_string(sim.now()) + " submit " + std::to_string(k) +
                    ":" + std::to_string(job.id) + " runtime " +
                    std::to_string(job.runtime));
      const SimTime now = sim.now();
      sim.schedule_at(now, [&log, &sim, id = job.id] {
        log.push_back(std::to_string(sim.now()) + " echo " + std::to_string(id));
      });
      if (job.id % 3 == 0) {
        sim.schedule_at(now + 5, [&log, &sim, id = job.id] {
          log.push_back(std::to_string(sim.now()) + " late " +
                        std::to_string(id));
        });
      }
    });
    if (k == 0) {
      for (std::size_t i = 0; i < s.oneshot_times.size(); ++i) {
        emulator.emulate_at(s.oneshot_times[i], [&log, &sim, i] {
          log.push_back(std::to_string(sim.now()) + " oneshot " +
                        std::to_string(i));
        });
      }
    }
  }
  foreign(s.foreign_times.size() / 2, s.foreign_times.size());
  sim.start_periodic(0, s.tick, [&log](SimTime t) {
    log.push_back(std::to_string(t) + " tick");
  });
  for (SimTime boundary : s.boundaries) {
    sim.run_until(boundary);
    Checkpoint cp;
    snapshot::SnapshotWriter writer;
    EXPECT_TRUE(emulator.save(writer).is_ok());
    cp.emulator_bytes = writer.buffer();
    cp.pending = sim.pending_live();
    cp.peak = sim.peak_pending();
    cp.next_seq = sim.next_seq();
    cp.processed = sim.events_processed();
    cp.log_size = log.size();
    out.checkpoints.push_back(std::move(cp));
    sim.audit_invariants();
  }
  return out;
}

class ArrivalStreamDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrivalStreamDifferential, MatchesEagerEmulator) {
  for (const double time_scale : {1.0, 100.0}) {
    const Scenario s = make_scenario(GetParam(), time_scale);
    for (const sim::QueueKind queue :
         {sim::QueueKind::kHeap, sim::QueueKind::kCalendar}) {
      SCOPED_TRACE(std::string("scale ") + std::to_string(time_scale) +
                   " queue " + sim::queue_kind_name(queue));
      const Outcome eager = run_world<reference::EagerJobEmulator>(s, queue);
      const Outcome streams = run_world<JobEmulator>(s, queue);
      ASSERT_EQ(streams.log, eager.log);
      ASSERT_EQ(streams.checkpoints.size(), eager.checkpoints.size());
      for (std::size_t i = 0; i < eager.checkpoints.size(); ++i) {
        EXPECT_EQ(streams.checkpoints[i], eager.checkpoints[i])
            << "boundary " << s.boundaries[i];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalStreamDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Save/restore at every boundary ----------------------------------------

// A restorable world: streams, one-shots and a periodic timer, all of which
// a snapshot can re-arm (submissions schedule nothing of their own).
struct RestorableWorld {
  RestorableWorld(const Scenario& s, sim::QueueKind queue, bool passive)
      : sim(queue), emulator(sim, s.time_scale, passive) {
    for (std::size_t k = 0; k < s.traces.size(); ++k) {
      emulator.emulate_trace(s.traces[k], [this, k](const workload::TraceJob& job) {
        log.push_back(std::to_string(sim.now()) + " submit " +
                      std::to_string(k) + ":" + std::to_string(job.id));
      });
    }
    for (std::size_t i = 0; i < s.oneshot_times.size(); ++i) {
      emulator.emulate_at(s.oneshot_times[i], [this, i] {
        log.push_back(std::to_string(sim.now()) + " oneshot " +
                      std::to_string(i));
      });
    }
    if (!passive) timer = sim.start_periodic(0, s.tick, tick_fn());
  }

  sim::Simulator::TimerCallback tick_fn() {
    return [this](SimTime t) { log.push_back(std::to_string(t) + " tick"); };
  }

  std::string save(SimDuration tick) const {
    snapshot::SnapshotWriter writer;
    writer.field_i64("now", sim.now());
    writer.field_u64("next_seq", sim.next_seq());
    writer.field_u64("processed", sim.events_processed());
    writer.field_u64("pending", sim.pending_live());
    const auto info = sim.pending_timer_info(timer);
    EXPECT_TRUE(info.has_value());
    EXPECT_EQ(info->period, tick);
    writer.field_i64("timer_time", info->next_fire);
    writer.field_u64("timer_seq", info->seq);
    EXPECT_TRUE(emulator.save(writer).is_ok());
    return writer.finish();
  }

  void restore(const std::string& bytes, SimDuration tick) {
    auto reader = snapshot::SnapshotReader::from_buffer(bytes);
    ASSERT_TRUE(reader.is_ok());
    std::int64_t now = 0, timer_time = 0;
    std::uint64_t next_seq = 0, processed = 0, pending = 0, timer_seq = 0;
    ASSERT_TRUE(reader->read_i64("now", now).is_ok());
    ASSERT_TRUE(reader->read_u64("next_seq", next_seq).is_ok());
    ASSERT_TRUE(reader->read_u64("processed", processed).is_ok());
    ASSERT_TRUE(reader->read_u64("pending", pending).is_ok());
    ASSERT_TRUE(reader->read_i64("timer_time", timer_time).is_ok());
    ASSERT_TRUE(reader->read_u64("timer_seq", timer_seq).is_ok());
    sim.begin_restore(now, static_cast<std::uint32_t>(next_seq), processed);
    timer = sim.restore_periodic(timer_time, static_cast<std::uint32_t>(timer_seq),
                                 tick, tick_fn());
    const Status st = emulator.restore(*reader);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    const Status done = sim.finish_restore(pending);
    ASSERT_TRUE(done.is_ok()) << done.to_string();
  }

  sim::Simulator sim;
  JobEmulator emulator;
  sim::TimerId timer = sim::kInvalidTimer;
  Log log;
};

class ArrivalStreamRestore : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrivalStreamRestore, ResumesExactlyFromEveryBoundary) {
  for (const double time_scale : {1.0, 100.0}) {
    const Scenario s = make_scenario(GetParam(), time_scale);
    // The uninterrupted run, with a snapshot and a log mark per boundary.
    RestorableWorld full(s, sim::QueueKind::kHeap, /*passive=*/false);
    std::vector<std::string> snapshots;
    std::vector<std::size_t> marks;
    for (SimTime boundary : s.boundaries) {
      full.sim.run_until(boundary);
      snapshots.push_back(full.save(s.tick));
      marks.push_back(full.log.size());
    }
    full.sim.run_until(s.horizon + 1000);
    for (std::size_t b = 0; b < snapshots.size(); ++b) {
      for (const sim::QueueKind queue :
           {sim::QueueKind::kHeap, sim::QueueKind::kCalendar}) {
        SCOPED_TRACE("scale " + std::to_string(time_scale) + " boundary " +
                     std::to_string(s.boundaries[b]) + " queue " +
                     sim::queue_kind_name(queue));
        RestorableWorld resumed(s, queue, /*passive=*/true);
        resumed.restore(snapshots[b], s.tick);
        if (HasFatalFailure()) return;
        // Restore then save reproduces the snapshot byte for byte.
        EXPECT_EQ(resumed.save(s.tick), snapshots[b]);
        resumed.sim.run_until(s.horizon + 1000);
        const Log tail(full.log.begin() + static_cast<std::ptrdiff_t>(marks[b]),
                       full.log.end());
        ASSERT_EQ(resumed.log, tail);
        EXPECT_EQ(resumed.sim.events_processed(), full.sim.events_processed());
        EXPECT_EQ(resumed.sim.next_seq(), full.sim.next_seq());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalStreamRestore,
                         ::testing::Values(11u, 12u, 13u));

// --- Restore rejects every shape but a consecutive suffix -------------------

workload::Trace three_jobs() {
  std::vector<workload::TraceJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i) + 1;
    jobs[i].submit = 100 * static_cast<SimTime>(i + 1);
    jobs[i].runtime = 10;
  }
  return workload::Trace("t", 8, std::move(jobs));
}

Status restore_section(const std::vector<std::array<std::int64_t, 3>>& pending) {
  snapshot::SnapshotWriter writer;
  writer.field_u64("stream_count", 1);
  writer.field_u64("pending_count", pending.size());
  for (const auto& [index, time, seq] : pending) {
    writer.field_u64("job_index", static_cast<std::uint64_t>(index));
    writer.field_time("time", time);
    writer.field_u64("seq", static_cast<std::uint64_t>(seq));
  }
  writer.field_u64("oneshot_count", 0);
  auto reader = snapshot::SnapshotReader::from_buffer(writer.finish());
  EXPECT_TRUE(reader.is_ok());
  sim::Simulator sim;
  JobEmulator emulator(sim, 1.0, /*passive=*/true);
  emulator.emulate_trace(three_jobs(), [](const workload::TraceJob&) {});
  sim.begin_restore(/*now=*/50, /*next_seq=*/10, /*processed=*/0);
  Status st = emulator.restore(*reader);
  if (st.is_ok()) st = sim.finish_restore(pending.size());
  return st;
}

TEST(ArrivalStreamRestoreShape, AcceptsOnlyAConsecutiveSuffix) {
  EXPECT_TRUE(restore_section({}).is_ok());
  EXPECT_TRUE(restore_section({{2, 300, 9}}).is_ok());
  EXPECT_TRUE(restore_section({{1, 200, 4}, {2, 300, 5}}).is_ok());
  EXPECT_TRUE(restore_section({{0, 100, 1}, {1, 200, 2}, {2, 300, 3}}).is_ok());
  const std::vector<std::vector<std::array<std::int64_t, 3>>> bad = {
      {{1, 200, 4}},                            // not a suffix: job 2 missing
      {{0, 100, 4}, {2, 300, 5}},               // a gap
      {{2, 300, 5}, {1, 200, 4}},               // out of order
      {{1, 200, 4}, {2, 300, 6}},               // seqs not consecutive
      {{1, 250, 4}, {2, 300, 5}},               // time is not the submit time
      {{2, 300, 0}},                            // seq 0 is never issued
      {{2, 300, 10}},                           // seq not below the counter
      {{1, 200, 9}, {2, 300, 10}},              // run crosses the counter
      {{1, 200, -1}, {2, 300, 0}},              // seqs wrap around 2^64
      {{0, 100, 1}, {1, 200, 2}, {2, 300, 3}, {3, 400, 4}},  // too many
  };
  for (const auto& pending : bad) {
    const Status st = restore_section(pending);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.to_string();
  }
}

TEST(ArrivalStreamRestoreShape, RejectsASuffixInThePast) {
  // Job 0 submits at t=100, before the restored clock of 150.
  snapshot::SnapshotWriter writer;
  writer.field_u64("stream_count", 1);
  writer.field_u64("pending_count", 3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    writer.field_u64("job_index", i);
    writer.field_time("time", 100 * static_cast<SimTime>(i + 1));
    writer.field_u64("seq", i + 1);
  }
  writer.field_u64("oneshot_count", 0);
  auto reader = snapshot::SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  sim::Simulator sim;
  JobEmulator emulator(sim, 1.0, /*passive=*/true);
  emulator.emulate_trace(three_jobs(), [](const workload::TraceJob&) {});
  sim.begin_restore(/*now=*/150, /*next_seq=*/10, /*processed=*/0);
  EXPECT_EQ(emulator.restore(*reader).code(), StatusCode::kFailedPrecondition);
}

// --- Sequence-counter wrap with an open stream ------------------------------

// A kernel restored just below the 32-bit seq ceiling: a stream's block
// is reserved, then foreign events at the same instant push the counter
// past the wrap, and the order-preserving renumbering must compact the
// open block together with the queued nodes.
template <typename Emulator>
Log run_wrap(sim::QueueKind queue, std::uint32_t jobs, std::uint32_t before,
             std::uint32_t after) {
  sim::Simulator sim(queue);
  Log log;
  sim.begin_restore(/*now=*/0, /*next_seq=*/0xfffffff0u, /*processed=*/0);
  EXPECT_TRUE(sim.finish_restore(0).is_ok());
  Emulator emulator(sim);
  auto foreign = [&](const char* tag, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      sim.schedule_at(100 + (i % 2), [&log, &sim, tag, i] {
        log.push_back(std::to_string(sim.now()) + " " + tag + " " +
                      std::to_string(i));
      });
    }
  };
  foreign("before", before);
  std::vector<workload::TraceJob> trace_jobs(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    trace_jobs[i].id = i;
    trace_jobs[i].submit = 100 + (i / 4);  // runs of four equal times
    trace_jobs[i].runtime = 1;
  }
  emulator.emulate_trace(workload::Trace("w", 8, std::move(trace_jobs)),
                         [&log, &sim](const workload::TraceJob& job) {
                           log.push_back(std::to_string(sim.now()) +
                                         " submit " + std::to_string(job.id));
                           sim.schedule_at(sim.now(), [&log, &sim, id = job.id] {
                             log.push_back(std::to_string(sim.now()) +
                                           " echo " + std::to_string(id));
                           });
                         });
  foreign("after", after);
  log.push_back("pending " + std::to_string(sim.pending_live()) + " peak " +
                std::to_string(sim.peak_pending()));
  sim.audit_invariants();
  sim.run();
  sim.audit_invariants();
  log.push_back("processed " + std::to_string(sim.events_processed()));
  return log;
}

TEST(ArrivalStreamWrap, RenumberingCompactsOpenBlocks) {
  struct Case {
    std::uint32_t jobs, before, after;
  };
  // (a) the block fits below the ceiling and foreign schedules wrap the
  // counter while it is open; (b) the block itself does not fit and forces
  // the renumbering at reservation; (c) both, with the echoes wrapping too.
  for (const Case c : {Case{10, 2, 20}, Case{40, 3, 5}, Case{12, 0, 1}}) {
    for (const sim::QueueKind queue :
         {sim::QueueKind::kHeap, sim::QueueKind::kCalendar}) {
      SCOPED_TRACE(std::to_string(c.jobs) + " jobs, queue " +
                   sim::queue_kind_name(queue));
      const Log eager =
          run_wrap<reference::EagerJobEmulator>(queue, c.jobs, c.before, c.after);
      const Log streams = run_wrap<JobEmulator>(queue, c.jobs, c.before, c.after);
      EXPECT_EQ(streams, eager);
    }
  }
}

}  // namespace
}  // namespace dc::core
