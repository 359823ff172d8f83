// Performance microbenchmarks (google-benchmark) for the simulator
// substrate: regression guardrails that keep the sweep benches fast.
//
// The kernel benchmarks isolate what they claim to measure: schedule
// times are pre-generated and Simulator construction/destruction happens
// with timing paused, so items_per_second reflects schedule_at + dispatch
// cost, not RNG draws or allocator warm-up. `make bench-kernel`
// regenerates BENCH_kernel.json from these numbers.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/paper.hpp"
#include "core/systems.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/conservative_backfill.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/first_fit.hpp"
#include "sched/sjf.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace {

using namespace dc;

// Queue-sensitive benches run once per scheduler queue (see
// src/sim/event_queue.hpp). The heap variants keep the historical names so
// BENCH_kernel.json baselines stay comparable across revisions; calendar
// variants append a "/calendar" segment ("BM_EventQueueThroughput/calendar/
// 65536") which the bench tools treat as part of the opaque benchmark name.
void EventQueueThroughput(benchmark::State& state, sim::QueueKind kind) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<SimTime> times(events);
  Rng rng(7);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  std::int64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>(kind);
    sim->reserve(events);
    state.ResumeTiming();
    for (const SimTime t : times) {
      sim->schedule_at(t, [&counter] { ++counter; });
    }
    sim->run();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(EventQueueThroughput, heap, sim::QueueKind::kHeap)
    ->Name("BM_EventQueueThroughput")
    ->Arg(1 << 12)
    ->Arg(1 << 16);
BENCHMARK_CAPTURE(EventQueueThroughput, calendar, sim::QueueKind::kCalendar)
    ->Name("BM_EventQueueThroughput/calendar")
    ->Arg(1 << 12)
    ->Arg(1 << 16);

// Cancellation-heavy workload: every other scheduled event is cancelled
// before the run. With the indexed heap, each cancel() excises its queue
// node immediately; the run phase then dispatches only the survivors —
// there are no tombstones to pop over.
void EventQueueCancelHeavy(benchmark::State& state, sim::QueueKind kind) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<SimTime> times(events);
  Rng rng(11);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  std::vector<sim::EventId> ids(events);
  std::int64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>(kind);
    sim->reserve(events);
    state.ResumeTiming();
    for (std::size_t i = 0; i < events; ++i) {
      ids[i] = sim->schedule_at(times[i], [&counter] { ++counter; });
    }
    for (std::size_t i = 0; i < events; i += 2) {
      benchmark::DoNotOptimize(sim->cancel(ids[i]));
    }
    sim->run();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(EventQueueCancelHeavy, heap, sim::QueueKind::kHeap)
    ->Name("BM_EventQueueCancelHeavy")
    ->Arg(1 << 12)
    ->Arg(1 << 16);
BENCHMARK_CAPTURE(EventQueueCancelHeavy, calendar, sim::QueueKind::kCalendar)
    ->Name("BM_EventQueueCancelHeavy/calendar")
    ->Arg(1 << 12)
    ->Arg(1 << 16);

// Batched same-timestamp dispatch: many coincident events per timestamp
// (here 16, the dispatch batch size) scheduled in interleaved order, the
// shape of a scan tick completing a whole backlog at once. The calendar
// queue drains each timestamp in one pop_batch; the heap dispatches
// per-event (see Simulator::dispatch_batch). The kernel's batch counters
// are republished so BENCH_kernel.json records the difference.
void BatchedDispatch(benchmark::State& state, sim::QueueKind kind) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const std::size_t stamps = events / 16;
  std::vector<SimTime> times(events);
  for (std::size_t i = 0; i < events; ++i) {
    times[i] = static_cast<SimTime>(i % stamps);
  }
  std::int64_t counter = 0;
  sim::Simulator::DispatchStats last{};
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>(kind);
    sim->reserve(events);
    state.ResumeTiming();
    for (const SimTime t : times) {
      sim->schedule_at(t, [&counter] { ++counter; });
    }
    sim->run();
    state.PauseTiming();
    last = sim->dispatch_stats();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
  state.counters["dispatch_batches"] = static_cast<double>(last.batches);
  state.counters["dispatch_batched_events"] =
      static_cast<double>(last.batched_events);
  state.counters["dispatch_max_batch"] = static_cast<double>(last.max_batch);
}
BENCHMARK_CAPTURE(BatchedDispatch, heap, sim::QueueKind::kHeap)
    ->Name("BM_BatchedDispatch")
    ->Arg(1 << 16);
BENCHMARK_CAPTURE(BatchedDispatch, calendar, sim::QueueKind::kCalendar)
    ->Name("BM_BatchedDispatch/calendar")
    ->Arg(1 << 16);

void BM_PeriodicTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fires = 0;
    for (int i = 0; i < 16; ++i) {
      sim.start_periodic(i + 1, 60, [&fires](SimTime) { ++fires; });
    }
    sim.run_until(24 * kHour);
    benchmark::DoNotOptimize(fires);
  }
}
BENCHMARK(BM_PeriodicTimers);

// Timer-heavy variant: 256 concurrent periodic timers with staggered
// phases and mixed periods, the shape of a large DawningCloud deployment
// (every daemon owns scan/heartbeat/accounting timers). Stresses the
// re-arm path: each fire pops, re-pushes, and dispatches with no hash
// lookups.
void PeriodicTimersDense(benchmark::State& state, sim::QueueKind kind) {
  std::int64_t total_fires = 0;
  for (auto _ : state) {
    sim::Simulator sim(kind);
    std::int64_t fires = 0;
    for (int i = 0; i < 256; ++i) {
      const SimTime first = 1 + (i % 60);
      const SimDuration period = 30 + (i % 16) * 15;
      sim.start_periodic(first, period, [&fires](SimTime) { ++fires; });
    }
    sim.run_until(24 * kHour);
    benchmark::DoNotOptimize(fires);
    total_fires += fires;
  }
  state.SetItemsProcessed(total_fires);
}
BENCHMARK_CAPTURE(PeriodicTimersDense, heap, sim::QueueKind::kHeap)
    ->Name("BM_PeriodicTimersDense");
BENCHMARK_CAPTURE(PeriodicTimersDense, calendar, sim::QueueKind::kCalendar)
    ->Name("BM_PeriodicTimersDense/calendar");

// Mirrors HtcServer's dispatch loop: a periodic scan schedules a batch of
// task-completion events, and every completion schedules a follow-up from
// inside its own callback (some at its own timestamp). This is the
// re-entrant pattern the production daemons drive the kernel with.
void BM_ScheduleFromCallback(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t completions = 0;
    sim.start_periodic(60, 60, [&sim, &completions](SimTime t) {
      for (int k = 0; k < 32; ++k) {
        const SimTime done = t + 1 + (k * 7) % 59;
        sim.schedule_at(done, [&sim, &completions, done] {
          ++completions;
          sim.schedule_at(done, [] {});  // follow-up dispatch, same timestamp
        });
      }
    });
    sim.run_until(4 * kHour);
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(state.iterations() * 240 * 32 * 2);
}
BENCHMARK(BM_ScheduleFromCallback);

void BM_SwfRoundTrip(benchmark::State& state) {
  const workload::Trace trace = workload::make_nasa_ipsc(42);
  std::ostringstream out;
  workload::write_swf(out, trace.to_swf());
  const std::string text = out.str();
  for (auto _ : state) {
    auto parsed = workload::parse_swf_string(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SwfRoundTrip);

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto trace = workload::make_sdsc_blue(seed++);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_MontageGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto dag = workflow::make_paper_montage(seed++);
    benchmark::DoNotOptimize(dag);
  }
}
BENCHMARK(BM_MontageGeneration);

void BM_SchedulerSelect(benchmark::State& state) {
  const auto queue_size = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<sched::Job> jobs(queue_size);
  for (std::size_t i = 0; i < queue_size; ++i) {
    jobs[i].id = static_cast<sched::JobId>(i);
    jobs[i].nodes = rng.uniform_int(1, 64);
    jobs[i].runtime = rng.uniform_int(60, 7200);
  }
  std::vector<const sched::Job*> queue;
  for (const auto& job : jobs) queue.push_back(&job);
  const sched::FirstFitScheduler first_fit;
  const sched::EasyBackfillScheduler backfill;
  for (auto _ : state) {
    auto a = first_fit.select(queue, {}, 128, 0);
    auto b = backfill.select(queue, {}, 128, 0);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queue_size));
}
BENCHMARK(BM_SchedulerSelect)->Arg(64)->Arg(1024);

// One select call per HTC scheduler on a fixed scheduling instant: 64
// queued and 48 running jobs of widths 1-32, 32 idle nodes. Conservative
// backfilling rebuilds its availability profile on every call, so this row
// catches a return to a quadratic profile.
void SchedulerSelectByKind(benchmark::State& state,
                           const sched::Scheduler* scheduler) {
  constexpr SimTime kNow = 100'000;
  Rng rng(11);
  std::vector<sched::Job> queued(64);
  std::vector<sched::Job> running(48);
  for (auto& job : queued) {
    job.nodes = rng.uniform_int(1, 32);
    job.runtime = rng.uniform_int(60, 7200);
  }
  for (auto& job : running) {
    job.nodes = rng.uniform_int(1, 32);
    job.runtime = rng.uniform_int(60, 7200);
    job.start = kNow - rng.uniform_int(0, job.runtime - 1);
  }
  std::vector<const sched::Job*> queue;
  std::vector<const sched::Job*> running_view;
  for (const auto& job : queued) queue.push_back(&job);
  for (const auto& job : running) running_view.push_back(&job);
  for (auto _ : state) {
    auto picks = scheduler->select(queue, running_view, 32, kNow);
    benchmark::DoNotOptimize(picks);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queue.size()));
}
const sched::FirstFitScheduler kFirstFit;
const sched::EasyBackfillScheduler kEasyBackfill;
const sched::ConservativeBackfillScheduler kConservativeBackfill;
const sched::SjfScheduler kSjf;
BENCHMARK_CAPTURE(SchedulerSelectByKind, first_fit, &kFirstFit)
    ->Name("BM_SchedulerSelect/first-fit");
BENCHMARK_CAPTURE(SchedulerSelectByKind, easy_backfill, &kEasyBackfill)
    ->Name("BM_SchedulerSelect/easy-backfill");
BENCHMARK_CAPTURE(SchedulerSelectByKind, conservative_backfill,
                  &kConservativeBackfill)
    ->Name("BM_SchedulerSelect/conservative-backfill");
BENCHMARK_CAPTURE(SchedulerSelectByKind, sjf, &kSjf)
    ->Name("BM_SchedulerSelect/sjf");

void BM_FullSystemRun(benchmark::State& state) {
  const auto model = static_cast<core::SystemModel>(state.range(0));
  const auto workload = core::paper_consolidation();
  for (auto _ : state) {
    auto result = core::run_system(model, workload);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSystemRun)
    ->Arg(static_cast<int>(core::SystemModel::kDcs))
    ->Arg(static_cast<int>(core::SystemModel::kDrp))
    ->Arg(static_cast<int>(core::SystemModel::kDawningCloud))
    ->Unit(benchmark::kMillisecond);

// Self-profiled, fully traced DawningCloud run. The elapsed time bounds
// the cost of running with every observability hook on; the profiler's
// counter block (profile_dispatch_ns, ...) is published as user counters
// so bench_to_json carries the kernel phase breakdown into
// BENCH_kernel.json alongside the throughput numbers. Profilers and trace
// sinks accumulate, so each run gets fresh ones and every counter is the
// mean over runs: the same per-run values whatever the iteration count.
void BM_ProfiledSystemRun(benchmark::State& state) {
  const auto workload = core::paper_consolidation();
  std::map<std::string, double> totals;
  for (auto _ : state) {
    state.PauseTiming();
    auto profiler = std::make_unique<obs::PhaseProfiler>();
    auto sink = std::make_unique<obs::TraceSink>();
    core::RunOptions options;
    options.profile = profiler.get();
    options.trace = sink.get();
    state.ResumeTiming();
    auto result =
        core::run_system(core::SystemModel::kDawningCloud, workload, options);
    benchmark::DoNotOptimize(result);
    state.PauseTiming();
    for (const auto& [name, value] : profiler->counters()) {
      totals[name] += value;
    }
    profiler.reset();
    sink.reset();
    state.ResumeTiming();
  }
  for (const auto& [name, total] : totals) {
    state.counters[name] =
        benchmark::Counter(total, benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_ProfiledSystemRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
