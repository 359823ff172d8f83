// Conservative backfilling — the stricter cousin of EASY, added as an
// extension scheduler. Every queued job (not just the head) receives a
// reservation in queue order against the simulated future release profile;
// a later job may start now only if doing so delays no earlier job's
// reservation. Stronger fairness guarantees than EASY, usually less
// backfilling.
//
// Cost per select, with R running and Q queued jobs:
// - Flat profile. The availability profile is a vector of (time, free
//   nodes) breakpoints sorted by time, built by sorting the R releases
//   (each clamped to now+1 at the earliest) and prefix-summing from the
//   idle count: O(R log R).
// - Linear earliest-fit. One forward pass with a candidate index and a scan
//   index, both monotone: a segment below the job's width fails every
//   candidate whose window reaches it, so the next candidate is the
//   breakpoint after it. A reservation adds at most one breakpoint and
//   lowers the levels in its window. Each job costs O(R + Q).
// - Early exit. The queue scan stops once the nodes free now are fewer
//   than every remaining job's width. Reservations only lower levels, and
//   a job with runtime >= 1 can start now only if its width fits the nodes
//   free now, so no later job could have started and the picks are
//   unchanged. This needs nodes >= 1 and runtime >= 1 for every queued job
//   (HtcServer::submit asserts both; DC_INVARIANT checks them in the
//   `checked` preset).
// tests/sched/conservative_backfill_differential_test.cpp checks that the
// picks equal those of the original std::map implementation.
#pragma once

#include "sched/scheduler.hpp"

namespace dc::sched {

class ConservativeBackfillScheduler final : public Scheduler {
 public:
  std::vector<std::size_t> select(std::span<const Job* const> queue,
                                  std::span<const Job* const> running,
                                  std::int64_t idle_nodes,
                                  SimTime now) const override;

  const char* name() const override { return "conservative-backfill"; }
};

}  // namespace dc::sched
