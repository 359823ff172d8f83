// Differential test: the flat-profile conservative backfilling scheduler
// must pick exactly what the original std::map implementation picks
// (conservative_backfill_reference.hpp) on randomized queues and running
// sets.
#include <gtest/gtest.h>

#include "conservative_backfill_reference.hpp"
#include "sched/conservative_backfill.hpp"
#include "util/rng.hpp"

namespace dc::sched {
namespace {

struct Case {
  std::vector<Job> queued;
  std::vector<Job> running;
  std::int64_t idle = 0;
  SimTime now = 0;
};

/// Draws one scheduling instant. Release times come from a coarse grid so
/// that expected_end values collide (and sometimes equal `now`), and some
/// running jobs carry checkpointed work, which moves their expected_end.
Case draw_case(Rng& rng) {
  Case c;
  c.now = rng.bernoulli(0.2) ? 0 : rng.uniform_int(1, 100'000);
  c.idle = rng.bernoulli(0.25) ? 0 : rng.uniform_int(1, 48);
  const std::int64_t running = rng.uniform_int(0, 40);
  std::int64_t machine = c.idle;
  for (std::int64_t i = 0; i < running; ++i) {
    Job job;
    job.id = i;
    job.nodes = rng.uniform_int(1, 16);
    job.runtime = rng.uniform_int(1, 6000);
    if (rng.bernoulli(0.3)) {
      job.completed_work = rng.uniform_int(0, job.runtime - 1);
    }
    // expected_end = start + runtime - completed_work, drawn on a 300 s grid
    // from `now` (step 0 is the job ending this instant).
    const SimTime end = c.now + 300 * rng.uniform_int(0, 12);
    job.start = end - job.runtime + job.completed_work;
    job.state = JobState::kRunning;
    machine += job.nodes;
    c.running.push_back(job);
  }
  const std::int64_t queued = rng.uniform_int(0, 60);
  for (std::int64_t i = 0; i < queued; ++i) {
    Job job;
    job.id = running + i;
    // Mostly narrow, sometimes wider than the whole machine.
    job.nodes = rng.bernoulli(0.05) ? machine + rng.uniform_int(1, 8)
                                    : rng.uniform_int(1, 24);
    job.runtime = rng.bernoulli(0.3) ? 300 * rng.uniform_int(1, 6)
                                     : rng.uniform_int(1, 6000);
    job.state = JobState::kQueued;
    c.queued.push_back(job);
  }
  return c;
}

std::vector<const Job*> views(const std::vector<Job>& jobs) {
  std::vector<const Job*> out;
  for (const Job& job : jobs) out.push_back(&job);
  return out;
}

TEST(ConservativeBackfillDifferential, MatchesMapProfileReference) {
  Rng rng(20261019);
  const ConservativeBackfillScheduler scheduler;
  constexpr int kCases = 4000;
  int nonempty = 0;
  for (int n = 0; n < kCases; ++n) {
    const Case c = draw_case(rng);
    const auto queue = views(c.queued);
    const auto running = views(c.running);
    const auto expected =
        reference::conservative_select(queue, running, c.idle, c.now);
    const auto picks = scheduler.select(queue, running, c.idle, c.now);
    ASSERT_EQ(picks, expected)
        << "case " << n << ": now=" << c.now << " idle=" << c.idle
        << " running=" << c.running.size() << " queued=" << c.queued.size();
    if (!picks.empty()) ++nonempty;
  }
  // The draw must exercise real backfilling, not only empty answers.
  EXPECT_GT(nonempty, kCases / 3);
}

}  // namespace
}  // namespace dc::sched
