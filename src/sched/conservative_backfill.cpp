#include "sched/conservative_backfill.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace dc::sched {
namespace {

/// One breakpoint of the availability profile: `level` nodes are free from
/// `at` until the next breakpoint; the last breakpoint's level holds forever.
struct Step {
  SimTime at;
  std::int64_t level;
};

/// A piecewise-constant availability profile over future time, kept as a
/// flat vector of breakpoints sorted by time. Built from running-job
/// releases and consumed by reservations.
class Profile {
 public:
  Profile(SimTime now, std::int64_t idle, std::span<const Job* const> running) {
    // Until the prefix sum below, `level` holds each step's change.
    steps_.reserve(running.size() + 1);
    steps_.push_back({now, idle});
    for (const Job* job : running) {
      // A job can be "running" with expected_end == now when its completion
      // event sits later in the current simulation instant; its nodes are
      // not usable by this dispatch, so releases are clamped to the future.
      steps_.push_back({std::max(job->expected_end(), now + 1), job->nodes});
    }
    std::sort(steps_.begin() + 1, steps_.end(),
              [](const Step& a, const Step& b) { return a.at < b.at; });
    // Merge equal release times and turn changes into levels.
    std::int64_t level = 0;
    std::size_t out = 0;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      level += steps_[i].level;
      if (out > 0 && steps_[out - 1].at == steps_[i].at) {
        steps_[out - 1].level = level;
      } else {
        steps_[out++] = {steps_[i].at, level};
      }
    }
    steps_.resize(out);
  }

  /// Free nodes at `now` (the first breakpoint).
  std::int64_t level_now() const { return steps_.front().level; }

  /// Index of the earliest breakpoint at which `nodes` are continuously
  /// available for `duration` seconds, or `size()` if there is none (the
  /// job is wider than the machine will ever be). One forward pass: a
  /// segment below `nodes` inside the current candidate's window also lies
  /// inside the window of every later candidate up to it, so the next
  /// candidate is the breakpoint after that segment.
  std::size_t earliest_fit(std::int64_t nodes, SimDuration duration) const {
    std::size_t candidate = 0;
    for (std::size_t i = 0;
         i < steps_.size() && steps_[i].at < steps_[candidate].at + duration;
         ++i) {
      if (steps_[i].level < nodes) candidate = i + 1;
    }
    return candidate;
  }

  /// Reserves `nodes` over [at(first), at(first)+duration).
  void reserve(std::size_t first, std::int64_t nodes, SimDuration duration) {
    const SimTime end = steps_[first].at + duration;
    auto last = std::lower_bound(
        steps_.begin() + static_cast<std::ptrdiff_t>(first), steps_.end(), end,
        [](const Step& step, SimTime at) { return step.at < at; });
    if (last == steps_.end() || last->at != end) {
      last = steps_.insert(last, {end, std::prev(last)->level});
    }
    for (auto it = steps_.begin() + static_cast<std::ptrdiff_t>(first);
         it != last; ++it) {
      it->level -= nodes;
    }
  }

  std::size_t size() const { return steps_.size(); }

 private:
  std::vector<Step> steps_;
};

}  // namespace

std::vector<std::size_t> ConservativeBackfillScheduler::select(
    std::span<const Job* const> queue, std::span<const Job* const> running,
    std::int64_t idle_nodes, SimTime now) const {
  Profile profile(now, idle_nodes, running);
  // narrowest[i]: the smallest width among queue[i..], for the early exit.
  std::vector<std::int64_t> narrowest(queue.size() + 1,
                                      std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = queue.size(); i-- > 0;) {
    DC_INVARIANT(queue[i]->nodes >= 1, "queued job without nodes");
    DC_INVARIANT(queue[i]->runtime >= 1, "queued job without runtime");
    narrowest[i] = std::min(queue[i]->nodes, narrowest[i + 1]);
  }
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    // Reservations only lower levels, so once no remaining job fits the
    // nodes free now, none of them can start now.
    if (profile.level_now() < narrowest[i]) break;
    const Job* job = queue[i];
    const std::size_t start = profile.earliest_fit(job->nodes, job->runtime);
    if (start == profile.size()) continue;  // wider than the machine
    if (start == 0) picks.push_back(i);  // breakpoint 0 is `now`
    profile.reserve(start, job->nodes, job->runtime);
  }
  return picks;
}

}  // namespace dc::sched
