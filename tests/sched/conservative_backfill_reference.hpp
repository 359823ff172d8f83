// Reference conservative backfilling: the original std::map availability
// profile, kept verbatim as the oracle for the flat-profile scheduler in
// src/sched/conservative_backfill.cpp. It is quadratic (every release walks
// to the end of the map, every candidate rescans its window) and exists
// only so the differential test can demand identical picks.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "sched/job.hpp"
#include "util/time.hpp"

namespace dc::sched::reference {

/// A piecewise-constant availability profile over future time, built from
/// running-job releases and consumed by reservations.
class MapProfile {
 public:
  MapProfile(SimTime now, std::int64_t idle) { avail_[now] = idle; }

  /// Adds `nodes` becoming free at time `at`.
  void add_release(SimTime at, std::int64_t nodes) {
    ensure_point(at);
    for (auto it = avail_.lower_bound(at); it != avail_.end(); ++it) {
      it->second += nodes;
    }
  }

  /// Earliest time >= `from` at which `nodes` are continuously available
  /// for `duration` seconds.
  SimTime earliest_fit(SimTime from, std::int64_t nodes,
                       SimDuration duration) const {
    auto start_it = avail_.lower_bound(from);
    if (start_it == avail_.end() || start_it->first != from) {
      // Availability at `from` equals the previous breakpoint's level.
      --start_it;
    }
    for (auto it = start_it; it != avail_.end(); ++it) {
      const SimTime candidate = std::max(from, it->first);
      if (fits(candidate, nodes, duration)) return candidate;
    }
    return kNever;  // the job is wider than the machine will ever be
  }

  /// Reserves `nodes` over [start, start+duration).
  void reserve(SimTime start, std::int64_t nodes, SimDuration duration) {
    ensure_point(start);
    ensure_point(start + duration);
    for (auto it = avail_.lower_bound(start);
         it != avail_.end() && it->first < start + duration; ++it) {
      it->second -= nodes;
    }
  }

 private:
  bool fits(SimTime start, std::int64_t nodes, SimDuration duration) const {
    auto it = avail_.upper_bound(start);
    --it;  // segment containing `start`
    for (; it != avail_.end() && it->first < start + duration; ++it) {
      if (it->second < nodes) return false;
    }
    return true;
  }

  void ensure_point(SimTime at) {
    auto it = avail_.upper_bound(at);
    if (it == avail_.begin()) {
      avail_[at];  // before the first point: level 0
      return;
    }
    --it;
    if (it->first != at) avail_[at] = it->second;
  }

  std::map<SimTime, std::int64_t> avail_;
};

/// Conservative backfilling's picks, computed the original way.
inline std::vector<std::size_t> conservative_select(
    std::span<const Job* const> queue, std::span<const Job* const> running,
    std::int64_t idle_nodes, SimTime now) {
  MapProfile profile(now, idle_nodes);
  for (const Job* job : running) {
    profile.add_release(std::max(job->expected_end(), now + 1), job->nodes);
  }
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Job* job = queue[i];
    const SimTime start = profile.earliest_fit(now, job->nodes, job->runtime);
    if (start == kNever) continue;
    profile.reserve(start, job->nodes, job->runtime);
    if (start == now) picks.push_back(i);
  }
  return picks;
}

}  // namespace dc::sched::reference
