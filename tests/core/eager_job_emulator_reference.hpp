// Reference job emulator: the original eager implementation, kept as the
// oracle for the arrival-stream emulator in src/core/job_emulator.cpp. It
// schedules one kernel event per trace job at registration, each carrying
// a copy of the submit callback and the job (a heap-allocated capture), so
// every future arrival sits in the event queue for the whole run. It exists
// only so the differential test can demand identical dispatch order, kernel
// counters and snapshot bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "workload/trace.hpp"

namespace dc::core::reference {

class EagerJobEmulator {
 public:
  explicit EagerJobEmulator(sim::Simulator& simulator, double time_scale = 1.0,
                            bool passive = false)
      : simulator_(&simulator), time_scale_(time_scale), passive_(passive) {}

  void emulate_trace(const workload::Trace& trace,
                     std::function<void(const workload::TraceJob&)> submit) {
    TraceStream stream;
    stream.submit = std::move(submit);
    stream.scaled_jobs.reserve(trace.jobs().size());
    for (const workload::TraceJob& job : trace.jobs()) {
      workload::TraceJob scaled = job;
      if (time_scale_ != 1.0) {
        scaled.submit = static_cast<SimTime>(static_cast<double>(job.submit) /
                                             time_scale_);
        scaled.runtime = std::max<SimDuration>(
            1, static_cast<SimDuration>(static_cast<double>(job.runtime) /
                                        time_scale_));
      }
      stream.scaled_jobs.push_back(scaled);
    }
    stream.events.assign(stream.scaled_jobs.size(), sim::kInvalidEvent);
    if (!passive_) {
      for (std::size_t i = 0; i < stream.scaled_jobs.size(); ++i) {
        const workload::TraceJob& scaled = stream.scaled_jobs[i];
        stream.events[i] = simulator_->schedule_at(
            scaled.submit,
            [submit = stream.submit, scaled] { submit(scaled); });
      }
    }
    streams_.push_back(std::move(stream));
  }

  void emulate_at(SimTime at, std::function<void()> submit) {
    OneShot oneshot;
    oneshot.at = time_scale_ == 1.0
                     ? at
                     : static_cast<SimTime>(static_cast<double>(at) /
                                            time_scale_);
    oneshot.submit = std::move(submit);
    if (!passive_) {
      oneshot.event = simulator_->schedule_at(
          oneshot.at, [submit = oneshot.submit] { submit(); });
    }
    oneshots_.push_back(std::move(oneshot));
  }

  Status save(snapshot::SnapshotWriter& writer) const {
    writer.field_u64("stream_count", streams_.size());
    for (const TraceStream& stream : streams_) {
      std::vector<std::pair<std::uint64_t, sim::Simulator::PendingEventInfo>>
          pending;
      for (std::size_t i = 0; i < stream.events.size(); ++i) {
        if (auto info = simulator_->pending_event_info(stream.events[i])) {
          pending.emplace_back(i, *info);
        }
      }
      writer.field_u64("pending_count", pending.size());
      for (const auto& [index, info] : pending) {
        writer.field_u64("job_index", index);
        writer.field_time("time", info.time);
        writer.field_u64("seq", info.seq);
      }
    }
    writer.field_u64("oneshot_count", oneshots_.size());
    for (const OneShot& oneshot : oneshots_) {
      const auto info = simulator_->pending_event_info(oneshot.event);
      writer.field_bool("pending", info.has_value());
      if (info.has_value()) {
        writer.field_time("time", info->time);
        writer.field_u64("seq", info->seq);
      }
    }
    return Status::ok();
  }

  Status restore(snapshot::SnapshotReader& reader) {
    std::uint64_t stream_count = 0;
    if (auto st = reader.read_u64("stream_count", stream_count); !st.is_ok()) {
      return st;
    }
    if (stream_count != streams_.size()) {
      return Status::failed_precondition("stream count mismatch");
    }
    for (TraceStream& stream : streams_) {
      std::uint64_t pending_count = 0;
      if (auto st = reader.read_u64("pending_count", pending_count);
          !st.is_ok()) {
        return st;
      }
      for (std::uint64_t p = 0; p < pending_count; ++p) {
        std::uint64_t index = 0;
        if (auto st = reader.read_u64("job_index", index); !st.is_ok()) {
          return st;
        }
        if (index >= stream.scaled_jobs.size()) {
          return Status::failed_precondition("pending index out of range");
        }
        SimTime time = 0;
        if (auto st = reader.read_time("time", time); !st.is_ok()) return st;
        std::uint64_t seq = 0;
        if (auto st = reader.read_u64("seq", seq); !st.is_ok()) return st;
        const workload::TraceJob& scaled = stream.scaled_jobs[index];
        stream.events[index] = simulator_->restore_event(
            time, static_cast<std::uint32_t>(seq),
            [submit = stream.submit, scaled] { submit(scaled); });
      }
    }
    std::uint64_t oneshot_count = 0;
    if (auto st = reader.read_u64("oneshot_count", oneshot_count);
        !st.is_ok()) {
      return st;
    }
    if (oneshot_count != oneshots_.size()) {
      return Status::failed_precondition("one-shot count mismatch");
    }
    for (OneShot& oneshot : oneshots_) {
      bool pending = false;
      if (auto st = reader.read_bool("pending", pending); !st.is_ok()) {
        return st;
      }
      if (!pending) continue;
      SimTime time = 0;
      if (auto st = reader.read_time("time", time); !st.is_ok()) return st;
      std::uint64_t seq = 0;
      if (auto st = reader.read_u64("seq", seq); !st.is_ok()) return st;
      oneshot.event = simulator_->restore_event(
          time, static_cast<std::uint32_t>(seq),
          [submit = oneshot.submit] { submit(); });
    }
    return Status::ok();
  }

 private:
  struct TraceStream {
    std::function<void(const workload::TraceJob&)> submit;
    std::vector<workload::TraceJob> scaled_jobs;
    std::vector<sim::EventId> events;  // parallel to scaled_jobs
  };
  struct OneShot {
    std::function<void()> submit;
    SimTime at = 0;
    sim::EventId event = sim::kInvalidEvent;
  };

  sim::Simulator* simulator_;
  double time_scale_;
  bool passive_;
  std::vector<TraceStream> streams_;
  std::vector<OneShot> oneshots_;
};

}  // namespace dc::core::reference
