#include "core/job_emulator.hpp"

#include <algorithm>
#include <cassert>

#include "util/check.hpp"

namespace dc::core {

void JobEmulator::emulate_trace(
    const workload::Trace& trace,
    std::function<void(const workload::TraceJob&)> submit) {
  TraceStream& stream = streams_.emplace_back();
  stream.submit = std::move(submit);
  stream.scaled_jobs.reserve(trace.jobs().size());
  for (const workload::TraceJob& job : trace.jobs()) {
    workload::TraceJob scaled = job;
    if (time_scale_ != 1.0) {
      scaled.submit =
          static_cast<SimTime>(static_cast<double>(job.submit) / time_scale_);
      scaled.runtime = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(job.runtime) /
                                      time_scale_));
    }
    // Firing in stream order is (time, seq) order only if the scaled
    // submit times never decrease: traces are sorted by submit time and
    // the scaling is monotone.
    DC_INVARIANT(stream.scaled_jobs.empty() ||
                     stream.scaled_jobs.back().submit <= scaled.submit,
                 "trace stream submit times must be nondecreasing");
    stream.scaled_jobs.push_back(scaled);
  }
  stream.next = stream.scaled_jobs.size();
  if (!passive_ && !stream.scaled_jobs.empty()) {
    stream.seqs = simulator_->reserve_seqs(
        static_cast<std::uint32_t>(stream.scaled_jobs.size()));
    stream.next = 0;
    stream.armed = arm(&stream);
  }
}

sim::EventId JobEmulator::arm(TraceStream* stream) {
  const std::size_t index = stream->next;
  return simulator_->schedule_reserved(
      stream->seqs, stream->scaled_jobs[index].submit,
      [this, stream, index] { fire(stream, index); });
}

void JobEmulator::fire(TraceStream* stream, std::size_t index) {
  assert(index == stream->next && "stream fired out of order");
  // Arm the successor first: it takes the next reserved seq, exactly the
  // seq it would have held had every job been scheduled at registration.
  stream->next = index + 1;
  stream->armed = stream->next < stream->scaled_jobs.size()
                      ? arm(stream)
                      : sim::kInvalidEvent;
  stream->submit(stream->scaled_jobs[index]);
}

void JobEmulator::emulate_at(SimTime at, std::function<void()> submit) {
  OneShot oneshot;
  oneshot.at = time_scale_ == 1.0
                   ? at
                   : static_cast<SimTime>(static_cast<double>(at) / time_scale_);
  oneshot.submit = std::move(submit);
  if (!passive_) {
    oneshot.event = simulator_->schedule_at(
        oneshot.at, [submit = oneshot.submit] { submit(); });
  }
  oneshots_.push_back(std::move(oneshot));
}

Status JobEmulator::save(snapshot::SnapshotWriter& writer) const {
  writer.field_u64("stream_count", streams_.size());
  for (const TraceStream& stream : streams_) {
    // The pending submissions are the suffix from the cursor, holding
    // consecutive seqs from the armed job's.
    const auto armed = simulator_->pending_event_info(stream.armed);
    const std::size_t pending =
        armed.has_value() ? stream.scaled_jobs.size() - stream.next : 0;
    writer.field_u64("pending_count", pending);
    for (std::size_t k = 0; k < pending; ++k) {
      writer.field_u64("job_index", stream.next + k);
      writer.field_time("time", stream.scaled_jobs[stream.next + k].submit);
      writer.field_u64("seq", armed->seq + k);
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

Status JobEmulator::restore(snapshot::SnapshotReader& reader) {
  std::uint64_t stream_count = 0;
  if (auto st = reader.read_u64("stream_count", stream_count); !st.is_ok()) {
    return st;
  }
  if (stream_count != streams_.size()) {
    return Status::failed_precondition(
        "job emulator: snapshot has " + std::to_string(stream_count) +
        " trace streams but the rebuilt emulator registered " +
        std::to_string(streams_.size()) +
        " — the snapshot belongs to a different workload");
  }
  for (TraceStream& stream : streams_) {
    std::uint64_t pending_count = 0;
    if (auto st = reader.read_u64("pending_count", pending_count);
        !st.is_ok()) {
      return st;
    }
    const std::size_t size = stream.scaled_jobs.size();
    if (pending_count > size) {
      return Status::failed_precondition(
          "job emulator: snapshot has " + std::to_string(pending_count) +
          " pending submissions for a stream of " + std::to_string(size) +
          " jobs");
    }
    // A stream fires in order, so what is pending is always its suffix
    // from the cursor, with consecutive seqs at the jobs' submit times.
    const std::size_t first = size - static_cast<std::size_t>(pending_count);
    std::uint64_t first_seq = 0;
    SimTime first_time = 0;
    for (std::uint64_t p = 0; p < pending_count; ++p) {
      std::uint64_t index = 0;
      if (auto st = reader.read_u64("job_index", index); !st.is_ok()) return st;
      SimTime time = 0;
      if (auto st = reader.read_time("time", time); !st.is_ok()) return st;
      std::uint64_t seq = 0;
      if (auto st = reader.read_u64("seq", seq); !st.is_ok()) return st;
      if (index != first + p) {
        return Status::failed_precondition(
            "job emulator: pending submission index " + std::to_string(index) +
            " where the stream's pending suffix has job " +
            std::to_string(first + p) + " of " + std::to_string(size));
      }
      if (time != stream.scaled_jobs[index].submit) {
        return Status::failed_precondition(
            "job emulator: pending submission " + std::to_string(index) +
            " at time " + std::to_string(time) + " but the job submits at " +
            std::to_string(stream.scaled_jobs[index].submit));
      }
      if (p == 0) {
        first_seq = seq;
        first_time = time;
      } else if (seq != first_seq + p) {
        return Status::failed_precondition(
            "job emulator: pending submission " + std::to_string(index) +
            " has seq " + std::to_string(seq) + ", not the consecutive " +
            std::to_string(first_seq + p));
      }
    }
    if (pending_count == 0) continue;
    const std::uint32_t next_seq = simulator_->next_seq();
    if (first_seq == 0 || first_seq >= next_seq ||
        pending_count > next_seq - first_seq || first_time < simulator_->now()) {
      return Status::failed_precondition(
          "job emulator: pending submissions (seqs " +
          std::to_string(first_seq) + "+" + std::to_string(pending_count) +
          ", from time " + std::to_string(first_time) +
          ") lie outside the restored kernel's counter or clock");
    }
    stream.seqs = simulator_->restore_seqs(
        static_cast<std::uint32_t>(first_seq),
        static_cast<std::uint32_t>(pending_count));
    stream.next = first;
    stream.armed = arm(&stream);
  }
  std::uint64_t oneshot_count = 0;
  if (auto st = reader.read_u64("oneshot_count", oneshot_count); !st.is_ok()) {
    return st;
  }
  if (oneshot_count != oneshots_.size()) {
    return Status::failed_precondition(
        "job emulator: snapshot has " + std::to_string(oneshot_count) +
        " one-shot submissions but the rebuilt emulator registered " +
        std::to_string(oneshots_.size()));
  }
  for (OneShot& oneshot : oneshots_) {
    bool pending = false;
    if (auto st = reader.read_bool("pending", pending); !st.is_ok()) return st;
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

}  // namespace dc::core
