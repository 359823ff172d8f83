// The job emulator (Figures 6-8).
//
// "For all emulated systems, the job emulator is used to emulate the
// process of submitting jobs. For HTC workload, the job emulator generates
// jobs by reading the trace file, and then submits jobs. For MTC workload,
// the job emulator reads the workflow file, generates each job ... and then
// submits jobs according to the dependency constraints." (Section 4.1.)
//
// Here the emulator schedules submission callbacks on the simulator; the
// dependency-constrained release of MTC jobs is performed by the receiving
// server's trigger monitor (DawningCloud/SSP/DCS) or by the DRP runner.
//
// The paper speeds up submission and completion by a factor of 100 to make
// wall-clock emulation feasible; a discrete-event simulation does not need
// that, but the same `time_scale` knob is provided (submit times and
// runtimes divided by the factor) so tests can exercise the paper's scaled
// mode and its interaction with the fixed one-hour billing quantum.
//
// Arrival streams: emulate_trace reserves one block of consecutive
// sequence numbers for the whole trace from the kernel
// (Simulator::reserve_seqs) and keeps only the stream's next submission
// armed; its fire handler arms the following job, then submits its own.
// The kernel counts the unarmed rest as pending, so event counts, seqs and
// the dispatch order are exactly those of one event per job armed at
// registration — (time, seq) is a total order, traces are sorted by
// submit time and `time_scale` is monotone — while the event queue holds
// one node per stream instead of one per future arrival, and no handler
// allocates. Handlers point back into the emulator: it must outlive the
// simulator's dispatch (declare it after the Simulator, or own both) and
// is neither copyable nor movable.
//
// Snapshot support: every emulate_trace/emulate_at call registers a
// *stream* — the scaled jobs plus the submit callback — in call order. A
// snapshot records, per stream, which submissions are still pending and
// their (time, seq), derived from the stream's cursor: always a suffix of
// the stream with consecutive seqs. A passive emulator (constructed with
// passive=true) records the same streams without scheduling anything, and
// restore() checks that suffix shape and re-opens each stream at its
// cursor. Stream registration order is the identity of a stream across
// save/restore, so the driver must replay the same emulate_* call
// sequence when rebuilding the world.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "workload/trace.hpp"

namespace dc::core {

class JobEmulator {
 public:
  explicit JobEmulator(sim::Simulator& simulator, double time_scale = 1.0,
                       bool passive = false)
      : simulator_(&simulator), time_scale_(time_scale), passive_(passive) {}
  JobEmulator(const JobEmulator&) = delete;
  JobEmulator& operator=(const JobEmulator&) = delete;

  /// Submits every trace job at its (possibly time-scaled) submit time,
  /// in trace order, as an arrival stream (unless passive). The callback
  /// receives the scaled job.
  void emulate_trace(const workload::Trace& trace,
                     std::function<void(const workload::TraceJob&)> submit);

  /// Schedules a one-shot submission (e.g. a workflow) at `at`.
  void emulate_at(SimTime at, std::function<void()> submit);

  double time_scale() const { return time_scale_; }
  bool passive() const { return passive_; }

  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  // One trace's submissions. scaled_jobs[next] is armed as `armed` with
  // the first unarmed seq of block `seqs`; jobs after it wait, unarmed, in
  // the kernel's reserved block. next == scaled_jobs.size() once drained
  // (and in a passive emulator until restore).
  struct TraceStream {
    std::function<void(const workload::TraceJob&)> submit;
    std::vector<workload::TraceJob> scaled_jobs;
    sim::Simulator::SeqBlockId seqs = 0;
    std::size_t next = 0;
    sim::EventId armed = sim::kInvalidEvent;
  };
  struct OneShot {
    std::function<void()> submit;
    SimTime at = 0;  // scaled
    sim::EventId event = sim::kInvalidEvent;
  };

  // Arms stream->scaled_jobs[stream->next] with its reserved seq.
  sim::EventId arm(TraceStream* stream);
  void fire(TraceStream* stream, std::size_t index);

  sim::Simulator* simulator_;
  double time_scale_;  // dc-volatile: fixed by config
  bool passive_;       // dc-volatile: fixed by config
  std::deque<TraceStream> streams_;  // a deque: handlers hold stream pointers
  std::vector<OneShot> oneshots_;
};

}  // namespace dc::core
