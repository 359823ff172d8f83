// Performance benchmark of the DawningCloud reproduction (see README.md).
//
// One process builds one workload's inputs, runs its cycles for a fixed
// time, checks every cycle's outputs, and prints one JSON line:
//
//   dc_perfbench --workload paper|backfill|scaled|durable --seed N
//                --seconds S --trace 0|1 --golden FILE --workdir DIR
//                [--min-cycles N] [--emit-golden]
//
// DIR is emptied first and removed at the end; a traced run leaves its
// span log beside it, in DIR/../spans/<workload>-seed<N>.csv.
//
// --trace 0 times untraced cycles and reports the end-to-end metrics.
// --trace 1 records spans around every call the benchmark makes into a
// layer of src/, reads the kernel's PhaseProfiler, and reports the
// per-layer metrics instead. The two modes never share a timed cycle.
//
// Besides `correct`, `attempted`, `failed` and `metrics`, the line carries
// `exact` (the work counters that must repeat exactly for equal seeds)
// and `info`; run.py checks the former across runs and strips both.
#include <fcntl.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <deque>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/federation.hpp"
#include "core/paper.hpp"
#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rundb/report.hpp"
#include "rundb/store.hpp"
#include "sched/conservative_backfill.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/first_fit.hpp"
#include "sched/sjf.hpp"
#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/swf.hpp"

namespace {

using namespace dc;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- settings

/// Cycles needed so that 10 samples lie beyond the 75th percentile.
constexpr int kMinCycles = 40;
/// Traced runs alternate traced and untraced cycles; at least this many each.
constexpr int kMinTracedCycles = 5;
/// Set-up is timed this many times before the cycles and its median
/// reported, so one cold construction cannot set the figure. None run
/// between cycles: scaled's set-up writes and frees SWF files.
constexpr int kSetups = 21;
/// Jobs in one run of the reference kernel.
constexpr int kReferenceJobs = 30000;
/// The reference kernel's time at the speed setup_s is expressed in: about
/// its median on the 4-vCPU VM the bounds were set on (7.1-10.2 ms per run).
constexpr double kReferenceNominalS = 0.008;
/// Hard stop for the timed loop, far inside the 180 s a run may take.
constexpr double kMaxLoopS = 120.0;
/// A non-zero seed shifts each provider's submissions by up to this long.
constexpr std::int64_t kMaxShiftMinutes = 60;
/// The scaled workload: the paper's providers repeated this many times.
constexpr int kScaledTriples = 4;
constexpr int kScaledResourceProviders = 4;

const core::SystemModel kModels[] = {
    core::SystemModel::kDcs, core::SystemModel::kSsp, core::SystemModel::kDrp,
    core::SystemModel::kDawningCloud};
const core::HtcSchedulerKind kSchedulers[] = {
    core::HtcSchedulerKind::kFirstFit, core::HtcSchedulerKind::kEasyBackfill,
    core::HtcSchedulerKind::kConservativeBackfill,
    core::HtcSchedulerKind::kSjf};

/// Lower-case system name, as used in metric and golden keys.
std::string model_key(core::SystemModel model) {
  std::string key = core::system_model_name(model);
  for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return key;
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool exact;  // a work counter: must repeat exactly for equal seeds
};

// Every per-layer metric, reported on every workload (0 where the
// workload never calls that layer). BENCHMARK.json lists the same names.
const MetricDef kLayerMetrics[] = {
    {"workload.gen_ms", "ms", false},
    {"workload.swf_write_ms", "ms", false},
    {"workload.swf_parse_ms", "ms", false},
    {"workload.swf_bytes", "bytes", true},
    {"workflow.dag_ms", "ms", false},
    {"core.run_ms.dcs", "ms", false},
    {"core.run_ms.ssp", "ms", false},
    {"core.run_ms.drp", "ms", false},
    {"core.run_ms.dawningcloud", "ms", false},
    {"core.ns_per_event.dcs", "ns", false},
    {"core.ns_per_event.ssp", "ns", false},
    {"core.ns_per_event.drp", "ns", false},
    {"core.ns_per_event.dawningcloud", "ns", false},
    {"core.events.dcs", "count", true},
    {"core.events.ssp", "count", true},
    {"core.events.drp", "count", true},
    {"core.events.dawningcloud", "count", true},
    {"core.federation_ms", "ms", false},
    {"core.run_snapshotted_ms", "ms", false},
    {"core.resume_ms", "ms", false},
    {"sim.dispatch_ms", "ms", false},
    {"sim.dispatch_ns_per_event", "ns", false},
    {"sim.events_processed", "count", true},
    {"sim.peak_pending", "count", true},
    {"sched.run_ms.first-fit", "ms", false},
    {"sched.run_ms.easy-backfill", "ms", false},
    {"sched.run_ms.conservative-backfill", "ms", false},
    {"sched.run_ms.sjf", "ms", false},
    {"sched.select_us.first-fit", "us", false},
    {"sched.select_us.easy-backfill", "us", false},
    {"sched.select_us.conservative-backfill", "us", false},
    {"sched.select_us.sjf", "us", false},
    {"snapshot.save_ms", "ms", false},
    {"snapshot.restore_ms", "ms", false},
    {"snapshot.bytes", "bytes", true},
    {"snapshot.count", "count", true},
    {"obs.trace_overhead_ms", "ms", false},
    {"obs.trace_events", "count", true},
    {"obs.trace_dropped", "count", true},
    {"obs.export_json_ms", "ms", false},
    {"obs.export_csv_ms", "ms", false},
    {"obs.json_bytes", "bytes", true},
    {"obs.parse_json_ms", "ms", false},
    {"rundb.append_ms", "ms", false},
    {"rundb.load_ms", "ms", false},
    {"rundb.query_ms", "ms", false},
    {"rundb.records", "count", true},
    {"fsio.write_ms", "ms", false},
    {"fsio.read_ms", "ms", false},
    {"self_ms.bench", "ms", false},
    {"self_ms.core", "ms", false},
    {"self_ms.sched", "ms", false},
    {"self_ms.snapshot", "ms", false},
    {"self_ms.obs", "ms", false},
    {"self_ms.rundb", "ms", false},
    {"self_ms.fsio", "ms", false},
    {"bench.cycle_ms.p50", "ms", false},
    {"bench.cycle_cpu_ms.p50", "ms", false},
    {"bench.ref_ms.p50", "ms", false},
    {"bench.traced_cycle_ms", "ms", false},
    {"bench.span_overhead_ms", "ms", false},
};

// ------------------------------------------------------------------ clocks

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// -------------------------------------------------------- reference kernel

/// The host's speed, measured with work of the simulator's kind.
///
/// A shared VM's speed swings under other tenants' load: the same cycle
/// takes up to 1.7x longer for stretches of seconds to minutes, and the
/// thread's CPU time swings with it. A fixed kernel of the same kind (a
/// discrete-event simulation: FIFO jobs on a 256-node pool, a binary heap
/// of events, a std::map of running jobs) slows almost as much. It is
/// timed right after every cycle and every set-up: the end-to-end cycle
/// figures are the cycle's time divided by it, and setup_s is the set-up's
/// time divided by it, in seconds at the kernel's nominal speed. The kernel
/// belongs to the benchmark, not to src/, so a change to the simulator
/// never changes it.
struct ReferenceRun {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t checksum = 0;  // node-seconds served; the same on every run
};

/// The kernel's starting state, read at run time so that the compiler
/// cannot fold the kernel's work away.
volatile std::uint64_t reference_state = 0x9E3779B97F4A7C15ULL;

ReferenceRun run_reference_kernel() {
  struct Event {
    std::int64_t time;
    int job;
    bool finish;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : job > o.job;
    }
  };
  struct Job {
    std::int64_t runtime;
    int nodes;
  };
  ReferenceRun run;
  const std::int64_t c0 = thread_cpu_ns();
  const std::int64_t t0 = wall_ns();
  std::vector<Event> storage;
  storage.reserve(2 * kReferenceJobs);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events(
      std::greater<Event>(), std::move(storage));
  std::vector<Job> jobs(kReferenceJobs);
  std::uint64_t x = reference_state;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::int64_t submit = 0;
  for (int i = 0; i < kReferenceJobs; ++i) {
    submit += static_cast<std::int64_t>(next() % 600);
    jobs[static_cast<std::size_t>(i)] = {60 + static_cast<std::int64_t>(next() % 20000),
                                         1 + static_cast<int>(next() % 64)};
    events.push({submit, i, false});
  }
  std::deque<int> waiting;
  std::map<int, std::int64_t> running;  // job -> start
  int idle = 256;
  while (!events.empty()) {
    const Event e = events.top();
    events.pop();
    const Job& job = jobs[static_cast<std::size_t>(e.job)];
    if (e.finish) {
      idle += job.nodes;
      run.checksum += (e.time - running[e.job]) * job.nodes;
      running.erase(e.job);
    } else {
      waiting.push_back(e.job);
    }
    while (!waiting.empty() &&
           jobs[static_cast<std::size_t>(waiting.front())].nodes <= idle) {
      const int j = waiting.front();
      waiting.pop_front();
      idle -= jobs[static_cast<std::size_t>(j)].nodes;
      running[j] = e.time;
      events.push({e.time + jobs[static_cast<std::size_t>(j)].runtime, j, true});
    }
  }
  run.wall_ns = wall_ns() - t0;
  run.cpu_ns = thread_cpu_ns() - c0;
  return run;
}

// ------------------------------------------------------------------- spans

/// One call into a layer: name ("<layer>.<what>"), wall interval, and the
/// span that was open when it began (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span log of a traced run; written out when the run ends.
class SpanLog {
 public:
  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), wall_ns(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  Status write_csv(const std::string& path) const {
    std::string out = "id,parent,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += str_format("%zu,%d,%s,%lld,%lld\n", i, s.parent, s.name.c_str(),
                        static_cast<long long>(s.start_ns),
                        static_cast<long long>(s.end_ns));
    }
    return atomic_write_file(path, out, "perfbench.spans");
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span for its scope when `log` is set; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-span-name total milliseconds and per-layer self time under `root`.
/// A span's self time is its duration minus its children's; its layer is
/// the name up to the first '.'.
void summarize_tree(const std::vector<Span>& spans, int root,
                    std::map<std::string, double>& values) {
  std::vector<bool> inside(spans.size(), false);
  std::vector<double> child_ms(spans.size(), 0.0);
  for (std::size_t i = static_cast<std::size_t>(root); i < spans.size(); ++i) {
    const int p = spans[i].parent;
    inside[i] = static_cast<int>(i) == root ||
                (p >= root && inside[static_cast<std::size_t>(p)]);
    if (!inside[i]) break;  // spans of one tree are contiguous
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside[i] || static_cast<int>(i) == root) continue;
    child_ms[static_cast<std::size_t>(spans[i].parent)] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside[i]) continue;
    const Span& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const auto dot = s.name.find('.');
    const std::string layer = s.name.substr(0, dot);
    values["self_ms." + layer] += ms - child_ms[i];
    if (static_cast<int>(i) == root) continue;
    // "core.run.dcs" feeds core.run_ms.dcs; "rundb.load" feeds rundb.load_ms.
    const auto dot2 = s.name.find('.', dot + 1);
    const std::string metric =
        dot2 == std::string::npos
            ? s.name + "_ms"
            : s.name.substr(0, dot2) + "_ms" + s.name.substr(dot2);
    values[metric] += ms;
  }
}

// ------------------------------------------------------------------ inputs

enum class Workload { kPaper, kBackfill, kScaled, kDurable };

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper") return Workload::kPaper;
  if (name == "backfill") return Workload::kBackfill;
  if (name == "scaled") return Workload::kScaled;
  if (name == "durable") return Workload::kDurable;
  return std::nullopt;
}

/// A seeded whole number of minutes in [1, kMaxShiftMinutes], drawn per
/// provider name; 0 for seed 0.
SimDuration seeded_shift(const std::string& name, std::uint64_t seed) {
  if (seed == 0) return 0;
  Rng rng(seed ^ snapshot::fnv1a(name));
  return kMinute * rng.uniform_int(1, kMaxShiftMinutes);
}

/// The trace moved later by `shift` (a seeded whole number of scan
/// intervals), its observation period extended to match.
/// Only the position of the trace on the time line changes, so the work it
/// causes barely moves with the seed: redrawing or jittering individual
/// submissions changes conservative backfill's cost by up to 7x (generator
/// seeds) or +-14% (per-job jitter of up to 10 min). Seed 0 is the paper's
/// input itself.
workload::Trace shift_trace(const workload::Trace& trace, SimDuration shift) {
  if (shift == 0) return trace;
  std::vector<workload::TraceJob> jobs = trace.jobs();
  for (auto& job : jobs) job.submit += shift;
  workload::Trace out(trace.name(), trace.capacity_nodes(), std::move(jobs));
  out.set_period(trace.period() + shift);
  return out;
}

struct Inputs {
  core::ConsolidationWorkload workload;
  std::vector<core::ResourceProviderSpec> providers;  // scaled only
  std::uint64_t swf_bytes = 0;
};

std::uint64_t digest_inputs(const core::ConsolidationWorkload& workload) {
  std::string bytes;
  for (const auto& spec : workload.htc) {
    bytes += spec.name;
    for (const auto& job : spec.trace.jobs()) {
      bytes += str_format("%lld,%lld,%lld;", static_cast<long long>(job.submit),
                          static_cast<long long>(job.runtime),
                          static_cast<long long>(job.nodes));
    }
  }
  for (const auto& spec : workload.mtc) {
    bytes += str_format("%s@%lld:%zu;", spec.name.c_str(),
                        static_cast<long long>(spec.submit_time),
                        spec.dag.size());
  }
  return snapshot::fnv1a(bytes);
}

/// Writes the trace as an SWF file and reads it back, the path archive
/// traces take into the simulator.
StatusOr<workload::Trace> swf_round_trip(const workload::Trace& trace,
                                         const std::string& path,
                                         std::uint64_t* bytes, SpanLog* spans) {
  {
    ScopedSpan span(spans, "workload.swf_write");
    if (auto st = workload::write_swf_file(path, trace.to_swf()); !st.is_ok()) {
      return st;
    }
  }
  std::error_code ec;
  *bytes += fs::file_size(path, ec);
  ScopedSpan span(spans, "workload.swf_parse");
  auto file = workload::read_swf_file(path);
  if (!file.is_ok()) return file.status();
  return workload::Trace::from_swf(*file, trace.name());
}

StatusOr<Inputs> build_inputs(Workload w, std::uint64_t seed,
                              const std::string& workdir, SpanLog* spans) {
  ScopedSpan root(spans, "bench.setup");
  Inputs in;
  const int triples = w == Workload::kScaled ? kScaledTriples : 1;
  for (int i = 0; i < triples; ++i) {
    // The scaled workload re-seeds each copy like bench/future_nxm.
    const auto base = static_cast<std::uint64_t>(100 * i);
    const std::string suffix = w == Workload::kScaled ? str_format("-%d", i) : "";
    core::HtcWorkloadSpec nasa, blue;
    {
      ScopedSpan span(spans, "workload.gen");
      nasa = core::paper_nasa_spec(core::PaperSeeds{}.nasa + base);
      blue = core::paper_blue_spec(core::PaperSeeds{}.blue + base);
    }
    core::MtcWorkloadSpec montage;
    {
      ScopedSpan span(spans, "workflow.dag");
      montage = core::paper_montage_spec(core::PaperSeeds{}.montage + base);
    }
    for (core::HtcWorkloadSpec* spec : {&nasa, &blue}) {
      spec->name += suffix;
      spec->trace = shift_trace(spec->trace, seeded_shift(spec->name, seed));
    }
    montage.name += suffix;
    if (w == Workload::kScaled) {
      montage.submit_time = (4 + 2 * i) * kDay + 14 * kHour;
    }
    montage.submit_time += seeded_shift(montage.name, seed);
    in.workload.htc.push_back(std::move(nasa));
    in.workload.htc.push_back(std::move(blue));
    in.workload.mtc.push_back(std::move(montage));
  }
  if (w == Workload::kScaled) {
    for (auto& spec : in.workload.htc) {
      auto parsed = swf_round_trip(spec.trace, workdir + "/" + spec.name + ".swf",
                                   &in.swf_bytes, spans);
      if (!parsed.is_ok()) return parsed.status();
      spec.trace = std::move(*parsed);
    }
    // Staggered capacities summing to ~1.2x the subscribed demand and
    // staggered prices, as in bench/future_nxm.
    std::int64_t demand = 0;
    for (const auto& spec : in.workload.htc) demand += spec.fixed_nodes;
    for (const auto& spec : in.workload.mtc) demand += spec.fixed_nodes;
    for (int i = 0; i < kScaledResourceProviders; ++i) {
      core::ResourceProviderSpec rp;
      rp.name = str_format("RP%d", i);
      rp.capacity = demand * (12 + 3 * i) / (10 * kScaledResourceProviders);
      rp.price_per_node_hour = 0.10 + 0.02 * i;
      in.providers.push_back(std::move(rp));
    }
  }
  return in;
}

// ------------------------------------------------------------------ cycles

/// What one cycle produced: golden-comparable results, invariant
/// violations, exact work counters and (traced) per-layer values.
struct Outcome {
  std::vector<std::pair<std::string, std::int64_t>> results;
  std::vector<std::string> violations;
  std::map<std::string, double> exact;
  std::map<std::string, double> layer;
};

void add_system(Outcome& out, const std::string& prefix,
                const core::SystemResult& r) {
  for (const auto& p : r.providers) {
    const std::string key = prefix + "/" + p.provider;
    out.results.emplace_back(key + ".completed", p.completed_jobs);
    out.results.emplace_back(key + ".node_hours", p.consumption_node_hours);
    out.results.emplace_back(key + ".peak_nodes", p.peak_nodes);
    if (p.completed_jobs > p.submitted_jobs) {
      out.violations.push_back(key + ": completed > submitted");
    }
  }
  out.results.emplace_back(prefix + ".node_hours", r.total_consumption_node_hours);
  out.results.emplace_back(prefix + ".peak_nodes", r.peak_nodes);
  out.results.emplace_back(prefix + ".adjusted_nodes", r.adjusted_nodes);
  out.results.emplace_back(prefix + ".simulated_events",
                           static_cast<std::int64_t>(r.simulated_events));
}

/// Every field of a result, for exact equality of two runs.
std::string fingerprint(const core::SystemResult& r) {
  std::string s = str_format(
      "%s %lld %lld %lld %lld %.17g %lld %llu", system_model_name(r.model),
      static_cast<long long>(r.horizon),
      static_cast<long long>(r.total_consumption_node_hours),
      static_cast<long long>(r.peak_nodes),
      static_cast<long long>(r.adjusted_nodes), r.overhead_seconds,
      static_cast<long long>(r.rejected_requests),
      static_cast<unsigned long long>(r.simulated_events));
  for (const auto& p : r.providers) {
    s += str_format(" | %s %lld %lld %lld %.17g %lld %.17g %lld", p.provider.c_str(),
                    static_cast<long long>(p.submitted_jobs),
                    static_cast<long long>(p.completed_jobs),
                    static_cast<long long>(p.consumption_node_hours),
                    p.exact_node_hours, static_cast<long long>(p.peak_nodes),
                    p.mean_wait_seconds, static_cast<long long>(p.makespan));
  }
  for (const auto v : r.hourly_peak_series) s += str_format(",%lld", static_cast<long long>(v));
  return s;
}

/// Folds one profiled run's kernel counters into the cycle's sim.* values.
void add_profile(Outcome& out, const obs::PhaseProfiler& profile,
                 const core::SystemResult& r) {
  out.layer["sim.dispatch_ms"] +=
      static_cast<double>(profile.ns(obs::ProfilePhase::kDispatch)) / 1e6;
  out.layer["snapshot.save_ms"] +=
      static_cast<double>(profile.ns(obs::ProfilePhase::kSnapshotSave)) / 1e6;
  out.exact["sim.events_processed"] += static_cast<double>(r.simulated_events);
  for (const auto& [name, value] : profile.counters()) {
    if (name == "peak_pending") {
      out.exact["sim.peak_pending"] = std::max(out.exact["sim.peak_pending"], value);
    }
  }
}

struct Context {
  Workload workload;
  std::string workdir;
  SpanLog* spans = nullptr;  // set for traced cycles only
};

Outcome paper_cycle(const Inputs& in, const Context& ctx) {
  Outcome out;
  // run_all_systems, one system at a time so each gets its own span.
  std::vector<core::SystemResult> results;
  for (const auto model : kModels) {
    obs::PhaseProfiler profile;
    core::RunOptions options;
    if (ctx.spans != nullptr) options.profile = &profile;
    {
      ScopedSpan span(ctx.spans, "core.run." + model_key(model));
      results.push_back(core::run_system(model, in.workload, options));
    }
    if (ctx.spans != nullptr) add_profile(out, profile, results.back());
  }
  const core::SystemResult* by_model[4] = {};
  for (const auto& r : results) {
    add_system(out, model_key(r.model), r);
    out.exact["core.events." + model_key(r.model)] =
        static_cast<double>(r.simulated_events);
    by_model[static_cast<int>(r.model)] = &r;
  }
  const auto total = [&](core::SystemModel m) {
    return by_model[static_cast<int>(m)]->total_consumption_node_hours;
  };
  // The paper's headline: DawningCloud consumes less than SSP and DCS.
  if (!(total(core::SystemModel::kDawningCloud) < total(core::SystemModel::kSsp) &&
        total(core::SystemModel::kDawningCloud) < total(core::SystemModel::kDcs))) {
    out.violations.push_back("DawningCloud does not consume less than SSP and DCS");
  }
  return out;
}

Outcome backfill_cycle(const Inputs& in, const Context& ctx) {
  Outcome out;
  for (const auto kind : kSchedulers) {
    obs::PhaseProfiler profile;
    core::RunOptions options;
    options.htc_scheduler = kind;
    if (ctx.spans != nullptr) options.profile = &profile;
    core::SystemResult r;
    {
      ScopedSpan span(ctx.spans, std::string("sched.run.") + core::htc_scheduler_name(kind));
      r = core::run_system(core::SystemModel::kDawningCloud, in.workload, options);
    }
    if (ctx.spans != nullptr) add_profile(out, profile, r);
    add_system(out, core::htc_scheduler_name(kind), r);
  }
  return out;
}

Outcome scaled_cycle(const Inputs& in, const Context& ctx) {
  Outcome out;
  obs::PhaseProfiler profile;
  core::RunOptions options;
  if (ctx.spans != nullptr) options.profile = &profile;
  core::SystemResult r;
  {
    ScopedSpan span(ctx.spans, "core.run.dawningcloud");
    r = core::run_system(core::SystemModel::kDawningCloud, in.workload, options);
  }
  if (ctx.spans != nullptr) add_profile(out, profile, r);
  add_system(out, "dawningcloud", r);
  out.exact["core.events.dawningcloud"] = static_cast<double>(r.simulated_events);

  core::FederationResult fed;
  {
    ScopedSpan span(ctx.spans, "core.federation");
    fed = core::run_federated_dsp(in.providers, in.workload,
                                  core::PlacementPolicy::kLeastLoaded);
  }
  for (const auto& host : fed.resource_providers) {
    const std::string key = "federation/" + host.name;
    out.results.emplace_back(key + ".hosted_tres", host.hosted_tres);
    out.results.emplace_back(key + ".node_hours", host.billed_node_hours);
    out.results.emplace_back(key + ".peak_nodes", host.peak_nodes);
    out.results.emplace_back(key + ".adjusted_nodes", host.adjusted_nodes);
  }
  for (const auto& p : fed.service_providers) {
    const std::string key = "federation/" + p.provider;
    out.results.emplace_back(key + ".completed", p.completed_jobs);
    out.results.emplace_back(key + ".node_hours", p.consumption_node_hours);
    if (p.completed_jobs > p.submitted_jobs) {
      out.violations.push_back(key + ": completed > submitted");
    }
  }
  out.results.emplace_back("federation.node_hours", fed.total_consumption_node_hours);
  if (fed.unplaced != 0) out.violations.push_back("federation left providers unplaced");
  return out;
}

std::uint64_t dir_bytes(const std::string& dir, std::uint64_t* files) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    bytes += entry.file_size();
    ++*files;
  }
  return bytes;
}

/// Exports the trace as Chrome JSON and CSV (rendered in obs, written
/// through util/fsio), then reads the JSON back and parses it. Each buffer
/// is freed as soon as it is written or parsed.
Status export_trace(const obs::TraceSink& sink, const std::string& dir,
                    SpanLog* spans, Outcome& out, std::string* digest) {
  {
    std::string json;
    {
      ScopedSpan span(spans, "obs.export_json");
      json = sink.chrome_json();
    }
    out.exact["obs.json_bytes"] = static_cast<double>(json.size());
    *digest = str_format("%016llx", static_cast<unsigned long long>(snapshot::fnv1a(json)));
    ScopedSpan span(spans, "fsio.write");
    if (auto st = atomic_write_file(dir + "/trace.json", json, "obs.trace.json"); !st.is_ok()) {
      return st;
    }
  }
  {
    std::string csv;
    {
      ScopedSpan span(spans, "obs.export_csv");
      csv = sink.csv();
    }
    ScopedSpan span(spans, "fsio.write");
    if (auto st = atomic_write_file(dir + "/trace.csv", csv, "obs.trace.csv"); !st.is_ok()) {
      return st;
    }
  }
  StatusOr<std::string> json = Status::internal("not read");
  {
    ScopedSpan span(spans, "fsio.read");
    json = read_file(dir + "/trace.json");
  }
  if (!json.is_ok()) return json.status();
  StatusOr<std::vector<obs::ParsedTraceEvent>> parsed = Status::internal("not parsed");
  {
    ScopedSpan span(spans, "obs.parse_json");
    parsed = obs::parse_chrome_json(*json);
  }
  if (!parsed.is_ok()) return parsed.status();
  if (parsed->size() != sink.size()) {
    out.violations.push_back(str_format("parsed %zu trace events, exported %zu",
                                        parsed->size(), sink.size()));
  }
  return Status::ok();
}

/// One DawningCloud paper run through every I/O path: daily snapshots
/// with tracing on, trace export as JSON and CSV, the JSON parsed back,
/// a resume from the middle snapshot, and a run-store append, load and
/// `dc report`-style query.
Outcome durable_cycle(const Inputs& in, const Context& ctx) {
  Outcome out;
  const std::string dir = ctx.workdir + "/durable";
  const std::string snaps = dir + "/snapshots";
  const std::string db = dir + "/db";
  const auto model = core::SystemModel::kDawningCloud;
  const auto fail = [&](const std::string& what, const Status& st) {
    out.violations.push_back(what + ": " + st.to_string());
    return out;
  };

  obs::TraceSink sink;
  obs::PhaseProfiler profile;
  core::RunOptions options;
  options.trace = &sink;
  if (ctx.spans != nullptr) options.profile = &profile;
  core::SnapshotPolicy policy;
  policy.every = kDay;
  policy.dir = snaps;
  StatusOr<core::SystemResult> run = Status::internal("not run");
  {
    ScopedSpan span(ctx.spans, "core.run_snapshotted");
    run = core::run_system_snapshotted(model, in.workload, options, policy);
  }
  if (!run.is_ok()) return fail("snapshotted run", run.status());
  const core::SystemResult& result = *run;
  if (ctx.spans != nullptr) add_profile(out, profile, result);
  add_system(out, "dawningcloud", result);
  std::uint64_t snapshot_files = 0;
  out.exact["snapshot.bytes"] = static_cast<double>(dir_bytes(snaps, &snapshot_files));
  out.exact["snapshot.count"] = static_cast<double>(snapshot_files);
  out.exact["obs.trace_events"] = static_cast<double>(sink.emitted());
  out.exact["obs.trace_dropped"] = static_cast<double>(sink.dropped());

  std::string trace_digest;
  if (auto st = export_trace(sink, dir, ctx.spans, out, &trace_digest); !st.is_ok()) {
    return fail("trace export", st);
  }

  // Resume from the snapshot taken at the end of the first week; the
  // resumed run must end exactly where the uninterrupted one did.
  obs::TraceSink resumed_sink;
  core::RunOptions resumed_options;
  resumed_options.trace = &resumed_sink;
  std::optional<core::SystemRunner> runner;
  {
    ScopedSpan span(ctx.spans, "core.resume");
    runner.emplace(model, in.workload, resumed_options,
                   core::SystemRunner::Mode::kRestore);
  }
  {
    ScopedSpan span(ctx.spans, "snapshot.restore");
    if (auto st = runner->restore_file(core::snapshot_path(snaps, model, 7 * kDay));
        !st.is_ok()) {
      return fail("restore", st);
    }
  }
  core::SystemResult resumed;
  {
    ScopedSpan span(ctx.spans, "core.resume");
    runner->run_until(runner->horizon());
    resumed = runner->finalize();
  }
  if (fingerprint(resumed) != fingerprint(result)) {
    out.violations.push_back("resumed run differs from the uninterrupted run");
  }
  if (resumed_sink.emitted() != sink.emitted()) {
    out.violations.push_back("resumed run emitted a different trace");
  }

  // Run store: register the providers' records, load them back, query.
  StatusOr<rundb::StoreContents> store = Status::internal("not loaded");
  std::size_t appended = 0;
  {
    ScopedSpan span(ctx.spans, "rundb.append");
    const auto records = rundb::make_run_records(
        "perfbench:durable", result, {{"system", "dawningcloud"}},
        sink.emitted(), sink.dropped(), trace_digest);
    auto added = rundb::append_records(db, records);
    if (!added.is_ok()) return fail("store append", added.status());
    appended = static_cast<std::size_t>(*added);
  }
  {
    ScopedSpan span(ctx.spans, "rundb.load");
    store = rundb::load_store(db);
  }
  if (!store.is_ok()) return fail("store load", store.status());
  out.exact["rundb.records"] = static_cast<double>(store->records.size());
  if (store->records.size() != appended || appended != result.providers.size()) {
    out.violations.push_back("run store does not hold the appended records");
  }
  {
    ScopedSpan span(ctx.spans, "rundb.query");
    rundb::ReportQuery query;
    query.kind = "run";
    query.select = {"completed", "consumption_node_hours"};
    auto report = rundb::render_report(rundb::filter_records(store->records, query), query);
    if (!report.is_ok()) return fail("report", report.status());
    if (report->find("DawningCloud/NASA") == std::string::npos) {
      out.violations.push_back("report lacks the registered provider rows");
    }
  }
  return out;
}

/// Untimed preparation before each cycle: the durable cycle starts from an
/// empty directory, so it never overwrites or appends to an earlier cycle's
/// files, on a synced filesystem, so its fsyncs never commit the previous
/// cycle's deletions.
void prepare_cycle(const Context& ctx) {
  if (ctx.workload != Workload::kDurable) return;
  const std::string dir = ctx.workdir + "/durable";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

Outcome run_cycle(const Inputs& in, const Context& ctx) {
  switch (ctx.workload) {
    case Workload::kPaper: return paper_cycle(in, ctx);
    case Workload::kBackfill: return backfill_cycle(in, ctx);
    case Workload::kScaled: return scaled_cycle(in, ctx);
    case Workload::kDurable: return durable_cycle(in, ctx);
  }
  return {};
}

/// One untimed cycle on the paper's inputs (seed 0), the inputs golden.txt
/// was recorded from.
StatusOr<Outcome> paper_inputs_cycle(const Context& ctx) {
  auto in = build_inputs(ctx.workload, 0, ctx.workdir, nullptr);
  if (!in.is_ok()) return in.status();
  prepare_cycle(ctx);
  return run_cycle(*in, ctx);
}

// ------------------------------------------------------------ layer extras

/// Per-call cost of Scheduler::select over a queue and running set cut
/// from the paper's NASA trace: 64 queued jobs, 48 running, 32 idle nodes.
void measure_select(const Inputs& in, SpanLog* spans,
                    std::map<std::string, double>& values,
                    std::vector<std::string>& violations) {
  const auto& jobs = in.workload.htc.front().trace.jobs();
  std::vector<sched::Job> queued, running;
  const std::size_t first = std::min<std::size_t>(1000, jobs.size() - 112);
  for (std::size_t i = first; i < first + 112; ++i) {
    sched::Job job;
    job.id = jobs[i].id;
    job.submit = jobs[i].submit;
    job.runtime = jobs[i].runtime;
    job.nodes = std::min<std::int64_t>(jobs[i].nodes, 32);
    (i < first + 64 ? queued : running).push_back(job);
  }
  const SimTime now = queued.back().submit;
  for (auto& job : running) {
    job.state = sched::JobState::kRunning;
    job.start = now - job.runtime / 2;
  }
  for (auto& job : queued) job.state = sched::JobState::kQueued;
  std::vector<const sched::Job*> queue_view, running_view;
  for (const auto& job : queued) queue_view.push_back(&job);
  for (const auto& job : running) running_view.push_back(&job);
  constexpr std::int64_t kIdle = 32;

  const sched::FirstFitScheduler first_fit;
  const sched::EasyBackfillScheduler easy;
  const sched::ConservativeBackfillScheduler conservative;
  const sched::SjfScheduler sjf;
  for (const sched::Scheduler* s :
       {static_cast<const sched::Scheduler*>(&first_fit),
        static_cast<const sched::Scheduler*>(&easy),
        static_cast<const sched::Scheduler*>(&conservative),
        static_cast<const sched::Scheduler*>(&sjf)}) {
    ScopedSpan span(spans, std::string("sched.select.") + s->name());
    std::vector<double> per_call_us;
    const std::int64_t stop = wall_ns() + 100'000'000;
    while (per_call_us.size() < 10 || wall_ns() < stop) {
      constexpr int kBatch = 16;
      const std::int64_t t0 = wall_ns();
      std::int64_t used = 0;
      for (int i = 0; i < kBatch; ++i) {
        used = 0;
        for (const std::size_t pos : s->select(queue_view, running_view, kIdle, now)) {
          used += queued[pos].nodes;
        }
      }
      per_call_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3 / kBatch);
      if (used > kIdle) {
        violations.push_back(std::string(s->name()) + " selected more than the idle nodes");
        break;
      }
    }
    values[std::string("sched.select_us.") + s->name()] = median(per_call_us);
  }
}

/// Cost of the program's own trace sink: a traced DawningCloud paper run
/// minus an untraced one, median of interleaved pairs.
double measure_trace_overhead(const Inputs& in) {
  std::vector<double> traced, untraced;
  for (int i = 0; i < 5; ++i) {
    for (const bool on : {false, true}) {
      obs::TraceSink sink;
      core::RunOptions options;
      if (on) options.trace = &sink;
      const std::int64_t t0 = wall_ns();
      core::run_system(core::SystemModel::kDawningCloud, in.workload, options);
      (on ? traced : untraced).push_back(static_cast<double>(wall_ns() - t0) / 1e6);
    }
  }
  return median(traced) - median(untraced);
}

// ------------------------------------------------------------------ golden

using Golden = std::map<std::string, std::int64_t>;

/// Golden file lines: "<workload> <key> <value>"; '#' starts a comment.
StatusOr<Golden> load_golden(const std::string& path, const std::string& workload) {
  auto text = read_file(path);
  if (!text.is_ok()) return text.status();
  Golden golden;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, key;
    long long value = 0;
    if (!(fields >> w >> key >> value)) {
      return Status::invalid_argument("bad golden line: " + line);
    }
    if (w == workload) golden[key] = value;
  }
  if (golden.empty()) return Status::not_found("no golden values for " + workload);
  return golden;
}

/// The first difference between a cycle's results and the golden values,
/// or "" when they match key for key.
std::string golden_mismatch(const Outcome& out, const Golden& golden) {
  Golden seen;
  for (const auto& [key, value] : out.results) {
    seen[key] = value;
    const auto it = golden.find(key);
    if (it == golden.end()) return key + " has no golden value";
    if (it->second != value) {
      return str_format("%s = %lld, golden %lld", key.c_str(),
                        static_cast<long long>(value),
                        static_cast<long long>(it->second));
    }
  }
  for (const auto& [key, value] : golden) {
    if (seen.count(key) == 0) return key + " missing from the results";
  }
  return "";
}

// ------------------------------------------------------------------ output

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default:
      return str_format("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the image exec replaced, e.g. a Python
/// parent's footprint at fork time.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += str_format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      out.size() > 1 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Every per-layer metric: `values` already measured, exact counters, and
/// the medians of the rest over set-ups (workload.*, workflow.*) or traced
/// cycles. A layer the workload never called reads 0.
std::vector<Metric> layer_metrics(
    std::map<std::string, double> values, const std::map<std::string, double>& exact,
    const std::vector<std::map<std::string, double>>& setup_values,
    const std::vector<std::map<std::string, double>>& cycle_values) {
  for (const MetricDef& def : kLayerMetrics) {
    const std::string name = def.name;
    if (def.exact) {
      const auto it = exact.find(name);
      values[name] = it == exact.end() ? 0.0 : it->second;
      continue;
    }
    if (values.count(name) != 0) continue;
    const bool setup = name.rfind("workload.", 0) == 0 || name.rfind("workflow.", 0) == 0;
    std::vector<double> samples;
    for (const auto& v : setup ? setup_values : cycle_values) {
      const auto it = v.find(name);
      samples.push_back(it == v.end() ? 0.0 : it->second);
    }
    values[name] = median(samples);
  }
  for (const auto model : kModels) {
    const std::string m = model_key(model);
    const double events = values["core.events." + m];
    values["core.ns_per_event." + m] =
        events > 0 ? values["core.run_ms." + m] * 1e6 / events : 0.0;
  }
  const double events = values["sim.events_processed"];
  values["sim.dispatch_ns_per_event"] =
      events > 0 ? values["sim.dispatch_ms"] * 1e6 / events : 0.0;
  std::vector<Metric> metrics;
  for (const MetricDef& def : kLayerMetrics) {
    metrics.push_back({def.name, values[def.name], def.unit});
  }
  return metrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string golden;
  std::string workdir;
  // Lowered only by selftest.py, whose dozens of short runs would
  // otherwise each take 40 cycles (about 30 s on backfill).
  int min_cycles = kMinCycles;
  bool emit_golden = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-golden") {
      a.emit_golden = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") {
        if (value.empty() || value[0] == '-') return false;
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = value == "1";
      else if (flag == "--golden") a.golden = value;
      else if (flag == "--workdir") a.workdir = value;
      else if (flag == "--min-cycles") a.min_cycles = std::stoi(value);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && !a.workdir.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dc_perfbench --workload paper|backfill|scaled|durable "
                 "--seed N --seconds S --trace 0|1 --golden FILE --workdir DIR "
                 "[--min-cycles N] [--emit-golden]\n");
    return 2;
  }
  const auto workload = parse_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  fs::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  SpanLog span_log;
  SpanLog* spans = args.trace ? &span_log : nullptr;
  Context ctx{*workload, args.workdir, nullptr};

  if (args.emit_golden) {
    if (args.seed != 0) {
      std::fprintf(stderr, "golden values are recorded for seed 0 only\n");
      return 2;
    }
    auto out = paper_inputs_cycle(ctx);
    if (!out.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", out.status().to_string().c_str());
      return 1;
    }
    for (const auto& v : out->violations) std::fprintf(stderr, "violation: %s\n", v.c_str());
    for (const auto& [key, value] : out->results) {
      std::printf("%s %s %lld\n", args.workload.c_str(), key.c_str(),
                  static_cast<long long>(value));
    }
    return out->violations.empty() ? 0 : 1;
  }

  // The golden gate, whatever the seed: one untimed cycle on the paper's
  // inputs must reproduce golden.txt key for key. If it does not, the
  // program decides differently from the recorded commit, and no cycle of
  // this run counts as passed.
  auto golden = load_golden(args.golden, args.workload);
  if (!golden.is_ok()) {
    std::fprintf(stderr, "golden values: %s\n", golden.status().to_string().c_str());
    return 1;
  }
  std::string golden_failure;
  {
    auto out = paper_inputs_cycle(ctx);
    if (!out.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", out.status().to_string().c_str());
      return 1;
    }
    golden_failure = out->violations.empty() ? golden_mismatch(*out, *golden)
                                             : out->violations.front();
  }

  // Every run of the reference kernel must serve the same node-seconds.
  const std::int64_t ref_checksum = run_reference_kernel().checksum;
  const auto time_reference = [&]() -> std::optional<ReferenceRun> {
    const ReferenceRun ref = run_reference_kernel();
    if (ref.checksum != ref_checksum) {
      std::fprintf(stderr, "the reference kernel's checksum changed\n");
      return std::nullopt;
    }
    return ref;
  };

  // Set-up, timed on every construction and followed by the reference
  // kernel; the last one's inputs are what the cycles use.
  std::vector<double> setup_s, setup_raw_s;
  std::vector<std::map<std::string, double>> setup_values;
  std::optional<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();
    const std::size_t first_span = span_log.spans().size();
    const std::int64_t t0 = wall_ns();
    auto built = build_inputs(*workload, args.seed, args.workdir, spans);
    setup_raw_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    const auto ref = time_reference();
    if (!ref) return 1;
    setup_s.push_back(setup_raw_s.back() * 1e9 / static_cast<double>(ref->wall_ns) *
                      kReferenceNominalS);
    if (spans != nullptr) {
      std::map<std::string, double> values;
      summarize_tree(span_log.spans(), static_cast<int>(first_span), values);
      setup_values.push_back(std::move(values));
    }
    if (!built.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.status().to_string().c_str());
      return 1;
    }
    inputs.emplace(std::move(*built));
  }

  // The warm-up cycle fills caches and sets the reference every later
  // cycle of this run must reproduce exactly.
  prepare_cycle(ctx);
  const Outcome reference = run_cycle(*inputs, ctx);
  int attempted = 0, failed = 0;
  std::set<std::string> reported;
  const auto fail = [&](const std::string& why) {
    ++failed;
    if (reported.insert(why).second) std::fprintf(stderr, "cycle failed: %s\n", why.c_str());
  };
  // Traced cycles also carry the profiler's counters; the first traced
  // cycle fixes them for the rest of the run.
  std::optional<std::map<std::string, double>> traced_exact;
  const auto check = [&](const Outcome& out, bool traced) {
    ++attempted;
    std::string why;
    if (!out.violations.empty()) why = out.violations.front();
    else if (args.seed == 0) why = golden_mismatch(out, *golden);
    bool same = out.results == reference.results;
    if (traced && !traced_exact) traced_exact = out.exact;
    same = same && out.exact == (traced ? *traced_exact : reference.exact);
    for (const auto& [name, value] : reference.exact) {
      const auto it = out.exact.find(name);
      same = same && it != out.exact.end() && it->second == value;
    }
    if (why.empty() && !same) {
      why = "determinism failure: a cycle's results or work counters differ "
            "from the first cycle's";
    }
    if (!why.empty()) fail(why);
  };

  // Per untimed cycle: wall and CPU time, the reference kernel's right
  // after it, and the two ratios.
  std::vector<double> wall_ms, cpu_ms, ref_ms, wall_ref, cpu_ref, traced_ms;
  std::vector<std::map<std::string, double>> cycle_values;
  const std::int64_t loop_start = wall_ns();
  const auto elapsed_s = [&] { return static_cast<double>(wall_ns() - loop_start) / 1e9; };
  const int min_cycles = args.trace ? std::min(kMinTracedCycles, args.min_cycles)
                                    : args.min_cycles;
  while ((elapsed_s() < args.seconds ||
          static_cast<int>(wall_ms.size()) < min_cycles) &&
         elapsed_s() < kMaxLoopS) {
    prepare_cycle(ctx);
    const std::int64_t c0 = thread_cpu_ns();
    const std::int64_t t0 = wall_ns();
    const Outcome out = run_cycle(*inputs, ctx);
    wall_ms.push_back(static_cast<double>(wall_ns() - t0) / 1e6);
    cpu_ms.push_back(static_cast<double>(thread_cpu_ns() - c0) / 1e6);
    check(out, false);
    const auto ref = time_reference();
    if (!ref) return 1;
    ref_ms.push_back(static_cast<double>(ref->wall_ns) / 1e6);
    wall_ref.push_back(wall_ms.back() / ref_ms.back());
    cpu_ref.push_back(cpu_ms.back() / (static_cast<double>(ref->cpu_ns) / 1e6));
    if (spans == nullptr) continue;

    // Traced mode alternates untraced and traced cycles; the untraced
    // ones only serve the span-overhead figure.
    Context traced_ctx = ctx;
    traced_ctx.spans = spans;
    prepare_cycle(ctx);
    const std::size_t first_span = span_log.spans().size();
    const std::int64_t t1 = wall_ns();
    Outcome traced;
    {
      ScopedSpan root(spans, "bench.cycle");
      traced = run_cycle(*inputs, traced_ctx);
    }
    traced_ms.push_back(static_cast<double>(wall_ns() - t1) / 1e6);
    check(traced, true);
    std::map<std::string, double> values = traced.layer;
    summarize_tree(span_log.spans(), static_cast<int>(first_span), values);
    cycle_values.push_back(std::move(values));
  }

  if (!golden_failure.empty()) {
    std::fprintf(stderr, "golden gate failed: %s\n", golden_failure.c_str());
    failed = attempted;
  }
  std::vector<Metric> metrics;
  std::map<std::string, double> exact = traced_exact ? *traced_exact : reference.exact;
  exact["workload.swf_bytes"] = static_cast<double>(inputs->swf_bytes);
  if (spans == nullptr) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"cycle_ref.p50", quantile(wall_ref, 0.5), "ref"},
        {"cycle_ref.p75", quantile(wall_ref, 0.75), "ref"},
        {"cycle_cpu_ref.p50", quantile(cpu_ref, 0.5), "ref"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"pass_ratio", static_cast<double>(attempted - failed) / std::max(attempted, 1),
         "ratio"},
    };
  } else {
    std::vector<std::string> violations;
    std::map<std::string, double> values;
    if (*workload == Workload::kBackfill) {
      measure_select(*inputs, spans, values, violations);
    }
    if (*workload == Workload::kDurable) {
      ScopedSpan span(spans, "obs.trace_overhead");
      values["obs.trace_overhead_ms"] = measure_trace_overhead(*inputs);
    }
    for (const auto& v : violations) {
      ++attempted;
      fail(v);
    }
    values["bench.cycle_ms.p50"] = median(wall_ms);
    values["bench.cycle_cpu_ms.p50"] = median(cpu_ms);
    values["bench.ref_ms.p50"] = median(ref_ms);
    values["bench.traced_cycle_ms"] = median(traced_ms);
    values["bench.span_overhead_ms"] = median(traced_ms) - median(wall_ms);
    metrics = layer_metrics(std::move(values), exact, setup_values, cycle_values);
    const fs::path span_dir = fs::path(args.workdir).parent_path() / "spans";
    fs::create_directories(span_dir, ec);
    const std::string span_file =
        (span_dir / str_format("%s-seed%llu.csv", args.workload.c_str(),
                               static_cast<unsigned long long>(args.seed)))
            .string();
    if (auto st = span_log.write_csv(span_file); !st.is_ok()) {
      std::fprintf(stderr, "cannot write spans: %s\n", st.to_string().c_str());
    }
  }

  std::string exact_json = "{";
  for (const auto& [name, value] : exact) {
    exact_json += str_format("%s\"%s\": %.17g", exact_json.size() > 1 ? ", " : "",
                             name.c_str(), value);
  }
  exact_json += "}";
  const char* threads = std::getenv("DC_THREADS");
  const std::string info = str_format(
      "{\"workload\": \"%s\", \"seed\": %llu, \"inputs\": \"%016llx\", "
      "\"cycles\": %d, \"setups\": %zu, \"setup_raw_s\": %.6f, \"cycle_ms.p50\": %.4f, "
      "\"ref_ms.p50\": %.4f, "
      "\"fs_type\": \"%s\", \"dc_threads\": \"%s\"}",
      json_escape(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(digest_inputs(inputs->workload)), attempted, setup_s.size(),
      median(setup_raw_s), median(wall_ms), median(ref_ms),
      fs_type(args.workdir).c_str(), threads ? json_escape(threads).c_str() : "unset");
  fs::remove_all(args.workdir, ec);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, "
              "\"exact\": %s, \"info\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              json_metrics(metrics).c_str(), exact_json.c_str(), info.c_str());
  return 0;
}
