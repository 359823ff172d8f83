#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/format.hpp"
#include "util/time.hpp"

namespace dc::obs {
namespace {

TEST(TraceFilter, ParsesCategoryLists) {
  auto mask = parse_trace_filter("job,lease");
  ASSERT_TRUE(mask.is_ok());
  EXPECT_EQ(mask.value(), trace_category_bit(TraceCategory::kJob) |
                              trace_category_bit(TraceCategory::kLease));

  auto all = parse_trace_filter("all");
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value(), kTraceAll);

  auto empty = parse_trace_filter("");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value(), kTraceAll);

  auto padded = parse_trace_filter(" fault , checkpoint ");
  ASSERT_TRUE(padded.is_ok());
  EXPECT_EQ(padded.value(), trace_category_bit(TraceCategory::kFault) |
                                trace_category_bit(TraceCategory::kCheckpoint));
}

TEST(TraceFilter, RejectsUnknownCategoryListingValidSet) {
  auto bad = parse_trace_filter("job,no-such-category");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("no-such-category"), std::string::npos);
  EXPECT_NE(bad.status().message().find("lifecycle"), std::string::npos);
}

TEST(TraceSink, RecordsInstantsAndSpans) {
  TraceSink sink;
  sink.instant(kHour, TraceCategory::kJob, "job.submit", "provider", 7, 2);
  sink.span(2 * kHour, 30 * kMinute, TraceCategory::kLease, "lease.hold",
            "provider", 16);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, kHour);
  EXPECT_EQ(events[0].phase, 0);
  EXPECT_EQ(events[0].a0, 7);
  EXPECT_EQ(events[0].a1, 2);
  EXPECT_EQ(sink.name_of(events[0].name), "job.submit");
  EXPECT_EQ(sink.name_of(events[0].actor), "provider");
  EXPECT_EQ(events[1].time, 2 * kHour);
  EXPECT_EQ(events[1].dur, 30 * kMinute);
  EXPECT_EQ(events[1].phase, 1);

  const auto counts = sink.category_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kJob)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kLease)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kFault)], 0u);
}

TEST(TraceSink, RingDropsOldestOnceFull) {
  TraceSink sink(/*capacity=*/4);
  for (std::int64_t i = 0; i < 6; ++i) {
    sink.instant(i, TraceCategory::kJob, "job.submit", "p", i);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest after dropping the two oldest.
  EXPECT_EQ(events.front().a0, 2);
  EXPECT_EQ(events.back().a0, 5);
}

TEST(TraceSink, FilterSuppressesRecordingAndInterning) {
  TraceSink sink;
  sink.set_filter(trace_category_bit(TraceCategory::kJob));
  EXPECT_TRUE(sink.wants(TraceCategory::kJob));
  EXPECT_FALSE(sink.wants(TraceCategory::kFault));

  sink.instant(0, TraceCategory::kFault, "fault.fail", "domain");
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  // The filtered event's strings were never interned: the first real
  // emission claims ids 0 and 1.
  sink.instant(0, TraceCategory::kJob, "job.submit", "provider");
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, 0u);
  EXPECT_EQ(events[0].actor, 1u);
}

TEST(TraceSink, InternAssignsStableFirstUseIds) {
  TraceSink sink;
  const auto a = sink.intern("alpha");
  const auto b = sink.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.intern("alpha"), a);
  EXPECT_EQ(sink.name_of(a), "alpha");
  EXPECT_EQ(sink.name_of(b), "beta");
}

TEST(TraceSink, ChromeJsonRoundTripsThroughParser) {
  TraceSink sink;
  sink.instant(kHour, TraceCategory::kJob, "job.submit", "bes-a", 42, 1);
  sink.span(kHour, kMinute, TraceCategory::kProvision, "provision.wait",
            "platform", 3);
  sink.instant(2 * kHour, TraceCategory::kLog, "log.WARN", "server", 2);

  auto parsed = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const auto& events = parsed.value();
  ASSERT_EQ(events.size(), 3u);

  EXPECT_EQ(events[0].name, "job.submit");
  EXPECT_EQ(events[0].category, "job");
  EXPECT_EQ(events[0].actor, "bes-a");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].ts_us, kHour * 1000000);
  EXPECT_EQ(events[0].a0, 42);
  EXPECT_EQ(events[0].a1, 1);

  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].dur_us, kMinute * 1000000);
  EXPECT_EQ(events[1].actor, "platform");

  EXPECT_EQ(events[2].category, "log");
}

TEST(TraceSink, CsvHasHeaderAndOneRowPerEvent) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.start", "p", 5);
  sink.span(2, 3, TraceCategory::kLease, "lease.hold", "p", 8, 9);
  const std::string csv = sink.csv();
  EXPECT_EQ(csv.rfind("time,category,phase,name,actor,dur,a0,a1\n", 0), 0u)
      << csv;
  EXPECT_NE(csv.find("1,job,instant,job.start,p,0,5,0\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("2,lease,span,lease.hold,p,3,8,9\n"), std::string::npos)
      << csv;
}

TEST(TraceSink, SnapshotRoundTripPreservesExportBytes) {
  TraceSink sink(/*capacity=*/3);
  sink.set_filter(kTraceAll & ~trace_category_bit(TraceCategory::kLog));
  for (std::int64_t i = 0; i < 5; ++i) {
    sink.instant(i * kMinute, TraceCategory::kJob, "job.submit", "p", i);
  }
  sink.span(kHour, kMinute, TraceCategory::kResize, "resize.decide", "drp");

  snapshot::SnapshotWriter writer;
  sink.save(writer);
  auto reader = snapshot::SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok()) << reader.status().message();

  TraceSink restored;
  ASSERT_TRUE(restored.restore(reader.value()).is_ok());
  EXPECT_EQ(restored.filter(), sink.filter());
  EXPECT_EQ(restored.emitted(), sink.emitted());
  EXPECT_EQ(restored.dropped(), sink.dropped());
  EXPECT_EQ(restored.size(), sink.size());
  EXPECT_EQ(restored.capacity(), sink.capacity());
  EXPECT_EQ(restored.chrome_json(), sink.chrome_json());
  EXPECT_EQ(restored.csv(), sink.csv());
  // The string table survives by id: re-interning keeps the saved ids.
  EXPECT_EQ(restored.intern("job.submit"), sink.intern("job.submit"));
}

// Byte surgery on a saved trace section: overwrite one record's payload
// and re-seal the FNV-1a footer, so the stream still verifies and only
// TraceSink::restore's own checks stand between the bytes and the ring.
std::size_t payload_offset(const std::string& stream, snapshot::RecordKind kind,
                           std::string_view name) {
  std::string header(1, static_cast<char>(kind));
  header += static_cast<char>(name.size() & 0xff);
  header += static_cast<char>(name.size() >> 8);
  header += name;
  const std::size_t at = stream.find(header);
  EXPECT_NE(at, std::string::npos) << name;
  // kBytes payloads open with their u32 length.
  return at + header.size() + (kind == snapshot::RecordKind::kBytes ? 4 : 0);
}

void put_le(std::string& stream, std::size_t at, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    stream[at + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

void reseal(std::string& stream) {
  stream.resize(stream.size() - 8);
  const std::uint64_t digest = snapshot::fnv1a(stream);
  stream.append(8, '\0');
  put_le(stream, stream.size() - 8, digest);
}

Status restore_from(const std::string& stream) {
  auto reader = snapshot::SnapshotReader::from_buffer(stream);
  if (!reader.is_ok()) return reader.status();
  TraceSink restored;
  return restored.restore(reader.value());
}

TEST(TraceSink, RestoreRejectsOutOfRangeResealedSections) {
  TraceSink sink(/*capacity=*/4);
  sink.instant(kMinute, TraceCategory::kJob, "job.submit", "p", 1);
  sink.span(kHour, kMinute, TraceCategory::kLease, "lease.hold", "p", 2);
  snapshot::SnapshotWriter writer;
  sink.save(writer);
  const std::string saved = writer.finish();
  ASSERT_TRUE(restore_from(saved).is_ok());

  const std::size_t capacity_at =
      payload_offset(saved, snapshot::RecordKind::kU64, "capacity");
  const std::size_t ring_at =
      payload_offset(saved, snapshot::RecordKind::kBytes, "ring");
  constexpr std::int64_t kMaxSeconds =
      std::numeric_limits<std::int64_t>::max() / 1000000;
  struct Case {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"zero capacity", capacity_at, 0},
      {"capacity above the maximum", capacity_at, kMaxTraceCapacity + 1},
      {"capacity that cannot be allocated", capacity_at, std::uint64_t{1} << 62},
      {"more events than the capacity", capacity_at, 1},
      // Event 0 packs time at byte 0; event 1 (the span) its duration at 8.
      {"time past the microsecond range", ring_at,
       static_cast<std::uint64_t>(kMaxSeconds + 1)},
      {"negative time past the microsecond range", ring_at,
       static_cast<std::uint64_t>(-kMaxSeconds - 1)},
      {"duration past the microsecond range", ring_at + kTraceEventPacked + 8,
       static_cast<std::uint64_t>(kMaxSeconds + 1)},
  };
  for (const Case& c : cases) {
    std::string bytes = saved;
    put_le(bytes, c.at, c.value);
    reseal(bytes);
    const Status status = restore_from(bytes);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange)
        << c.what << ": " << status.to_string();
  }
  // The largest representable time still restores and exports.
  std::string edge = saved;
  put_le(edge, ring_at, static_cast<std::uint64_t>(kMaxSeconds));
  reseal(edge);
  EXPECT_TRUE(restore_from(edge).is_ok());
}

TEST(TraceDiff, IdenticalTracesMatch) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  sink.span(2, 3, TraceCategory::kLease, "lease.hold", "p");
  auto a = parse_chrome_json(sink.chrome_json());
  auto b = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_TRUE(diff_traces(a.value(), b.value(), &report));
  EXPECT_EQ(report, "traces are identical");
}

TEST(TraceDiff, ReportsFirstDivergingEvent) {
  TraceSink golden;
  golden.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  golden.instant(2, TraceCategory::kJob, "job.start", "p", 1);
  TraceSink other;
  other.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  other.instant(2, TraceCategory::kJob, "job.start", "p", 99);  // diverges
  auto a = parse_chrome_json(golden.chrome_json());
  auto b = parse_chrome_json(other.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_FALSE(diff_traces(a.value(), b.value(), &report));
  EXPECT_NE(report.find("first divergence at event 1"), std::string::npos)
      << report;
  EXPECT_NE(report.find("a0=99"), std::string::npos) << report;
}

TEST(TraceDiff, ReportsLengthMismatch) {
  TraceSink golden;
  golden.instant(1, TraceCategory::kJob, "job.submit", "p");
  golden.instant(2, TraceCategory::kJob, "job.start", "p");
  TraceSink other;
  other.instant(1, TraceCategory::kJob, "job.submit", "p");
  auto a = parse_chrome_json(golden.chrome_json());
  auto b = parse_chrome_json(other.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_FALSE(diff_traces(a.value(), b.value(), &report));
  EXPECT_NE(report.find("golden has 1 extra"), std::string::npos) << report;
}

TEST(TraceSummary, CountsCategoriesAndSpans) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.submit", "p");
  sink.instant(2, TraceCategory::kJob, "job.start", "p");
  sink.span(2, 40, TraceCategory::kJob, "job.run", "p");
  auto parsed = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(parsed.is_ok());
  const std::string summary = summarize_trace(parsed.value());
  EXPECT_NE(summary.find("events: 3"), std::string::npos) << summary;
  EXPECT_NE(summary.find("job"), std::string::npos) << summary;
  EXPECT_NE(summary.find("job.run"), std::string::npos) << summary;
}

TEST(TraceJson, RejectsMalformedInput) {
  // Each input with its exact message; every rejection is InvalidArgument.
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"not json", "trace json: expected top-level object near offset 0"},
      {R"({"displayTimeUnit":"ms"})", "trace json: no traceEvents"},
      // Integers: int64 overflow either way, a lone '-', and a token of
      // 32 or more characters even when its value is small.
      {R"({"traceEvents":[{"ts":9223372036854775808}]})",
       "trace json: bad integer near offset 41"},
      {R"({"traceEvents":[{"ts":-9223372036854775809}]})",
       "trace json: bad integer near offset 42"},
      {R"({"traceEvents":[{"ts":-}]})", "trace json: bad integer near offset 23"},
      {R"({"traceEvents":[{"ts":00000000000000000000000000000001}]})",
       "trace json: bad integer near offset 54"},
      {R"({"traceEvents":[{"args":{"a0":-,"a1":1}}]})",
       "trace json: bad integer near offset 31"},
      // Strings cut off inside args: plain, after an escape, mid-escape.
      {R"({"traceEvents":[{"args":{"name":"abc)",
       "trace json: unterminated string near offset 36"},
      {R"({"traceEvents":[{"args":{"name":"a\"bc}}]})",
       "trace json: unterminated string near offset 42"},
      {R"({"traceEvents":[{"args":{"na\)",
       "trace json: unterminated string near offset 29"},
      // Escapes the parser does not take.
      {R"({"traceEvents":[{"name":"\u00g1"}]})",
       "trace json: bad \\u escape near offset 30"},
      {R"({"traceEvents":[{"name":"\u00)",
       "trace json: bad \\u escape near offset 27"},
      {R"({"traceEvents":[{"name":"\x"}]})",
       "trace json: unsupported escape near offset 27"},
  };
  for (const auto& [json, message] : cases) {
    SCOPED_TRACE(json);
    auto parsed = parse_chrome_json(json);
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(), message);
  }
}

TEST(TraceJson, AcceptsEscapesPaddedIntegersAndUnknownKeys) {
  const std::string json =
      "{\"note\":\"x\",\"traceEvents\":[\n"
      R"({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"q\"b\\s"}},)"
      "\n"
      R"({"ph":"i","pid":1,"tid":1,"ts":0,"s":"t","name":"a\"b\\c\nd\u0041",)"
      R"("cat":"job","args":{"a0":1,"a1":2}},)"
      "\n"
      R"({"ph":"X","extra":"y","seq":3,"tid":2,"ts":-5,"dur":007,"name":"n",)"
      R"("cat":"lease","args":{"label":"z","a0":-0,"a1":-0009}},)"
      "\n"
      R"({"ph":"i","tid":1,"ts":-9223372036854775808,"name":"min","cat":"job",)"
      R"("args":{"a0":0000000000000000000000000000042}})"
      "\n]}";
  auto parsed = parse_chrome_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const auto& events = parsed.value();
  ASSERT_EQ(events.size(), 3u);

  EXPECT_EQ(events[0].name, "a\"b\\c\ndA");
  EXPECT_EQ(events[0].category, "job");
  EXPECT_EQ(events[0].actor, "q\"b\\s");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].a0, 1);
  EXPECT_EQ(events[0].a1, 2);

  // Unknown keys of either kind are skipped; a tid with no thread_name
  // record becomes "tid<N>".
  EXPECT_EQ(events[1].name, "n");
  EXPECT_EQ(events[1].actor, "tid2");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts_us, -5);
  EXPECT_EQ(events[1].dur_us, 7);
  EXPECT_EQ(events[1].a0, 0);
  EXPECT_EQ(events[1].a1, -9);

  // The int64 minimum, and a zero-padded token of 31 characters.
  EXPECT_EQ(events[2].ts_us, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(events[2].a0, 42);
  EXPECT_EQ(events[2].actor, "q\"b\\s");
}

TEST(TraceMacros, NullSinkIsANoOp) {
  TraceSink* sink = nullptr;
  DC_TRACE_INSTANT(sink, 0, TraceCategory::kJob, "job.submit", "p");
  DC_TRACE_SPAN(sink, 0, 1, TraceCategory::kJob, "job.run", "p");
  TraceSink real;
  DC_TRACE_INSTANT(&real, 0, TraceCategory::kJob, "job.submit", "p");
#ifndef DC_TRACE_DISABLED
  EXPECT_EQ(real.size(), 1u);
#else
  EXPECT_EQ(real.size(), 0u);  // emission sites compiled out
#endif
}

}  // namespace
}  // namespace dc::obs
