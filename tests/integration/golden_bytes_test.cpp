// Byte identity across commits, not just across two runs of one build.
//
// The determinism suites compare two runs of the same binary, so a change
// that alters an encoder on both sides at once goes unseen. This test pins
// the bytes themselves: a traced DawningCloud paper run with a snapshot at
// every simulated day, checked against FNV-1a digests recorded before the
// snapshot and trace encoders were rewritten for speed. It covers every
// `.dcsnap` file, the Chrome JSON and CSV trace exports, and a canonical
// dump of the events parse_chrome_json reads back from the JSON.
//
// A deliberate format change (a new snapshot field, a new trace event)
// changes these digests; the failure message prints the new table.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/paper.hpp"
#include "core/system_runner.hpp"
#include "obs/trace.hpp"
#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace dc {
namespace {

namespace fs = std::filesystem;

std::string hex_digest(std::string_view bytes) {
  return str_format("%016llx",
                    static_cast<unsigned long long>(snapshot::fnv1a(bytes)));
}

// One line per parsed event, every field of ParsedTraceEvent in order.
std::string canonical_dump(const std::vector<obs::ParsedTraceEvent>& events) {
  std::string out;
  for (const auto& event : events) {
    out += str_format("%c\t%s\t%s\t%s\t%lld\t%lld\t%lld\t%lld\n", event.phase,
                      event.category.c_str(), event.name.c_str(),
                      event.actor.c_str(), static_cast<long long>(event.ts_us),
                      static_cast<long long>(event.dur_us),
                      static_cast<long long>(event.a0),
                      static_cast<long long>(event.a1));
  }
  return out;
}

struct Golden {
  const char* artifact;
  const char* digest;
};

// Snapshot files by name, then the trace artifacts.
constexpr Golden kGolden[] = {
    {"DawningCloud_t000000086400.dcsnap", "67908d5862074155"},
    {"DawningCloud_t000000172800.dcsnap", "3040e15c87f9a96d"},
    {"DawningCloud_t000000259200.dcsnap", "50bfc80cf412ab86"},
    {"DawningCloud_t000000345600.dcsnap", "09a3a0fd3248343e"},
    {"DawningCloud_t000000432000.dcsnap", "d614b223b90e8f6b"},
    {"DawningCloud_t000000518400.dcsnap", "5275a2cdb263481b"},
    {"DawningCloud_t000000604800.dcsnap", "28e98bc36dd7b4f5"},
    {"DawningCloud_t000000691200.dcsnap", "1cb6448f5d187aa4"},
    {"DawningCloud_t000000777600.dcsnap", "ea65168d388d81fc"},
    {"DawningCloud_t000000864000.dcsnap", "223bb11a04f3eb19"},
    {"DawningCloud_t000000950400.dcsnap", "b10eddd66a9fa377"},
    {"DawningCloud_t000001036800.dcsnap", "a72d300088e5a413"},
    {"DawningCloud_t000001123200.dcsnap", "0a2f9f543743e7c8"},
    {"trace.json", "4724781052d99d6e"},
    {"trace.csv", "19a5d9cb42a37f14"},
    {"parsed.txt", "c151f69c2c725b01"},
};

TEST(GoldenBytes, TracedDailySnapshottedPaperRunMatchesRecordedDigests) {
#ifdef DC_TRACE_DISABLED
  GTEST_SKIP() << "tracing is compiled out: no trace ring, no exports";
#endif
  const std::string dir = ::testing::TempDir() + "golden_bytes_paper";
  fs::remove_all(dir);

  obs::TraceSink sink;
  core::RunOptions options;
  options.trace = &sink;
  core::SnapshotPolicy policy;
  policy.every = kDay;
  policy.dir = dir;
  auto run = core::run_system_snapshotted(core::SystemModel::kDawningCloud,
                                          core::paper_consolidation(), options,
                                          policy);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  ASSERT_EQ(sink.dropped(), 0u);

  std::vector<std::pair<std::string, std::string>> actual;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  for (const auto& name : files) {
    auto bytes = read_file(dir + "/" + name);
    ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
    actual.emplace_back(name, hex_digest(*bytes));
  }
  const std::string json = sink.chrome_json();
  actual.emplace_back("trace.json", hex_digest(json));
  actual.emplace_back("trace.csv", hex_digest(sink.csv()));
  auto parsed = obs::parse_chrome_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), sink.size());
  actual.emplace_back("parsed.txt", hex_digest(canonical_dump(*parsed)));

  std::vector<std::pair<std::string, std::string>> expected;
  for (const Golden& golden : kGolden) {
    expected.emplace_back(golden.artifact, golden.digest);
  }
  std::string table;
  for (const auto& [artifact, digest] : actual) {
    table += str_format("    {\"%s\", \"%s\"},\n", artifact.c_str(),
                        digest.c_str());
  }
  EXPECT_EQ(actual, expected) << "digests of this build:\n" << table;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dc
