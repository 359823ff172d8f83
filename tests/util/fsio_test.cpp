// Crash-consistent file I/O regression (util/fsio.hpp): the
// tmp→fsync→rename→dir-fsync contract behind snapshot::write_file, the
// campaign journal artifacts, and every merged-results write. The
// checkable invariants: success never leaves a temp file, failure never
// leaves either the target or a temp file, and an overwrite is all-or-
// nothing at the rename.
#include "util/fsio.hpp"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace dc {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

bool any_temp_sibling(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().string().find(".tmp") != std::string::npos) return true;
  }
  return false;
}

TEST(AtomicWriteFile, WritesAndReadsBack) {
  const std::string path = temp_path("fsio_roundtrip.bin");
  const std::string payload("bytes\0with\0nuls\n", 16);
  ASSERT_TRUE(atomic_write_file(path, payload).is_ok());
  auto back = read_file(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, payload);
}

TEST(AtomicWriteFile, SuccessLeavesNoTempFile) {
  const std::string dir = temp_path("fsio_clean");
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(atomic_write_file(dir + "/out.bin", "data").is_ok());
  EXPECT_FALSE(any_temp_sibling(dir));
}

TEST(AtomicWriteFile, OverwriteReplacesWholesale) {
  const std::string path = temp_path("fsio_overwrite.bin");
  ASSERT_TRUE(atomic_write_file(path, "old content, longer").is_ok());
  ASSERT_TRUE(atomic_write_file(path, "new").is_ok());
  auto back = read_file(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, "new");
}

TEST(AtomicWriteFile, MissingDirectoryFailsCleanly) {
  const std::string dir = temp_path("fsio_missing_dir");
  fs::remove_all(dir);
  const std::string path = dir + "/out.bin";
  Status st = atomic_write_file(path, "data");
  ASSERT_FALSE(st.is_ok());
  // The failure must not create the directory, the target, or a stray
  // temp file.
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_FALSE(fs::exists(path));
}

TEST(AtomicWriteFile, TargetDirectoryCollisionFailsCleanly) {
  const std::string dir = temp_path("fsio_collision");
  fs::remove_all(dir);
  // The target path itself is a directory: the rename must fail and the
  // temp file must be unlinked, leaving the directory untouched.
  fs::create_directories(dir);
  const std::string parent = temp_path("");
  Status st = atomic_write_file(dir, "data");
  ASSERT_FALSE(st.is_ok());
  EXPECT_TRUE(fs::is_directory(dir));
  EXPECT_FALSE(fs::exists(dir + ".tmp"));
}

TEST(ReadFile, MissingIsNotFound) {
  auto bytes = read_file(temp_path("fsio_no_such_file"));
  ASSERT_FALSE(bytes.is_ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
}

TEST(ReadFile, EmptyFileIsOkAndEmpty) {
  const std::string path = temp_path("fsio_empty.bin");
  ASSERT_TRUE(atomic_write_file(path, "").is_ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_TRUE(bytes->empty());
}

// A directory has a size but no bytes: reading one is an I/O error, not
// an empty file and not an attempt to allocate the directory's "size".
TEST(ReadFile, DirectoryIsAnInternalError) {
  const std::string dir = temp_path("fsio_dir_read");
  fs::create_directories(dir);
  auto bytes = read_file(dir);
  ASSERT_FALSE(bytes.is_ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kInternal);
  EXPECT_EQ(bytes.status().message(), "I/O error reading '" + dir + "'");
}

// Files whose reported size is no length (procfs reports 0) are read to
// their end.
TEST(ReadFile, UnsizedFileIsReadToTheEnd) {
  std::error_code ec;
  if (!fs::exists("/proc/self/stat", ec)) GTEST_SKIP() << "no procfs";
  auto bytes = read_file("/proc/self/stat");
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  EXPECT_FALSE(bytes->empty());
  EXPECT_EQ(bytes->back(), '\n');
}

}  // namespace
}  // namespace dc
