// Seeded mutation test of the two on-disk triple formats: the HBRUN1
// sorted run (a checksummed 4 KiB header page, then fixed-width triples)
// and the HBCHK1 delta chunk (a 24-byte header, then LEB128 deltas). A
// fixed-seed, fixed-count stream of bit flips, truncations, appended bytes
// and version/order/count overwrites runs through MappedTripleRun::Open and
// DeltaChunkReader. Half the mutated run headers are resealed with a fresh
// checksum, so the checks behind the checksum are reached too. Every
// variant must end in a clean non-OK Status or a run (chunk) whose every
// triple reads back, never a crash. The ASan+UBSan CI leg runs this suite
// too.
//
// Minimized crashers live in tests/corpus/run_file/ and are replayed first
// (`.hbrun` files as runs, `.hbchk` files as chunks). count_overflow.hbrun
// is a bare header page whose resealed count is 2^62: 12 * 2^62 wraps to 0
// mod 2^64, so the size check passed and the mapped view claimed 2^62
// triples past the end of the mapping.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "rdf/run_file.h"

namespace hbold::rdf {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 20200330;
constexpr size_t kVariants = 3000;  // per format
constexpr size_t kTriples = 300;

// Header fields shared by both formats, by byte offset; a run header also
// carries an Fnv64 checksum of its first 24 bytes at offset 24.
constexpr size_t kVersionAt = 8;
constexpr size_t kOrderAt = 12;
constexpr size_t kCountAt = 16;
constexpr size_t kChecksumAt = 24;
constexpr size_t kRunHeaderPage = 4096;

enum class Outcome { kRejected, kRead };

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Opens `path` as a run. An opened run must describe the file exactly,
/// and its view must read back the file's bytes after the header page.
Outcome OpenRun(const fs::path& path) {
  MappedTripleRun run;
  Status st = run.Open(path.string());
  if (!st.ok()) {
    EXPECT_FALSE(st.message().empty());
    return Outcome::kRejected;
  }
  const std::string bytes = ReadBytes(path);
  if (bytes.size() < kRunHeaderPage ||
      run.count() != (bytes.size() - kRunHeaderPage) / sizeof(Triple)) {
    // Reading the view it claims would run past the mapping.
    ADD_FAILURE() << path << " opened with count " << run.count()
                  << " over " << bytes.size() << " bytes";
    return Outcome::kRead;
  }
  const TripleSpan view = run.view();
  EXPECT_EQ(view.size, run.count());
  if (view.size > 0) {
    EXPECT_EQ(std::memcmp(view.data, bytes.data() + kRunHeaderPage,
                          view.size * sizeof(Triple)),
              0)
        << path;
  }
  return Outcome::kRead;
}

/// Opens `path` as a delta chunk and decodes it to the end. A chunk that
/// decodes cleanly produced exactly its header's count.
Outcome ReadChunk(const fs::path& path) {
  DeltaChunkReader reader;
  Status st = reader.Open(path.string());
  if (!st.ok()) {
    EXPECT_FALSE(st.message().empty());
    return Outcome::kRejected;
  }
  uint64_t produced = 0;
  Triple t;
  while (reader.Next(&t)) ++produced;
  if (!reader.status().ok()) {
    EXPECT_FALSE(reader.status().message().empty());
    return Outcome::kRejected;
  }
  EXPECT_EQ(produced, reader.count()) << path;
  return Outcome::kRead;
}

/// Overwrites the field at `at` when the bytes still reach it.
template <typename T>
void Put(std::string* bytes, size_t at, T v) {
  if (at + sizeof(v) <= bytes->size()) {
    std::memcpy(&(*bytes)[at], &v, sizeof(v));
  }
}

/// Applies one to three seeded edits to a valid file of `count` triples;
/// a run header (`run`) is resealed half the time.
std::string Mutate(std::string bytes, bool run, uint64_t count,
                   std::mt19937_64* rng) {
  const size_t header = run ? kChecksumAt + 8 : kCountAt + 8;
  const size_t edits = 1 + (*rng)() % 3;
  for (size_t e = 0; e < edits; ++e) {
    switch ((*rng)() % 4) {
      case 0: {  // flip one bit, half the time inside the header
        if (bytes.empty()) break;
        const size_t span = (*rng)() % 2 == 0 ? header : bytes.size();
        const size_t at = (*rng)() % std::min(span, bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << ((*rng)() % 8)));
        break;
      }
      case 1: {  // truncate, half the time near the header's end
        const size_t keep = (*rng)() % 2 == 0
                                ? (run ? kRunHeaderPage : header) - 4 +
                                      (*rng)() % 9
                                : (*rng)() % (bytes.size() + 1);
        bytes.resize(std::min(keep, bytes.size()));
        break;
      }
      case 2: {  // overwrite a version, order or count field
        const uint64_t counts[] = {0,
                                   1,
                                   count - 1,
                                   count + 1,
                                   count + (uint64_t{1} << 62),
                                   uint64_t{1} << 32,
                                   uint64_t{1} << 63,
                                   ~uint64_t{0},
                                   (*rng)()};
        const uint64_t pick = (*rng)();
        switch ((*rng)() % 3) {
          case 0:
            Put(&bytes, kVersionAt, static_cast<uint32_t>(pick % 3));
            break;
          case 1:
            Put(&bytes, kOrderAt, static_cast<uint32_t>(pick % 5));
            break;
          default:
            Put(&bytes, kCountAt, counts[pick % std::size(counts)]);
            break;
        }
        break;
      }
      default:  // append a few bytes
        for (size_t n = 1 + (*rng)() % 24; n > 0; --n) {
          bytes.push_back(static_cast<char>((*rng)() % 256));
        }
        break;
    }
  }
  if (run && (*rng)() % 2 == 0 && bytes.size() >= kChecksumAt + 8) {
    Put(&bytes, kChecksumAt,
        Fnv64(std::string_view(bytes.data(), kChecksumAt)));
  }
  return bytes;
}

class RunFileFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hbold_run_file_fuzz_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Mixed-width ids, so the chunk's varints take one to five bytes.
    std::mt19937_64 rng(kSeed);
    std::vector<Triple> triples;
    for (size_t i = 0; i < kTriples; ++i) {
      triples.push_back(Triple{static_cast<TermId>(1 + rng() % 40),
                               static_cast<TermId>(1 + rng() % 5),
                               static_cast<TermId>(1 + rng() % (1u << 31))});
    }
    auto pos_less = [](const Triple& a, const Triple& b) {
      return RunLess(RunOrder::kPos, a, b);
    };
    std::sort(triples.begin(), triples.end(), pos_less);
    triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
    count_ = triples.size();

    RunWriter writer;
    ASSERT_TRUE(writer.Open((dir_ / "seed.run").string(), RunOrder::kPos).ok());
    for (const Triple& t : triples) ASSERT_TRUE(writer.Append(t).ok());
    ASSERT_TRUE(writer.Finish().ok());
    run_ = ReadBytes(dir_ / "seed.run");
    ASSERT_TRUE(WriteDeltaChunk((dir_ / "seed.chk").string(), RunOrder::kPos,
                                triples.data(), triples.size())
                    .ok());
    chunk_ = ReadBytes(dir_ / "seed.chk");
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  uint64_t count_ = 0;
  std::string run_;
  std::string chunk_;
};

TEST_F(RunFileFuzzTest, CommittedCrashersEndCleanly) {
  const fs::path dir = fs::path(__FILE__).parent_path() / "corpus" / "run_file";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".hbrun") {
      OpenRun(entry.path());
    } else if (entry.path().extension() == ".hbchk") {
      ReadChunk(entry.path());
    } else {
      continue;
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

TEST_F(RunFileFuzzTest, SeedFilesRead) {
  EXPECT_EQ(run_.size(), kRunHeaderPage + count_ * sizeof(Triple));
  EXPECT_EQ(OpenRun(dir_ / "seed.run"), Outcome::kRead);
  EXPECT_EQ(ReadChunk(dir_ / "seed.chk"), Outcome::kRead);
}

TEST_F(RunFileFuzzTest, MutatedRunsEndCleanly) {
  std::mt19937_64 rng(kSeed);
  std::map<Outcome, size_t> outcomes;
  const fs::path path = dir_ / "variant.run";
  for (size_t i = 0; i < kVariants; ++i) {
    WriteBytes(path, Mutate(run_, true, count_, &rng));
    ++outcomes[OpenRun(path)];
  }
  // The stream must reach the mapping, not only the header's rejections.
  EXPECT_GT(outcomes[Outcome::kRead], kVariants / 20);
  EXPECT_GT(outcomes[Outcome::kRejected], kVariants / 20);
}

TEST_F(RunFileFuzzTest, MutatedChunksEndCleanly) {
  std::mt19937_64 rng(kSeed + 1);
  std::map<Outcome, size_t> outcomes;
  const fs::path path = dir_ / "variant.chk";
  for (size_t i = 0; i < kVariants; ++i) {
    WriteBytes(path, Mutate(chunk_, false, count_, &rng));
    ++outcomes[ReadChunk(path)];
  }
  // The stream must reach the decoder, not only the header's rejections.
  EXPECT_GT(outcomes[Outcome::kRead], kVariants / 20);
  EXPECT_GT(outcomes[Outcome::kRejected], kVariants / 20);
}

}  // namespace
}  // namespace hbold::rdf
