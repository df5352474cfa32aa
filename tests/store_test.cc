// Unit tests for src/store: collection filtering, unique indexes, updates,
// persistence round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/io_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "store/collection.h"
#include "store/database.h"
#include "store/snapshot.h"

namespace hbold::store {
namespace {

Json Obj(const std::string& text) {
  auto r = Json::Parse(text);
  EXPECT_TRUE(r.ok()) << text << " " << r.status();
  return r.ok() ? *r : Json::MakeObject();
}

class CollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"a","n":1,"tags":["x"]})")).ok());
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"b","n":2})")).ok());
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"c","n":3,"meta":{"k":9}})")).ok());
  }
  Collection c_{"test"};
};

TEST_F(CollectionTest, InsertAssignsSequentialIds) {
  EXPECT_EQ(c_.size(), 3u);
  auto doc = c_.FindOne(Obj(R"({"name":"b"})"));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->GetInt("_id"), 2);
}

TEST_F(CollectionTest, InsertRejectsNonObject) {
  EXPECT_FALSE(c_.Insert(Json(5)).ok());
}

TEST_F(CollectionTest, FindByEquality) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a"})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({})")).size(), 3u);
  EXPECT_EQ(c_.Find(Obj(R"({"name":"zzz"})")).size(), 0u);
}

TEST_F(CollectionTest, FindByComparisonOperators) {
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gt":1}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gte":1}})")).size(), 3u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$lt":3}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$lte":1}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$ne":2}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gt":1,"$lt":3}})")).size(), 1u);
}

TEST_F(CollectionTest, FindByInAndExists) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":{"$in":["a","c"]}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta":{"$exists":true}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta":{"$exists":false}})")).size(), 2u);
}

TEST_F(CollectionTest, DottedPathsDescend) {
  EXPECT_EQ(c_.Find(Obj(R"({"meta.k":9})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta.k":{"$gt":5}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta.missing":1})")).size(), 0u);
}

TEST_F(CollectionTest, MultipleKeysAreAnded) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a","n":1})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a","n":2})")).size(), 0u);
}

TEST_F(CollectionTest, FindByIdAndCount) {
  EXPECT_NE(c_.FindById(1), nullptr);
  EXPECT_EQ(c_.FindById(99), nullptr);
  EXPECT_EQ(c_.CountMatching(Obj(R"({"n":{"$gte":2}})")), 2u);
}

TEST_F(CollectionTest, UpdateMergesFields) {
  auto n = c_.Update(Obj(R"({"name":"a"})"), Obj(R"({"n":10,"fresh":true})"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto doc = c_.FindOne(Obj(R"({"name":"a"})"));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->GetInt("n"), 10);
  EXPECT_TRUE(doc->GetBool("fresh"));
  EXPECT_EQ(doc->GetInt("_id"), 1);  // _id preserved
}

TEST_F(CollectionTest, UpdateManyReturnsCount) {
  auto n = c_.Update(Obj(R"({"n":{"$gt":0}})"), Obj(R"({"seen":1})"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
}

TEST_F(CollectionTest, RemoveByFilter) {
  EXPECT_EQ(c_.Remove(Obj(R"({"n":{"$lt":3}})")), 2u);
  EXPECT_EQ(c_.size(), 1u);
  EXPECT_EQ(c_.Remove(Obj(R"({})")), 1u);
  EXPECT_EQ(c_.size(), 0u);
}

TEST_F(CollectionTest, UniqueIndexBlocksDuplicates) {
  ASSERT_TRUE(c_.CreateUniqueIndex("name").ok());
  auto r = c_.Insert(Obj(R"({"name":"a"})"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // Missing field is allowed.
  EXPECT_TRUE(c_.Insert(Obj(R"({"other":1})")).ok());
}

TEST_F(CollectionTest, UniqueIndexBlocksUpdateCollisions) {
  ASSERT_TRUE(c_.CreateUniqueIndex("name").ok());
  auto r = c_.Update(Obj(R"({"name":"b"})"), Obj(R"({"name":"a"})"));
  EXPECT_FALSE(r.ok());
  // Atomicity: b unchanged.
  EXPECT_NE(c_.FindOne(Obj(R"({"name":"b"})")), nullptr);
}

TEST_F(CollectionTest, UniqueIndexRejectsExistingDuplicates) {
  ASSERT_TRUE(c_.Insert(Obj(R"({"name":"a"})")).ok());  // duplicate of row 1
  EXPECT_FALSE(c_.CreateUniqueIndex("name").ok());
}

TEST_F(CollectionTest, JsonlRoundTrip) {
  std::string dump = c_.DumpJsonl();
  Collection other("copy");
  ASSERT_TRUE(other.LoadJsonl(dump).ok());
  EXPECT_EQ(other.size(), 3u);
  EXPECT_EQ(other.DumpJsonl(), dump);
  // next_id resumes after the max loaded id.
  auto id = other.Insert(Obj(R"({"name":"d"})"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4);
}

TEST_F(CollectionTest, LoadJsonlRejectsMissingId) {
  Collection other("bad");
  EXPECT_FALSE(other.LoadJsonl("{\"name\":\"x\"}\n").ok());
  EXPECT_FALSE(other.LoadJsonl("not json\n").ok());
}

TEST(CollectionMatchTest, StaticMatcher) {
  Json doc = Obj(R"({"a":1,"s":"hello"})");
  EXPECT_TRUE(Collection::Matches(doc, Obj(R"({"a":1})")));
  EXPECT_FALSE(Collection::Matches(doc, Obj(R"({"a":2})")));
  EXPECT_TRUE(Collection::Matches(doc, Obj(R"({"s":{"$gte":"hello"}})")));
  EXPECT_FALSE(Collection::Matches(doc, Obj(R"({"a":{"$bogus":1}})")));
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, GetCollectionCreatesOnce) {
  Database db;
  Collection* a = db.GetCollection("x");
  Collection* b = db.GetCollection("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.CollectionNames(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(db.FindCollection("missing"), nullptr);
}

TEST(DatabaseTest, DropCollection) {
  Database db;
  db.GetCollection("x");
  EXPECT_TRUE(db.DropCollection("x"));
  EXPECT_FALSE(db.DropCollection("x"));
}

TEST(DatabaseTest, SaveAndLoadDirectory) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_test";
  fs::remove_all(dir);

  Database db;
  Collection* summaries = db.GetCollection("summaries");
  ASSERT_TRUE(summaries->Insert(Obj(R"({"endpoint":"http://a","classes":3})"))
                  .ok());
  ASSERT_TRUE(summaries->Insert(Obj(R"({"endpoint":"http://b","classes":7})"))
                  .ok());
  db.GetCollection("clusters");
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  const Collection* got = loaded.FindCollection("summaries");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ(got->FindOne(Obj(R"({"endpoint":"http://b"})"))->GetInt("classes"),
            7);
  fs::remove_all(dir);
}

TEST(DatabaseTest, LoadMissingDirectoryFails) {
  Database db;
  EXPECT_FALSE(db.LoadFromDirectory("/nonexistent/hbold").ok());
}

TEST(DatabaseTest, SaveLeavesNoTempFiles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_tmp_test";
  fs::remove_all(dir);

  Database db;
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  // Saving again over existing files must atomically replace them.
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "temp file left behind: " << entry.path();
    if (entry.path().extension() == ".hbsnap") ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);

  // A stale .tmp from a crashed save must not be loaded as a collection —
  // and the loader cleans it up so later saves start from a tidy directory.
  std::ofstream(dir / "summaries.hbsnap.tmp") << "garbage\n";
  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(loaded.CollectionNames(), (std::vector<std::string>{"summaries"}));
  EXPECT_FALSE(fs::exists(dir / "summaries.hbsnap.tmp"));
  fs::remove_all(dir);
}

TEST(DatabaseTest, BinarySnapshotRoundTripIsByteIdentical) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_snap_test";
  fs::remove_all(dir);

  Database db;
  Collection* summaries = db.GetCollection("summaries");
  ASSERT_TRUE(
      summaries->Insert(Obj(R"({"endpoint":"http://a","classes":3})")).ok());
  ASSERT_TRUE(
      summaries->Insert(Obj(R"({"endpoint":"http://b","classes":7})")).ok());
  ASSERT_TRUE(db.GetCollection("clusters")
                  ->Insert(Obj(R"({"cluster":1,"members":["a","b"]})"))
                  .ok());
  db.GetCollection("empty");
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(loaded.CanonicalDump(), db.CanonicalDump());
  fs::remove_all(dir);
}

TEST(DatabaseTest, CollectionNamesRoundTripExactly) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_names_test";
  fs::remove_all(dir);

  // Names that defeat filename-based persistence: an embedded ".jsonl"
  // suffix, case-only differences (collide on case-insensitive
  // filesystems), spaces, and a literal '%' (collides with the escape
  // character unless the codec round-trips it).
  const std::vector<std::string> names = {
      "data.jsonl", "Summaries", "summaries", "with space", "pct%20name"};
  Database db;
  for (const std::string& name : names) {
    ASSERT_TRUE(db.GetCollection(name)
                    ->Insert(Obj(R"({"owner":")" + name + R"("})"))
                    .ok());
  }
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  std::vector<std::string> expected = names;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(loaded.CollectionNames(), expected);
  for (const std::string& name : names) {
    const Collection* c = loaded.FindCollection(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->FindOne(Obj("{}"))->GetString("owner"), name);
  }
  EXPECT_EQ(loaded.CanonicalDump(), db.CanonicalDump());
  fs::remove_all(dir);
}

TEST(DatabaseTest, SnapshotFilenameCodecAvoidsCaseCollisions) {
  // Distinct names must encode to filenames that stay distinct even under
  // case folding: uppercase bytes are escaped, and the escape hex is
  // always uppercase while literal letters are always lowercase.
  const std::string a = EncodeSnapshotFilename("Summaries");
  const std::string b = EncodeSnapshotFilename("summaries");
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  EXPECT_NE(lower(a), lower(b));
  for (const std::string& name :
       {std::string("data.jsonl"), std::string("A/B c%"),
        std::string("\xff\x00x", 3)}) {
    auto decoded = DecodeSnapshotFilename(EncodeSnapshotFilename(name));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, name);
  }
}

TEST(DatabaseTest, LegacyJsonlMigratesToBinary) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_migrate_test";
  fs::remove_all(dir);

  Database legacy;
  ASSERT_TRUE(legacy.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  // Legacy plain `<name>.jsonl` layout, written the way older builds did.
  fs::create_directories(dir);
  const std::string jsonl = legacy.FindCollection("summaries")->DumpJsonl();
  ASSERT_TRUE(
      io::WriteFileDurable((dir / "summaries.jsonl").string(), {jsonl}).ok());
  ASSERT_TRUE(fs::exists(dir / "summaries.jsonl"));

  // A database saved as JSONL loads transparently...
  Database db;
  ASSERT_TRUE(db.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(db.CanonicalDump(), legacy.CanonicalDump());

  // ...and its next (binary) save supersedes the legacy file: loading a
  // directory holding both formats must not double-apply or prefer the
  // stale JSONL.
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://b"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  ASSERT_TRUE(fs::exists(dir / "summaries.jsonl"));  // stale, still present

  Database reloaded;
  ASSERT_TRUE(reloaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(reloaded.CanonicalDump(), db.CanonicalDump());
  EXPECT_EQ(reloaded.FindCollection("summaries")->size(), 2u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, CorruptedSnapshotIsRejectedWithCleanStatus) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_corrupt_test";
  fs::remove_all(dir);

  Database db;
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  fs::path snap = dir / "summaries.hbsnap";
  ASSERT_TRUE(fs::exists(snap));

  // Truncated header.
  {
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << "HBSN";
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  // Bad magic, full-size file.
  {
    std::string bogus(64, 'x');
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << bogus;
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  // Single flipped payload byte: checksum must catch it.
  {
    ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
    std::string bytes;
    {
      std::ifstream in(snap, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() - 1] ^= 0x01;
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << bytes;
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  fs::remove_all(dir);
}

// Builds the fixed database whose snapshot bytes are pinned: escapes,
// control characters, UTF-8, every number form, nested objects built with
// out-of-order keys, and documents that went through Update, Replace and
// Remove.
void FillPinnedDatabase(Database* db) {
  Collection* docs = db->GetCollection("schema_summaries");
  docs->CreateIndex("endpoint_url");
  for (int i = 0; i < 6; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("endpoint_url",
            "http://ld" + std::to_string(i) + ".example.org/sparql");
    doc.Set("zeta", i * 0.1);
    doc.Set("alpha", static_cast<int64_t>(1) << (40 + i));
    doc.Set("mid", i % 2 == 0);
    doc.Set("label", std::string("tab\there \"q\" back\\slash \x01\x1f é") +
                         std::to_string(i));
    Json nodes = Json::MakeArray();
    for (int n = 0; n <= i; ++n) {
      Json node = Json::MakeObject();
      node.Set("iri", "http://x/C" + std::to_string(n));
      node.Set("count", n * 1000 + 7);
      node.Set("share", 1.0 / (n + 3));
      node.Set("big", 1e15 + n);
      node.Set("tiny", -1e-7 * (n + 1));
      node.Set("none", nullptr);
      nodes.Append(std::move(node));
    }
    doc.Set("nodes", std::move(nodes));
    ASSERT_TRUE(docs->Insert(std::move(doc)).ok());
  }
  Json update = Json::MakeObject();
  update.Set("extracted_day", 3);
  ASSERT_TRUE(
      docs->Update(Obj(R"({"endpoint_url":"http://ld2.example.org/sparql"})"),
                   update)
          .ok());
  ASSERT_TRUE(
      docs->Replace(Obj(R"({"endpoint_url":"http://ld4.example.org/sparql"})"),
                    Obj(R"({"endpoint_url":"http://ld4.example.org/sparql",)"
                        R"("v":2,"a":[1,2.5,"x",{"b":null,"a":false}]})"))
          .ok());
  docs->Remove(Obj(R"({"endpoint_url":"http://ld1.example.org/sparql"})"));
  Collection* odd = db->GetCollection("Odd.Name/x");
  ASSERT_TRUE(
      odd->Insert(Obj(R"({"k":-0.0,"n":-12345678901234,"d":123456.789e3})"))
          .ok());
  db->GetCollection("empty");
}

/// Every file in `dir`, by file name.
std::map<std::string, std::string> ReadFiles(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto bytes = io::ReadFile(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

TEST(DatabaseTest, SnapshotBytesArePinned) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hbold_store_pinned";
  // File sizes and FNV-1a 64 of the bytes every earlier save wrote for
  // this database, whether it saves inline or on a pool.
  const std::map<std::string, std::pair<size_t, uint64_t>> expected = {
      {"schema_summaries.hbsnap", {2598, 0xe5447ee66991efa4ull}},
      {"%4Fdd%2E%4Eame%2Fx.hbsnap", {92, 0x3b3979859b1473a0ull}},
      {"empty.hbsnap", {37, 0x469b1d6383312987ull}}};
  ThreadPool pool(4);
  for (ThreadPool* owner_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(owner_pool == nullptr ? "inline" : "pooled");
    fs::remove_all(dir);
    Database db(owner_pool);
    FillPinnedDatabase(&db);
    ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
    const std::map<std::string, std::string> files = ReadFiles(dir);
    for (const auto& [name, bytes] : files) {
      auto want = expected.find(name);
      ASSERT_NE(want, expected.end()) << name;
      EXPECT_EQ(bytes.size(), want->second.first) << name;
      EXPECT_EQ(Fnv64(bytes), want->second.second) << name;
    }
    EXPECT_EQ(files.size(), expected.size());
    EXPECT_EQ(Fnv64(db.CanonicalDump()), 0x6ed12721ec6f712dull);
    Database loaded;
    ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
    EXPECT_EQ(loaded.CanonicalDump(), db.CanonicalDump());
  }
  fs::remove_all(dir);
}

// An empty collection, a one-document collection and 1,200 documents of
// mixed sizes with escapes and non-ASCII text.
void FillMixedDatabase(Database* db) {
  db->GetCollection("empty");
  ASSERT_TRUE(db->GetCollection("one")->Insert(Obj(R"({"k":"v"})")).ok());
  Collection* many = db->GetCollection("many");
  for (int i = 0; i < 1200; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("seq", i);
    doc.Set("text", "esc \"q\" \\ \t\n\x02 caf\xc3\xa9 \xe6\x97\xa5 " +
                        std::string(static_cast<size_t>(i % 97) * 13, 'x'));
    if (i % 5 == 0) {
      Json nested = Json::MakeArray();
      for (int n = 0; n < i % 23; ++n) nested.Append(n * 0.25);
      doc.Set("nested", std::move(nested));
    }
    ASSERT_TRUE(many->Insert(std::move(doc)).ok());
  }
}

TEST(DatabaseTest, PooledSaveMatchesInlineBytes) {
  namespace fs = std::filesystem;
  const fs::path inline_dir = fs::temp_directory_path() / "hbold_save_inline";
  const fs::path pooled_dir = fs::temp_directory_path() / "hbold_save_pooled";
  fs::remove_all(inline_dir);
  fs::remove_all(pooled_dir);
  ThreadPool pool(4);
  Database inline_db;
  Database pooled_db(&pool);
  FillMixedDatabase(&inline_db);
  FillMixedDatabase(&pooled_db);
  ASSERT_TRUE(inline_db.SaveToDirectory(inline_dir.string()).ok());
  ASSERT_TRUE(pooled_db.SaveToDirectory(pooled_dir.string()).ok());
  const std::map<std::string, std::string> inline_files = ReadFiles(inline_dir);
  EXPECT_EQ(inline_files.size(), 3u);
  EXPECT_EQ(ReadFiles(pooled_dir), inline_files);
  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(pooled_dir.string()).ok());
  EXPECT_EQ(loaded.CanonicalDump(), inline_db.CanonicalDump());
  fs::remove_all(inline_dir);
  fs::remove_all(pooled_dir);
}

TEST(DatabaseTest, FailedPooledSaveKeepsPreviousFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hbold_save_failed";
  fs::remove_all(dir);
  ThreadPool pool(4);
  Database db(&pool);
  for (const char* name : {"alpha", "beta", "gamma"}) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.GetCollection(name)
                      ->Insert(Obj(R"({"round":1,"i":)" + std::to_string(i) +
                                   "}"))
                      .ok());
    }
  }
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  const std::map<std::string, std::string> before = ReadFiles(dir);
  for (const char* name : {"alpha", "beta", "gamma"}) {
    ASSERT_TRUE(db.GetCollection(name)->Insert(Obj(R"({"round":2})")).ok());
  }
  // A directory where a temp file belongs makes open() fail with EISDIR.
  // Two collections fail; the first in name order is reported.
  fs::create_directory(dir / "beta.hbsnap.tmp");
  fs::create_directory(dir / "gamma.hbsnap.tmp");
  const Status st = db.SaveToDirectory(dir.string());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("beta.hbsnap"), std::string::npos)
      << st.message();
  const std::map<std::string, std::string> after = ReadFiles(dir);
  EXPECT_EQ(after.at("beta.hbsnap"), before.at("beta.hbsnap"));
  EXPECT_EQ(after.at("gamma.hbsnap"), before.at("gamma.hbsnap"));
  EXPECT_NE(after.at("alpha.hbsnap"), before.at("alpha.hbsnap"));

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_FALSE(fs::exists(dir / "beta.hbsnap.tmp"));
  EXPECT_FALSE(fs::exists(dir / "gamma.hbsnap.tmp"));
  EXPECT_EQ(loaded.CollectionNames(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(loaded.FindCollection("alpha")->size(), 41u);
  EXPECT_EQ(loaded.FindCollection("beta")->size(), 40u);
  EXPECT_EQ(loaded.FindCollection("gamma")->size(), 40u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, PooledSaveDuringReplaceLoads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hbold_save_concurrent";
  fs::remove_all(dir);
  ThreadPool pool(4);
  Database db(&pool);
  constexpr int kUrls = 8;
  Collection* replaced = db.GetCollection("replaced");
  replaced->CreateIndex("url");
  for (int u = 0; u < kUrls; ++u) {
    Json doc = Json::MakeObject();
    doc.Set("url", "u" + std::to_string(u));
    doc.Set("version", 0);
    doc.Set("payload", std::string(256, 'p'));
    ASSERT_TRUE(replaced->Insert(std::move(doc)).ok());
  }
  Collection* steady = db.GetCollection("steady");
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(steady->Insert(Obj(R"({"i":)" + std::to_string(i) + "}")).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([replaced, &stop] {
    for (int round = 1; !stop; ++round) {
      Json filter = Json::MakeObject();
      filter.Set("url", "u" + std::to_string(round % kUrls));
      Json doc = filter;
      doc.Set("version", round);
      doc.Set("payload", std::string(256 + round % 7, 'p'));
      ASSERT_TRUE(replaced->Replace(filter, std::move(doc)).ok());
    }
  });
  for (int save = 0; save < 20; ++save) {
    ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
    Database loaded;
    ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
    const Collection* got = loaded.FindCollection("replaced");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->size(), static_cast<size_t>(kUrls));
    for (const DocHandle& doc : got->Snapshot()) {
      EXPECT_EQ(doc->GetString("payload").size(),
                static_cast<size_t>(256 + doc->GetInt("version") % 7));
    }
    EXPECT_EQ(loaded.FindCollection("steady")->size(), 300u);
  }
  stop = true;
  writer.join();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------- Handles

class DocHandleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    c_.CreateIndex("url");
    ASSERT_TRUE(c_.Insert(Obj(R"({"url":"a","v":1})")).ok());
    ASSERT_TRUE(c_.Insert(Obj(R"({"url":"b","v":2})")).ok());
    held_ = c_.FindOne(Obj(R"({"url":"a"})"));
    ASSERT_NE(held_, nullptr);
    held_dump_ = held_->Dump();
  }
  Collection c_{"handles"};
  DocHandle held_;
  std::string held_dump_;
};

TEST_F(DocHandleTest, FindOneHandleSurvivesReplace) {
  ASSERT_TRUE(c_.Replace(Obj(R"({"url":"a"})"), Obj(R"({"url":"a","v":9})"))
                  .ok());
  EXPECT_EQ(held_->Dump(), held_dump_);
  EXPECT_EQ(c_.FindOne(Obj(R"({"url":"a"})"))->GetInt("v"), 9);
}

TEST_F(DocHandleTest, FindOneHandleSurvivesRemove) {
  EXPECT_EQ(c_.Remove(Obj(R"({"url":"a"})")), 1u);
  EXPECT_EQ(held_->Dump(), held_dump_);
  EXPECT_EQ(c_.FindOne(Obj(R"({"url":"a"})")), nullptr);
}

TEST_F(DocHandleTest, FindOneHandleSurvivesUpdate) {
  ASSERT_TRUE(c_.Update(Obj(R"({"url":"a"})"), Obj(R"({"v":5,"w":true})"))
                  .ok());
  EXPECT_EQ(held_->Dump(), held_dump_);
  DocHandle fresh = c_.FindById(held_->GetInt("_id"));
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, held_);
  EXPECT_EQ(fresh->GetInt("v"), 5);
  EXPECT_TRUE(fresh->GetBool("w"));
  EXPECT_EQ(fresh->GetInt("_id"), held_->GetInt("_id"));
}

TEST_F(DocHandleTest, ReadsShareOneDocument) {
  // Two reads of an unchanged document return the same stored object.
  EXPECT_EQ(c_.FindOne(Obj(R"({"url":"a"})")), held_);
  EXPECT_EQ(c_.FindById(held_->GetInt("_id")), held_);
  EXPECT_EQ(c_.Snapshot().front(), held_);
}

// ------------------------------------------------------------- Concurrency

TEST(CollectionSnapshotTest, SnapshotIsImmutableView) {
  Collection c("snap");
  ASSERT_TRUE(c.Insert(Obj(R"({"k":1})")).ok());
  ASSERT_TRUE(c.Insert(Obj(R"({"k":2})")).ok());
  std::vector<DocHandle> snapshot = c.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0]->GetInt("k"), 1);
  c.Remove(Obj(R"({"k":1})"));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(snapshot.size(), 2u);  // unaffected by the removal
}

TEST(ConcurrencyTest, ParallelWritersToDistinctCollections) {
  Database db;
  constexpr int kWriters = 8;
  constexpr int kDocsPerWriter = 200;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, w] {
      Collection* c = db.GetCollection("c" + std::to_string(w));
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Json doc = Json::MakeObject();
        doc.Set("writer", w);
        doc.Set("seq", i);
        ASSERT_TRUE(c->Insert(std::move(doc)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(db.CollectionNames().size(), static_cast<size_t>(kWriters));
  for (int w = 0; w < kWriters; ++w) {
    const Collection* c = db.FindCollection("c" + std::to_string(w));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->size(), static_cast<size_t>(kDocsPerWriter));
  }
}

TEST(ConcurrencyTest, ParallelWritersToSameCollection) {
  Database db;
  Collection* c = db.GetCollection("shared");
  constexpr int kWriters = 4;
  constexpr int kDocsPerWriter = 250;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([c, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Json doc = Json::MakeObject();
        doc.Set("writer", w);
        ASSERT_TRUE(c->Insert(std::move(doc)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(c->size(), static_cast<size_t>(kWriters * kDocsPerWriter));
  // Every document got a distinct id.
  std::set<int64_t> ids;
  for (const DocHandle& doc : c->Snapshot()) ids.insert(doc->GetInt("_id"));
  EXPECT_EQ(ids.size(), static_cast<size_t>(kWriters * kDocsPerWriter));
}

TEST(ConcurrencyTest, ReadersDuringWrites) {
  Database db;
  Collection* c = db.GetCollection("mixed");
  c->CreateIndex("k");
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};

  std::thread writer([c, &stop] {
    for (int i = 0; i < 500; ++i) {
      Json doc = Json::MakeObject();
      doc.Set("k", i % 10);
      doc.Set("seq", i);
      ASSERT_TRUE(c->Insert(std::move(doc)).ok());
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([c, &stop, &read_errors] {
      Json filter = Json::MakeObject();
      filter.Set("k", 3);
      while (!stop) {
        // Every doc an indexed read returns must actually match.
        for (const DocHandle& doc : c->Find(filter)) {
          if (doc->GetInt("k") != 3) ++read_errors;
        }
        c->Snapshot();
        c->CountMatching(filter);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(c->size(), 500u);
  Json filter = Json::MakeObject();
  filter.Set("k", 3);
  EXPECT_EQ(c->CountMatching(filter), 50u);
}

TEST(ConcurrencyTest, HandlesHeldAcrossConcurrentReplace) {
  Database db;
  Collection* c = db.GetCollection("replaced");
  c->CreateIndex("url");
  constexpr int kUrls = 4;
  constexpr int kRounds = 2000;
  for (int u = 0; u < kUrls; ++u) {
    Json doc = Json::MakeObject();
    doc.Set("url", "u" + std::to_string(u));
    doc.Set("version", 0);
    doc.Set("payload", std::string(256, static_cast<char>('a' + u)));
    ASSERT_TRUE(c->Insert(std::move(doc)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::thread writer([c, &stop] {
    for (int round = 1; round <= kRounds; ++round) {
      for (int u = 0; u < kUrls; ++u) {
        Json filter = Json::MakeObject();
        filter.Set("url", "u" + std::to_string(u));
        Json doc = filter;
        doc.Set("version", round);
        doc.Set("payload", std::string(256 + round % 7,
                                       static_cast<char>('a' + u)));
        ASSERT_TRUE(c->Replace(filter, std::move(doc)).ok());
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([c, r, &stop, &read_errors] {
      Json filter = Json::MakeObject();
      filter.Set("url", "u" + std::to_string(r % kUrls));
      std::vector<std::pair<DocHandle, std::string>> held;
      int64_t last_version = -1;
      while (!stop) {
        DocHandle doc = c->FindOne(filter);
        // Replace is atomic: the document is never missing, and versions
        // only move forward.
        if (doc == nullptr) {
          ++read_errors;
          continue;
        }
        const int64_t version = doc->GetInt("version");
        if (version < last_version) ++read_errors;
        last_version = version;
        // Keep a window of old versions alive while the writer keeps
        // displacing them; each must stay exactly as it was read.
        held.emplace_back(doc, doc->Dump());
        if (held.size() > 16) held.erase(held.begin());
        for (const auto& [handle, dump] : held) {
          if (handle->Dump() != dump) ++read_errors;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(c->size(), static_cast<size_t>(kUrls));
  for (const DocHandle& doc : c->Snapshot()) {
    EXPECT_EQ(doc->GetInt("version"), kRounds);
  }
}

}  // namespace
}  // namespace hbold::store
