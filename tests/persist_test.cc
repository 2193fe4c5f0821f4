// The durability layer (src/persist/) and its wiring through the session
// manager: WAL framing and strict recovery, snapshot-then-trim compaction,
// catalog warm start, and — the load-bearing guarantee — kill/restart/
// replay landing *bit-identically* on the state an uninterrupted run
// reaches. tools/check.sh additionally SIGKILLs a live ptk_server
// mid-stream and diffs the recovered transcript against a golden run; the
// tests here pin the same contract in-process where every byte can be
// inspected.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "obs/metrics.h"
#include "persist/catalog.h"
#include "persist/session_store.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "rank/membership.h"
#include "serve/session_manager.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk {
namespace {

using util::Status;
using util::StatusOr;

model::Database TestDb(int num_objects = 12, uint64_t seed = 7) {
  data::SynOptions options;
  options.num_objects = num_objects;
  options.avg_instances = 3;
  options.value_range = 100.0;
  options.cluster_width = 30.0;  // overlapping clusters: real uncertainty
  options.seed = seed;
  return data::MakeSynDataset(options);
}

/// A scratch directory removed on scope exit, crash-leftovers included.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string pattern = testing::TempDir() + "ptk_" + tag + "_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    char* made = mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? pattern : made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<persist::WalRecord> SampleRecords() {
  using persist::WalRecord;
  std::vector<WalRecord> records;
  WalRecord asked;
  asked.type = WalRecord::Type::kAsked;
  asked.seq = 1;
  asked.smaller = 0;
  asked.larger = 3;
  asked.fold_version = 0;
  records.push_back(asked);
  WalRecord applied;
  applied.type = WalRecord::Type::kAnswer;
  applied.seq = 2;
  applied.smaller = 3;
  applied.larger = 0;
  applied.update_working = true;
  applied.fold_version = 1;
  records.push_back(applied);
  WalRecord rejected = applied;
  rejected.seq = 3;
  rejected.smaller = 0;
  rejected.larger = 3;
  rejected.fold_version = 1;  // rejected: version unchanged
  records.push_back(rejected);
  WalRecord late;
  late.type = WalRecord::Type::kAsked;
  late.seq = 4;
  late.smaller = 7;
  late.larger = 11;
  late.fold_version = 1;
  records.push_back(late);
  return records;
}

std::vector<uint8_t> WalImage(const std::vector<persist::WalRecord>& records) {
  std::vector<uint8_t> image(persist::WalMagic().begin(),
                             persist::WalMagic().end());
  for (const persist::WalRecord& record : records) {
    const std::vector<uint8_t> frame = persist::EncodeWalFrame(record);
    image.insert(image.end(), frame.begin(), frame.end());
  }
  return image;
}

// ---------------------------------------------------------------------------
// WAL framing

TEST(WalTest, Crc32cKnownAnswer) {
  // The canonical CRC-32C check value for "123456789".
  const std::string digits = "123456789";
  EXPECT_EQ(persist::Crc32c(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(digits.data()),
                digits.size())),
            0xE3069283u);
}

TEST(WalTest, RoundTrip) {
  const std::vector<persist::WalRecord> records = SampleRecords();
  const std::vector<uint8_t> image = WalImage(records);
  const persist::WalReadResult result = persist::ParseWal(image);
  EXPECT_EQ(result.records, records);
  EXPECT_EQ(result.valid_bytes, image.size());
  EXPECT_FALSE(result.torn_tail);
}

TEST(WalTest, EmptyAndHeaderOnlyImagesAreValidEmptyLogs) {
  const persist::WalReadResult empty = persist::ParseWal({});
  EXPECT_TRUE(empty.records.empty());
  const std::vector<uint8_t> header(persist::WalMagic().begin(),
                                    persist::WalMagic().end());
  const persist::WalReadResult only_header = persist::ParseWal(header);
  EXPECT_TRUE(only_header.records.empty());
  EXPECT_FALSE(only_header.torn_tail);
  EXPECT_EQ(only_header.valid_bytes, header.size());
}

TEST(WalTest, NonMonotonicSeqEndsTheValidPrefix) {
  std::vector<persist::WalRecord> records = SampleRecords();
  records[2].seq = records[1].seq;  // repeat: replay would double-fold
  const persist::WalReadResult result =
      persist::ParseWal(WalImage(records));
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.torn_tail);
}

// Every single-byte flip and every truncation of a valid image must parse
// to a strict prefix of the original records without crashing — the
// byte-level version of "a torn write never poisons recovery".
TEST(WalTest, CorruptionSweepAlwaysYieldsValidPrefix) {
  const std::vector<persist::WalRecord> records = SampleRecords();
  const std::vector<uint8_t> image = WalImage(records);
  const auto expect_prefix = [&](const persist::WalReadResult& result,
                                 size_t limit) {
    ASSERT_LE(result.records.size(), records.size());
    ASSERT_LE(result.valid_bytes, limit);
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i], records[i]);
    }
  };
  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<uint8_t> flipped = image;
    flipped[pos] ^= 0x41;
    expect_prefix(persist::ParseWal(flipped), flipped.size());
  }
  for (size_t len = 0; len < image.size(); ++len) {
    expect_prefix(
        persist::ParseWal(std::span<const uint8_t>(image.data(), len)), len);
  }
}

TEST(WalTest, WriterAppendsAndRepairReadTruncatesTornTail) {
  TempDir dir("wal");
  const std::string path = dir.path + "/wal.log";
  const std::vector<persist::WalRecord> records = SampleRecords();
  {
    StatusOr<persist::WalWriter> writer =
        persist::WalWriter::Open(path, /*fsync_writes=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const persist::WalRecord& record : records) {
      ASSERT_TRUE(writer->Append(record).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Simulate a torn final write: half a frame of garbage at the tail.
  std::vector<uint8_t> bytes = ReadAll(path);
  const size_t intact_size = bytes.size();
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef, 0x01});
  WriteAll(path, bytes);

  StatusOr<persist::WalReadResult> read =
      persist::ReadWalFile(path, /*repair_tail=*/true);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records, records);
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);

  // A writer reopened after repair appends a readable record.
  StatusOr<persist::WalWriter> writer =
      persist::WalWriter::Open(path, /*fsync_writes=*/false);
  ASSERT_TRUE(writer.ok());
  persist::WalRecord next;
  next.type = persist::WalRecord::Type::kAsked;
  next.seq = 5;
  next.smaller = 1;
  next.larger = 2;
  ASSERT_TRUE(writer->Append(next).ok());
  writer->Close();
  read = persist::ReadWalFile(path, /*repair_tail=*/false);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), records.size() + 1);
  EXPECT_EQ(read->records.back(), next);
}

// ---------------------------------------------------------------------------
// Snapshots

persist::SessionSnapshot SampleSnapshot() {
  persist::SessionSnapshot snapshot;
  snapshot.last_seq = 42;
  snapshot.fold_version = 3;
  snapshot.constraints = {{0, 3}, {3, 7}, {2, 5}};
  snapshot.asked = {{0, 3}, {2, 5}, {3, 7}, {7, 11}};
  persist::SessionSnapshot::ObjectWeights weights;
  weights.oid = 5;
  // Deliberately awkward doubles: denormal-adjacent, non-representable
  // decimal, and a last-bit neighbour — bit-exactness must survive all.
  weights.probs = {0.1, std::nextafter(0.3, 1.0), 1e-308, 0.6};
  snapshot.working.push_back(weights);
  return snapshot;
}

TEST(SnapshotTest, EncodeDecodeRoundTripIsBitExact) {
  const persist::SessionSnapshot snapshot = SampleSnapshot();
  StatusOr<persist::SessionSnapshot> decoded =
      persist::DecodeSnapshot(persist::EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, snapshot);
  for (size_t i = 0; i < snapshot.working[0].probs.size(); ++i) {
    EXPECT_EQ(Bits(decoded->working[0].probs[i]),
              Bits(snapshot.working[0].probs[i]));
  }
}

TEST(SnapshotTest, EveryByteFlipIsRejected) {
  const std::vector<uint8_t> image =
      persist::EncodeSnapshot(SampleSnapshot());
  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<uint8_t> flipped = image;
    flipped[pos] ^= 0x41;
    StatusOr<persist::SessionSnapshot> decoded =
        persist::DecodeSnapshot(flipped);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << pos << " was accepted";
  }
}

TEST(SnapshotTest, FileRoundTripAndMissingFileIsNotFound) {
  TempDir dir("snap");
  const std::string path = dir.path + "/snapshot.ptk";
  StatusOr<persist::SessionSnapshot> missing =
      persist::ReadSnapshotFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
  const persist::SessionSnapshot snapshot = SampleSnapshot();
  ASSERT_TRUE(
      persist::WriteSnapshotFile(path, snapshot, /*fsync_writes=*/false)
          .ok());
  StatusOr<persist::SessionSnapshot> read = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, snapshot);
}

// ---------------------------------------------------------------------------
// Session store: snapshot-then-trim

TEST(SessionStoreTest, SnapshotTrimsWalAndRecoveryResumesSeq) {
  TempDir dir("store");
  persist::SessionMeta meta;
  meta.session_id = "s1";
  meta.db_fingerprint = 0xfeed;
  meta.k = 4;
  meta.order = 0;
  {
    StatusOr<persist::SessionStore> store =
        persist::SessionStore::Create(dir.path, meta, /*fsync_writes=*/false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < 5; ++i) {
      persist::WalRecord record;
      record.type = persist::WalRecord::Type::kAsked;
      record.seq = store->NextSeq();
      record.smaller = i;
      record.larger = i + 1;
      ASSERT_TRUE(store->Append(record).ok());
    }
    persist::SessionSnapshot snapshot;
    snapshot.last_seq = store->last_seq();
    snapshot.fold_version = 0;
    ASSERT_TRUE(store->TakeSnapshot(snapshot).ok());
    // Trimmed: nothing but the header remains in the WAL.
    EXPECT_EQ(std::filesystem::file_size(dir.path + "/sessions/s1/wal.log"),
              persist::WalMagic().size());
  }
  StatusOr<persist::RecoveredSession> recovered =
      persist::SessionStore::OpenExisting(dir.path, "s1",
                                          /*fsync_writes=*/false);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->meta, meta);
  ASSERT_TRUE(recovered->snapshot.has_value());
  EXPECT_EQ(recovered->snapshot->last_seq, 5u);
  EXPECT_TRUE(recovered->records.empty());
  // Seq continues past the snapshot instead of restarting at 1.
  EXPECT_EQ(recovered->store.NextSeq(), 6u);
}

TEST(SessionStoreTest, CreateRefusesExistingSessionDir) {
  TempDir dir("dup");
  persist::SessionMeta meta;
  meta.session_id = "s1";
  ASSERT_TRUE(persist::SessionStore::Create(dir.path, meta, false).ok());
  StatusOr<persist::SessionStore> again =
      persist::SessionStore::Create(dir.path, meta, false);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), Status::Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Catalog

TEST(CatalogTest, DatabaseRoundTripIsBitExact) {
  const model::Database db = TestDb();
  StatusOr<model::Database> decoded =
      persist::CatalogIo::DecodeDatabase(persist::CatalogIo::EncodeDatabase(db));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_objects(), db.num_objects());
  for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
    const auto& original = db.object(oid).instances();
    const auto& restored = decoded->object(oid).instances();
    ASSERT_EQ(restored.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(Bits(restored[i].value), Bits(original[i].value));
      EXPECT_EQ(Bits(restored[i].prob), Bits(original[i].prob));
    }
  }
  EXPECT_EQ(persist::DatabaseFingerprint(*decoded),
            persist::DatabaseFingerprint(db));
}

TEST(CatalogTest, SaveLoadCarriesWarmSinglesAndRejectsCorruption) {
  TempDir dir("catalog");
  const std::string path = dir.path + "/catalog.ptk";
  const model::Database db = TestDb();
  rank::MembershipCalculator membership(db, 4);
  if (db.num_objects() > 0) membership.ObjectTopKProbability(0);  // warm
  persist::CatalogArtifacts artifacts;
  artifacts.membership_k = 4;
  artifacts.warm_singles = membership.ExportWarmSingles();
  artifacts.tree_fanout = 8;
  ASSERT_TRUE(
      persist::SaveCatalog(path, db, artifacts, /*fsync_writes=*/false).ok());

  StatusOr<persist::LoadedCatalog> loaded = persist::LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, persist::DatabaseFingerprint(db));
  EXPECT_EQ(loaded->artifacts, artifacts);
  rank::MembershipCalculator warm(db, 4);
  ASSERT_TRUE(warm.ImportWarmSingles(loaded->artifacts.warm_singles));
  for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
    EXPECT_EQ(Bits(warm.ObjectTopKProbability(oid)),
              Bits(membership.ObjectTopKProbability(oid)));
  }

  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x41;
  WriteAll(path, bytes);
  EXPECT_FALSE(persist::LoadCatalog(path).ok());
}

// ---------------------------------------------------------------------------
// Manager-level recovery: the bit-identical contract

serve::SessionManager::Options PersistOptions(const std::string& dir,
                                              bool update_working) {
  serve::SessionManager::Options options;
  options.k = 4;
  options.fanout = 4;
  options.update_working = update_working;
  options.persist.dir = dir;
  options.persist.fsync = false;   // in-process "crash" keeps the bytes
  options.persist.snapshot_every = 3;  // exercise snapshot+trim mid-run
  return options;
}

std::vector<std::pair<model::ObjectId, model::ObjectId>> AnswerByExpectation(
    const model::Database& db, const std::vector<core::ScoredPair>& pairs) {
  std::vector<std::pair<model::ObjectId, model::ObjectId>> answers;
  for (const core::ScoredPair& pair : pairs) {
    const bool a_smaller = db.object(pair.a).ExpectedValue() <=
                           db.object(pair.b).ExpectedValue();
    answers.emplace_back(a_smaller ? pair.a : pair.b,
                         a_smaller ? pair.b : pair.a);
  }
  return answers;
}

struct SessionState {
  std::vector<std::pair<pw::ResultKey, double>> ranked;
  double entropy = 0.0;
  double quality = 0.0;
  uint64_t version = 0;
};

void RunRounds(serve::SessionManager& manager, const model::Database& db,
               const std::string& id, int rounds, SessionState* out) {
  for (int round = 0; round < rounds; ++round) {
    StatusOr<std::vector<core::ScoredPair>> pairs = manager.NextPairs(id, 2);
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    serve::PostReport report;
    ASSERT_TRUE(
        manager.PostAnswers(id, AnswerByExpectation(db, *pairs), &report)
            .ok());
    out->version = report.version;
  }
  StatusOr<pw::TopKDistribution> dist = manager.Distribution(id);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  out->ranked = dist->SortedByProbDesc();
  out->entropy = dist->Entropy();
  StatusOr<double> quality = manager.Quality(id);
  ASSERT_TRUE(quality.ok());
  out->quality = *quality;
}

void ExpectBitIdentical(const SessionState& got, const SessionState& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(Bits(got.entropy), Bits(want.entropy));
  EXPECT_EQ(Bits(got.quality), Bits(want.quality));
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (size_t i = 0; i < want.ranked.size(); ++i) {
    EXPECT_EQ(got.ranked[i].first, want.ranked[i].first) << "rank " << i;
    EXPECT_EQ(Bits(got.ranked[i].second), Bits(want.ranked[i].second))
        << "rank " << i;
  }
}

class KillRestartTest : public testing::TestWithParam<bool> {};

// The acceptance contract: run half the cleaning loop, drop the manager
// without closing (a process kill, minus the process), recover in a fresh
// manager, run the other half — and land on exactly the bytes an
// uninterrupted run produces. Parameterized over update_working because
// the two modes persist different state (constraints only vs. constraints
// + working-copy marginals).
TEST_P(KillRestartTest, ReplayIsBitIdenticalToUninterruptedRun) {
  const bool update_working = GetParam();
  const model::Database db = TestDb();
  constexpr int kRoundsBefore = 3;
  constexpr int kRoundsAfter = 2;

  // Golden: the same script, never interrupted, no persistence at all.
  SessionState golden;
  {
    serve::SessionManager::Options options = PersistOptions("", update_working);
    options.persist.dir.clear();
    serve::SessionManager manager(db, options);
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    RunRounds(manager, db, *id, kRoundsBefore + kRoundsAfter, &golden);
  }

  TempDir dir("kill");
  std::string session_id;
  {
    serve::SessionManager manager(db,
                                  PersistOptions(dir.path, update_working));
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    session_id = *id;
    SessionState ignored;
    RunRounds(manager, db, session_id, kRoundsBefore, &ignored);
    // No Close(): the manager dies with the session open, journal intact.
  }
  serve::SessionManager manager(db, PersistOptions(dir.path, update_working));
  StatusOr<int> recovered = manager.RecoverSessions();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1);
  SessionState resumed;
  RunRounds(manager, db, session_id, kRoundsAfter, &resumed);
  ExpectBitIdentical(resumed, golden);

  // The recovered manager resumes the id sequence instead of colliding.
  StatusOr<std::string> next = manager.CreateSession();
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, session_id);
}

INSTANTIATE_TEST_SUITE_P(BothFoldModes, KillRestartTest,
                         testing::Values(false, true));

TEST(ManagerPersistTest, RecoverySurvivesTornWalTail) {
  const model::Database db = TestDb();
  TempDir dir("torn");
  std::string session_id;
  SessionState before;
  {
    serve::SessionManager::Options options = PersistOptions(dir.path, false);
    options.persist.snapshot_every = 0;  // keep every record in the WAL
    serve::SessionManager manager(db, options);
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    session_id = *id;
    RunRounds(manager, db, session_id, 2, &before);
  }
  // A crash mid-append leaves a torn frame; recovery must shrug it off.
  const std::string wal =
      dir.path + "/sessions/" + session_id + "/wal.log";
  std::vector<uint8_t> bytes = ReadAll(wal);
  bytes.insert(bytes.end(), {0x13, 0x37, 0x00});
  WriteAll(wal, bytes);

  serve::SessionManager::Options options = PersistOptions(dir.path, false);
  options.persist.snapshot_every = 0;
  serve::SessionManager manager(db, options);
  StatusOr<int> recovered = manager.RecoverSessions();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SessionState after;
  RunRounds(manager, db, session_id, 0, &after);
  after.version = before.version;  // RunRounds(0) never posts
  ExpectBitIdentical(after, before);
}

// Contradictory answers are journaled too, and replay reproduces the same
// accept/reject decisions (pinned by the per-record fold_version check
// inside RecoverSessions — a divergence would fail recovery loudly).
TEST(ManagerPersistTest, ContradictoryAnswersReplayIdentically) {
  const model::Database db = TestDb();
  TempDir dir("contra");
  std::string session_id;
  serve::PostReport first;
  {
    serve::SessionManager manager(db, PersistOptions(dir.path, false));
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    session_id = *id;
    // (0,1) then its reverse: the second answer contradicts the first.
    ASSERT_TRUE(
        manager.PostAnswers(session_id, {{0, 1}, {1, 0}}, &first).ok());
    EXPECT_EQ(first.applied, 1);
    EXPECT_EQ(first.contradictory, 1);
  }
  serve::SessionManager manager(db, PersistOptions(dir.path, false));
  StatusOr<int> recovered = manager.RecoverSessions();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Re-posting the contradiction after recovery is rejected exactly as a
  // continuous session would reject it.
  serve::PostReport again;
  ASSERT_TRUE(manager.PostAnswers(session_id, {{1, 0}}, &again).ok());
  EXPECT_EQ(again.applied, 0);
  EXPECT_EQ(again.contradictory, 1);
  EXPECT_EQ(again.version, first.version);
}

TEST(ManagerPersistTest, RecoveryRefusesMismatchedConfigOrDatabase) {
  const model::Database db = TestDb();
  TempDir dir("mismatch");
  {
    serve::SessionManager manager(db, PersistOptions(dir.path, false));
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    SessionState ignored;
    RunRounds(manager, db, *id, 1, &ignored);
  }
  {
    serve::SessionManager::Options options = PersistOptions(dir.path, false);
    options.k = 5;  // journal says k=4
    serve::SessionManager manager(db, options);
    StatusOr<int> recovered = manager.RecoverSessions();
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), Status::Code::kFailedPrecondition);
  }
  {
    const model::Database other = TestDb(12, /*seed=*/99);
    serve::SessionManager manager(other, PersistOptions(dir.path, false));
    StatusOr<int> recovered = manager.RecoverSessions();
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), Status::Code::kFailedPrecondition);
  }
}

TEST(ManagerPersistTest, CloseDropsTheJournalDirectory) {
  const model::Database db = TestDb();
  TempDir dir("close");
  serve::SessionManager manager(db, PersistOptions(dir.path, false));
  StatusOr<std::string> id = manager.CreateSession();
  ASSERT_TRUE(id.ok());
  const std::string session_dir = dir.path + "/sessions/" + *id;
  EXPECT_TRUE(std::filesystem::exists(session_dir + "/meta"));
  ASSERT_TRUE(manager.Close(*id).ok());
  EXPECT_FALSE(std::filesystem::exists(session_dir));
}

// ---------------------------------------------------------------------------
// Ranking semantics: journaled per session, cross-checked on recovery

TEST(SessionStoreTest, MetaCarriesTheSemanticsByte) {
  TempDir dir("semmeta");
  persist::SessionMeta meta;
  meta.session_id = "s1";
  meta.db_fingerprint = 0xabc;
  meta.k = 3;
  meta.semantics = static_cast<uint8_t>(core::SemanticsId::kUKRanks);
  ASSERT_TRUE(persist::SessionStore::Create(dir.path, meta, false).ok());
  StatusOr<persist::RecoveredSession> recovered =
      persist::SessionStore::OpenExisting(dir.path, "s1", false);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->meta, meta);
  EXPECT_EQ(recovered->meta.semantics, 2);
}

// A journal whose meta names a semantics byte this build cannot map (a
// downgrade across an appended enumerator, or corruption that survived
// the CRC) is refused outright: replaying under a substituted objective
// would diverge silently instead of failing loudly.
TEST(ManagerPersistTest, RecoveryRefusesUnknownSemanticsByte) {
  const model::Database db = TestDb();
  TempDir dir("badsem");
  serve::SessionManager::Options options = PersistOptions(dir.path, false);
  persist::SessionMeta meta;
  meta.session_id = "s1";
  meta.db_fingerprint = persist::DatabaseFingerprint(db);
  meta.k = options.k;
  meta.order = static_cast<uint8_t>(options.order);
  meta.update_working = options.update_working;
  meta.semantics = 200;  // every other field matches the manager's config
  ASSERT_TRUE(persist::SessionStore::Create(dir.path, meta, false).ok());

  serve::SessionManager manager(db, options);
  StatusOr<int> recovered = manager.RecoverSessions();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(recovered.status().message().find("unknown ranking semantics"),
            std::string::npos)
      << recovered.status().ToString();
}

// The KillRestartTest contract under a non-default objective: the
// journaled semantics byte overrides the recovering manager's default, so
// a kill/restart/replay of an expected_rank session lands on exactly the
// bytes the uninterrupted run produces — quality included, which under
// this objective is the rank-variance functional, not entropy.
TEST(ManagerPersistTest, ExpectedRankKillRestartIsBitIdentical) {
  const model::Database db = TestDb();
  constexpr int kRoundsBefore = 3;
  constexpr int kRoundsAfter = 2;

  SessionState golden;
  {
    serve::SessionManager::Options options = PersistOptions("", false);
    options.persist.dir.clear();
    serve::SessionManager manager(db, options);
    StatusOr<std::string> id =
        manager.CreateSession("", core::SemanticsId::kExpectedRank);
    ASSERT_TRUE(id.ok());
    RunRounds(manager, db, *id, kRoundsBefore + kRoundsAfter, &golden);
  }

  TempDir dir("ksem");
  std::string session_id;
  {
    serve::SessionManager manager(db, PersistOptions(dir.path, false));
    StatusOr<std::string> id =
        manager.CreateSession("", core::SemanticsId::kExpectedRank);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    session_id = *id;
    SessionState ignored;
    RunRounds(manager, db, session_id, kRoundsBefore, &ignored);
    // No Close(): journal left behind, snapshot_every=3 already fired.
  }
  // The recovering manager's *default* objective stays entropy; the
  // session must come back as expected_rank from its meta alone.
  serve::SessionManager manager(db, PersistOptions(dir.path, false));
  StatusOr<int> recovered = manager.RecoverSessions();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1);
  SessionState resumed;
  RunRounds(manager, db, session_id, kRoundsAfter, &resumed);
  ExpectBitIdentical(resumed, golden);
}

// A second process pointed at the same persist dir imports the catalog's
// pre-warmed singles instead of re-running the membership scan — and the
// warm start changes nothing about the answers.
TEST(ManagerPersistTest, CatalogWarmStartIsBitIdenticalToColdStart) {
  const model::Database db = TestDb();
  TempDir dir("warm");
  obs::Counter* const warm_loads = obs::GetCounter(
      "ptk_persist_catalog_warm_loads_total",
      "Pre-warm scans skipped by importing catalog artifacts");
  SessionState cold;
  {
    serve::SessionManager manager(db, PersistOptions(dir.path, false));
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/catalog.ptk"));
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    RunRounds(manager, db, *id, 2, &cold);
    ASSERT_TRUE(manager.Close(*id).ok());
  }
  const int64_t warm_before = warm_loads->Value();
  SessionState warm;
  {
    serve::SessionManager manager(db, PersistOptions(dir.path, false));
    StatusOr<std::string> id = manager.CreateSession();
    ASSERT_TRUE(id.ok());
    RunRounds(manager, db, *id, 2, &warm);
  }
  EXPECT_EQ(warm_loads->Value(), warm_before + 1);
  ExpectBitIdentical(warm, cold);
}

// ---------------------------------------------------------------------------
// Bugfix regressions

/// Emits each pair several times in a row — legal selector behaviour the
/// real kinds rarely exhibit, which is exactly why the within-batch dedup
/// regressed unnoticed.
class DuplicatingSelector : public core::PairSelector {
 public:
  Status SelectPairs(int t, std::vector<core::ScoredPair>* out) override {
    static constexpr std::pair<int, int> kStream[] = {
        {0, 1}, {1, 0}, {0, 1}, {2, 3}, {2, 3}, {4, 5}, {5, 4}, {6, 7},
    };
    out->clear();
    for (const auto& [a, b] : kStream) {
      if (static_cast<int>(out->size()) == t) break;
      core::ScoredPair pair;
      pair.a = a;
      pair.b = b;
      pair.ei_estimate = 1.0;
      out->push_back(pair);
    }
    return Status::OK();
  }
  std::string name() const override { return "DUP"; }
};

// Regression: NextPairs deduped only against *earlier* batches, so a
// selector repeating a pair within one stream burned question slots on
// duplicates inside a single batch.
TEST(RegressionTest, NextPairsDedupsWithinOneBatch) {
  const model::Database db = TestDb();
  serve::SessionManager::Options options;
  options.k = 4;
  options.selector_factory = [](engine::RankingEngine&) {
    return std::make_unique<DuplicatingSelector>();
  };
  serve::SessionManager manager(db, options);
  StatusOr<std::string> id = manager.CreateSession();
  ASSERT_TRUE(id.ok());
  StatusOr<std::vector<core::ScoredPair>> pairs = manager.NextPairs(*id, 3);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 3u);
  std::set<std::pair<model::ObjectId, model::ObjectId>> keys;
  for (const core::ScoredPair& pair : *pairs) {
    const auto key = std::minmax(pair.a, pair.b);
    EXPECT_TRUE(keys.insert({key.first, key.second}).second)
        << "duplicate pair (" << pair.a << "," << pair.b << ") in one batch";
  }
  EXPECT_TRUE(keys.contains({0, 1}));
  EXPECT_TRUE(keys.contains({2, 3}));
  EXPECT_TRUE(keys.contains({4, 5}));
}

// Regression: a mid-batch failure used to discard the whole PostAnswers
// report, leaving the caller unable to tell which answers of a partial
// batch had (durably) taken effect.
TEST(RegressionTest, PostAnswersReportsPartialBatchProgress) {
  const model::Database db = TestDb();
  serve::SessionManager::Options options;
  options.k = 4;
  serve::SessionManager manager(db, options);
  StatusOr<std::string> id = manager.CreateSession();
  ASSERT_TRUE(id.ok());
  serve::PostReport report;
  const Status status = manager.PostAnswers(
      *id, {{0, 1}, {9999, 0}, {2, 3}}, &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(report.applied, 1);       // the answer before the bad one took
  EXPECT_EQ(report.version, 1u);      // ...and bumped the version
  // The folded prefix is real session state, not rolled back.
  serve::PostReport repeat;
  ASSERT_TRUE(manager.PostAnswers(*id, {{1, 0}}, &repeat).ok());
  EXPECT_EQ(repeat.contradictory, 1);
}

// Regression: destroying a manager with open sessions leaked their count
// into the process-wide ptk_serve_sessions_open gauge forever.
TEST(RegressionTest, SessionsOpenGaugeDrainsOnManagerDestruction) {
  obs::Gauge* const gauge = obs::GetGauge(
      "ptk_serve_sessions_open", "Currently open serving sessions");
  const int64_t before = gauge->Value();
  const model::Database db = TestDb();
  {
    serve::SessionManager::Options options;
    options.k = 4;
    serve::SessionManager manager(db, options);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(manager.CreateSession().ok());
    }
    EXPECT_EQ(gauge->Value(), before + 3);
    // The manager dies with all three sessions still open.
  }
  EXPECT_EQ(gauge->Value(), before);
}

}  // namespace
}  // namespace ptk
