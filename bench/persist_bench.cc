// Durability layer cost: WAL append/sync throughput (the per-answer tax a
// persisting session pays on the acknowledgement path), snapshot write
// cost, and recovery replay rate — the three numbers that size
// --snapshot-every and say what a warm restart actually costs.
//
// fsync rows measure real durability (one fsync per record, the worst
// case; the session manager batches one Sync per acknowledged batch);
// nofsync rows isolate the framing/write cost.
//
// Run: ./persist_bench   (PTK_BENCH_JSON=<path> for machine-readable rows)

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "data/synthetic.h"
#include "persist/session_store.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "serve/session_manager.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace {

std::string MakeTempDir() {
  std::string pattern = (std::filesystem::temp_directory_path() /
                         "ptk_persist_bench_XXXXXX")
                            .string();
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  char* made = mkdtemp(buffer.data());
  return made == nullptr ? pattern : made;
}

}  // namespace

int main() {
  ptk::bench::Banner(
      "Durability: WAL append/sync, snapshot write, recovery replay");
  ptk::bench::Row({"phase", "records", "rec/s", "ms_total"});
  ptk::obs::BenchJsonWriter json;

  const std::string dir = MakeTempDir();
  const int records = ptk::bench::Scaled(2000);

  for (const bool fsync : {false, true}) {
    const std::string wal_path =
        dir + (fsync ? "/bench_fsync.wal" : "/bench_nofsync.wal");
    ptk::util::StatusOr<ptk::persist::WalWriter> writer =
        ptk::persist::WalWriter::Open(wal_path, fsync);
    if (!writer.ok()) return 1;
    ptk::util::Stopwatch wall;
    for (int i = 0; i < records; ++i) {
      ptk::persist::WalRecord record;
      record.type = ptk::persist::WalRecord::Type::kAnswer;
      record.seq = static_cast<uint64_t>(i) + 1;
      record.smaller = i % 64;
      record.larger = (i % 64) + 1;
      record.fold_version = static_cast<uint64_t>(i) + 1;
      if (!writer->Append(record).ok()) return 1;
      if (!writer->Sync().ok()) return 1;  // one ack per record: worst case
    }
    const double elapsed = wall.ElapsedSeconds();
    const std::string phase =
        fsync ? "wal_append_fsync" : "wal_append_nofsync";
    ptk::bench::Row({phase, std::to_string(records),
                     ptk::bench::Fmt(records / elapsed, 1),
                     ptk::bench::Fmt(elapsed * 1e3, 3)});
    json.Record("persist/" + phase, elapsed, 1, records, 0,
                ptk::bench::Scale());
  }

  // Snapshot encode+write for a session with a realistic constraint and
  // asked-set footprint.
  {
    ptk::persist::SessionSnapshot snapshot;
    snapshot.last_seq = static_cast<uint64_t>(records);
    snapshot.fold_version = static_cast<uint64_t>(records) / 2;
    for (int i = 0; i < records / 2; ++i) {
      snapshot.constraints.emplace_back(i % 64, (i % 64) + 1);
      snapshot.asked.emplace_back(i % 64, (i % 64) + 1);
    }
    ptk::util::Stopwatch wall;
    constexpr int kWrites = 50;
    for (int i = 0; i < kWrites; ++i) {
      if (!ptk::persist::WriteSnapshotFile(dir + "/bench.snapshot", snapshot,
                                           /*fsync_writes=*/true)
               .ok()) {
        return 1;
      }
    }
    const double elapsed = wall.ElapsedSeconds();
    ptk::bench::Row({"snapshot_write", std::to_string(kWrites),
                     ptk::bench::Fmt(kWrites / elapsed, 1),
                     ptk::bench::Fmt(elapsed * 1e3, 3)});
    json.Record("persist/snapshot_write", elapsed, 1, kWrites, 0,
                ptk::bench::Scale());
  }

  // Recovery replay: journal a real session's cleaning loop, then time
  // RecoverSessions() on a fresh manager (snapshotting disabled so every
  // answer replays through Fold — the worst case --snapshot-every 0).
  {
    ptk::data::SynOptions data_options;
    data_options.num_objects = ptk::bench::Scaled(24);
    data_options.avg_instances = 3;
    data_options.value_range = 100.0;
    data_options.cluster_width = 30.0;
    data_options.seed = 11;
    const ptk::model::Database db = ptk::data::MakeSynDataset(data_options);

    ptk::serve::SessionManager::Options options;
    options.k = 5;
    options.persist.dir = dir + "/journal";
    options.persist.fsync = false;
    options.persist.snapshot_every = 0;
    int replayable = 0;
    {
      ptk::serve::SessionManager manager(db, options);
      ptk::util::StatusOr<std::string> id = manager.CreateSession();
      if (!id.ok()) return 1;
      for (int round = 0; round < 12; ++round) {
        ptk::util::StatusOr<std::vector<ptk::core::ScoredPair>> pairs =
            manager.NextPairs(*id, 2);
        if (!pairs.ok()) break;
        std::vector<std::pair<ptk::model::ObjectId, ptk::model::ObjectId>>
            answers;
        for (const ptk::core::ScoredPair& pair : *pairs) {
          answers.emplace_back(std::min(pair.a, pair.b),
                               std::max(pair.a, pair.b));
        }
        ptk::serve::PostReport report;
        if (!manager.PostAnswers(*id, answers, &report).ok()) return 1;
        replayable += static_cast<int>(2 * answers.size());  // asked+answer
      }
      // Dropped without Close(): the journal stays for recovery below.
    }
    ptk::serve::SessionManager manager(db, options);
    ptk::util::Stopwatch wall;
    ptk::util::StatusOr<int> recovered = manager.RecoverSessions();
    const double elapsed = wall.ElapsedSeconds();
    if (!recovered.ok() || *recovered != 1) return 1;
    ptk::bench::Row({"recovery_replay", std::to_string(replayable),
                     ptk::bench::Fmt(replayable / elapsed, 1),
                     ptk::bench::Fmt(elapsed * 1e3, 3)});
    json.Record("persist/recovery_replay", elapsed, 1, replayable,
                options.k, ptk::bench::Scale());
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
