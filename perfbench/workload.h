#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/semantics.h"
#include "model/database.h"
#include "model/instance.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace perfbench {

namespace core = ptk::core;
namespace engine = ptk::engine;
namespace model = ptk::model;
namespace serve = ptk::serve;
namespace util = ptk::util;

/// Everything that defines one workload: catalog shape, server flags and
/// client traffic. These are the parameters printed beside every result;
/// nothing of them is encoded in a metric name.
struct WorkloadSpec {
  std::string name;
  std::string why;

  // SYN catalog (data::MakeSynDataset). The catalog is part of the
  // workload, not of the run seed: a run's --seed varies the crowd's
  // worlds and the traffic over one fixed catalog, so seeds differ by what
  // the system is asked, not by how hard the data happens to be.
  uint64_t catalog_seed = 1;
  int m = 0;
  int instances = 3;
  double value_range = 0.0;
  double width = 0.0;
  int k = 5;

  // ptk_server flags; the rest keep the server's defaults (coalescing on,
  // fsync on when persisting).
  serve::WireFormat wire = serve::WireFormat::kBinary;
  int shards = 1;
  bool persist = false;

  enum class Loop { kClosed, kOpen } loop = Loop::kClosed;

  // Closed loop: `clients` sessions advance in lockstep, one script step
  // per round (see ClosedLoopScript). slot_semantics[i] is the objective
  // of client i's sessions ("" = the server default, entropy).
  int clients = 0;
  std::vector<std::string> slot_semantics;
  int rounds_per_session = 3;
  int pairs_per_round = 4;
  int closed_distribution_limit = 10;

  // Open loop: a fixed-rate schedule over `slots` session slots with
  // popularity 1/r^zipf_s. Request shares: quality, distribution, and
  // posts, the posts arriving as clumps of `clump` single-answer requests
  // to one session. A slot closes its session after
  // `answers_per_session` answers and opens a new one on next use.
  double rate = 0.0;
  int slots = 0;
  double zipf_s = 0.0;
  double share_quality = 0.0;
  double share_distribution = 0.0;
  double share_posts = 0.0;
  int clump = 3;
  int answers_per_session = 0;
  int open_distribution_limit = 3;
  // Posted pairs are drawn among this many objects with the smallest
  // expected value: the region that decides the top-k.
  int answer_pool = 0;

  // Requests issued before measurement starts: one full session per
  // client (closed loop) or this much of the schedule (open loop).
  double open_warmup_s = 1.0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// The server's options as ptk_server builds them from ServerArgs — the
/// configuration the in-process replays must use to be comparable.
/// Persistence is left off; callers that journal set persist.dir.
serve::SessionManager::Options ManagerOptions(const WorkloadSpec& spec);

/// ptk_server's command line (after argv[0]) for this workload.
std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& csv_path,
                                    const std::string& persist_dir);

/// The workload's SYN catalog (from spec.catalog_seed).
model::Database MakeCatalog(const WorkloadSpec& spec);

/// Writes the catalog CSV ptk_server loads (data::SaveCsv of MakeCatalog).
util::Status WriteCatalogCsv(const WorkloadSpec& spec,
                             const std::string& path);

/// The `index`-th possible world of a run. Each session orients all its
/// answers by its own world (sessions are numbered in creation order), so
/// a session's answers are never contradictory, while the run as a whole
/// averages over as many worlds as it opens sessions.
std::vector<double> WorldValues(const model::Database& db, uint64_t seed,
                                int64_t index);

/// The crowd's answer for the pair {a, b} under `world`: (smaller,
/// larger), the smaller-valued object first (ties broken by id, as
/// crowd::GroundTruthOracle does).
std::pair<model::ObjectId, model::ObjectId> Orient(
    const std::vector<double>& world, model::ObjectId a, model::ObjectId b);

/// One step of a closed-loop session script:
///   create, quality, rounds x (next_pairs, post_answers, quality,
///   distribution), close.
/// A distribution read ends every round, not only the session: one read
/// per session left that latency class too few samples for a steady
/// median.
/// `step` counts from 0; the script has ClosedLoopScriptLength() steps.
int ClosedLoopScriptLength(const WorkloadSpec& spec);
serve::Op ClosedLoopOp(const WorkloadSpec& spec, int step);

/// One precomputed open-loop request: due `due_s` seconds after the
/// schedule starts. Requests of one clump share a due time.
struct Scheduled {
  double due_s = 0.0;
  serve::Request request;
};

/// The open-loop schedule covering [0, warmup + seconds). Session ids are
/// precomputed ("s1", "s2", ... in create order), which is valid only if
/// the server admits every create_session — the validity guard checks it.
std::vector<Scheduled> BuildSchedule(const WorkloadSpec& spec,
                                     const model::Database& db,
                                     uint64_t seed, double seconds);

/// The request bytes of a schedule, framed by the workload's codec.
std::string EncodeSchedule(const WorkloadSpec& spec,
                           const std::vector<Scheduled>& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
