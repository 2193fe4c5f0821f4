#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "crowd/crowd_model.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Independent random streams drawn from the one workload seed.
enum Stream { kWorld = 1, kSchedule = 2 };

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec opt;
  opt.name = "clean_opt";
  opt.why =
      "OPT selection dominates: 4 lockstep entropy sessions on a "
      "4000-object catalog, binary wire, nothing journaled; control for the "
      "others";
  opt.catalog_seed = 6;
  opt.m = 4000;
  opt.value_range = 10000.0;
  opt.width = 50.0;
  opt.wire = serve::WireFormat::kBinary;
  opt.loop = WorkloadSpec::Loop::kClosed;
  opt.clients = 4;
  opt.slot_semantics = {"", "", "", ""};
  all.push_back(opt);

  WorkloadSpec sem = opt;
  sem.name = "clean_semantics";
  sem.why =
      "expected_rank and ukranks sessions: rescored selection, working "
      "folds and the m x m expected-rank state that sets peak RSS";
  // m x m expected-rank state: 2100^2 doubles is 33.6 MiB, above glibc's
  // largest dynamic mmap threshold (32 MiB), so every session's matrix is
  // mapped and returned on close. At m=2000 (30.5 MiB) freed matrices
  // could stay in per-thread heaps, and peak RSS varied by whole matrices
  // from run to run.
  sem.m = 2100;
  sem.value_range = 5000.0;
  // Four rounds of three: the first two quality reads of a session
  // (initial objective, first working fold) are ~10x slower than the rest,
  // and with three rounds the quality median sat between the two modes.
  sem.rounds_per_session = 4;
  sem.pairs_per_round = 3;
  sem.slot_semantics = {"expected_rank", "ukranks", "expected_rank",
                        "ukranks"};
  all.push_back(sem);

  WorkloadSpec zipf;
  zipf.name = "zipf_durable";
  zipf.why =
      "open-loop Zipfian reads and posts at 200 req/s, JSON wire, 2 shards, "
      "coalescing, fsynced journal, no selection";
  zipf.m = 300;
  zipf.value_range = 300.0;
  zipf.width = 30.0;
  zipf.wire = serve::WireFormat::kJsonLines;
  zipf.shards = 2;
  zipf.persist = true;
  zipf.loop = WorkloadSpec::Loop::kOpen;
  zipf.rate = 200.0;
  zipf.slots = 24;
  zipf.zipf_s = 0.99;
  zipf.share_quality = 0.35;
  zipf.share_distribution = 0.35;
  zipf.share_posts = 0.30;
  zipf.clump = 3;
  zipf.answers_per_session = 9;
  zipf.open_distribution_limit = 3;
  zipf.answer_pool = 16;
  all.push_back(zipf);
  return all;
}

double ExpectedValue(const model::UncertainObject& object) {
  double ev = 0.0;
  for (const model::Instance& inst : object.instances()) {
    ev += inst.value * inst.prob;
  }
  return ev;
}

std::pair<double, double> ValueRange(const model::UncertainObject& object) {
  double lo = object.instances().front().value;
  double hi = lo;
  for (const model::Instance& inst : object.instances()) {
    lo = std::min(lo, inst.value);
    hi = std::max(hi, inst.value);
  }
  return {lo, hi};
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

serve::SessionManager::Options ManagerOptions(const WorkloadSpec& spec) {
  serve::SessionManager::Options options;
  options.k = spec.k;
  return options;
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& csv_path,
                                    const std::string& persist_dir) {
  std::vector<std::string> args = {
      csv_path,
      "--wire",
      spec.wire == serve::WireFormat::kBinary ? "binary" : "json",
      "--k",
      std::to_string(spec.k),
      "--shards",
      std::to_string(spec.shards),
      "--metrics"};
  if (spec.persist) {
    args.push_back("--persist-dir");
    args.push_back(persist_dir);
  }
  return args;
}

model::Database MakeCatalog(const WorkloadSpec& spec) {
  ptk::data::SynOptions options;
  options.num_objects = spec.m;
  options.avg_instances = spec.instances;
  options.value_range = spec.value_range;
  options.cluster_width = spec.width;
  options.seed = spec.catalog_seed;
  return ptk::data::MakeSynDataset(options);
}

util::Status WriteCatalogCsv(const WorkloadSpec& spec,
                             const std::string& path) {
  return ptk::data::SaveCsv(MakeCatalog(spec), path);
}

std::vector<double> WorldValues(const model::Database& db, uint64_t seed,
                                int64_t index) {
  return ptk::crowd::SampleWorldValues(
      db, util::MixBits(util::StreamSeed(seed, kWorld) +
                        static_cast<uint64_t>(index)));
}

std::pair<model::ObjectId, model::ObjectId> Orient(
    const std::vector<double>& world, model::ObjectId a, model::ObjectId b) {
  if (world[a] != world[b]) {
    return world[a] < world[b] ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  return {std::min(a, b), std::max(a, b)};
}

int ClosedLoopScriptLength(const WorkloadSpec& spec) {
  return 3 + 4 * spec.rounds_per_session;
}

serve::Op ClosedLoopOp(const WorkloadSpec& spec, int step) {
  const int last = ClosedLoopScriptLength(spec) - 1;
  if (step == 0) return serve::Op::kCreateSession;
  if (step == 1) return serve::Op::kQuality;
  if (step == last) return serve::Op::kClose;
  switch ((step - 2) % 4) {
    case 0:
      return serve::Op::kNextPairs;
    case 1:
      return serve::Op::kPostAnswers;
    case 2:
      return serve::Op::kQuality;
    default:
      return serve::Op::kDistribution;
  }
}

std::vector<Scheduled> BuildSchedule(const WorkloadSpec& spec,
                                     const model::Database& db,
                                     uint64_t seed, double seconds) {
  util::Rng rng(util::StreamSeed(seed, kSchedule));

  // The answer pool: the objects most likely to be in the top-k, and the
  // pairs among them whose value ranges overlap (any other answer is
  // implied by the data and teaches the engine nothing).
  std::vector<model::ObjectId> by_value(db.num_objects());
  for (int i = 0; i < db.num_objects(); ++i) by_value[i] = i;
  std::sort(by_value.begin(), by_value.end(),
            [&](model::ObjectId a, model::ObjectId b) {
              const double ea = ExpectedValue(db.object(a));
              const double eb = ExpectedValue(db.object(b));
              return ea != eb ? ea < eb : a < b;
            });
  by_value.resize(std::min<size_t>(by_value.size(), spec.answer_pool));
  std::vector<std::pair<model::ObjectId, model::ObjectId>> overlapping;
  for (size_t i = 0; i < by_value.size(); ++i) {
    for (size_t j = i + 1; j < by_value.size(); ++j) {
      const auto ri = ValueRange(db.object(by_value[i]));
      const auto rj = ValueRange(db.object(by_value[j]));
      if (ri.first <= rj.second && rj.first <= ri.second) {
        overlapping.emplace_back(std::min(by_value[i], by_value[j]),
                                 std::max(by_value[i], by_value[j]));
      }
    }
  }

  std::vector<double> cumulative(spec.slots);
  double total_weight = 0.0;
  for (int r = 0; r < spec.slots; ++r) {
    total_weight += 1.0 / std::pow(r + 1.0, spec.zipf_s);
    cumulative[r] = total_weight;
  }

  // Event kinds: a quality read, a distribution read, or a clump of
  // posts; their probabilities turn the request shares into event shares.
  const double events = spec.share_quality + spec.share_distribution +
                        spec.share_posts / spec.clump;
  const double p_quality = spec.share_quality / events;
  const double p_distribution = spec.share_distribution / events;

  struct Slot {
    bool open = false;
    std::string session;
    std::vector<double> world;
    int answers = 0;
    std::set<std::pair<model::ObjectId, model::ObjectId>> asked;
  };
  std::vector<Slot> slots(spec.slots);
  uint64_t next_session = 1;
  uint64_t next_tag = 0;
  std::vector<Scheduled> schedule;
  auto push = [&](double due, serve::Request request) {
    request.id = "z" + std::to_string(next_tag++);
    schedule.push_back({due, std::move(request)});
  };

  // Every request, creates and closes included, takes 1/rate of the
  // schedule, so the offered rate is exact whatever the event mix drew.
  const double end = spec.open_warmup_s + seconds;
  for (double t = 0.0; t < end;) {
    const size_t before = schedule.size();
    const double u = rng.Uniform() * total_weight;
    const int r = static_cast<int>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    Slot& slot = slots[std::min(r, spec.slots - 1)];
    if (!slot.open) {
      slot = Slot{};
      slot.open = true;
      slot.world = WorldValues(db, seed, static_cast<int64_t>(next_session));
      slot.session = "s" + std::to_string(next_session++);
      serve::Request create;
      create.op = serve::Op::kCreateSession;
      push(t, create);
    }
    const double kind = rng.Uniform();
    serve::Request request;
    request.session = slot.session;
    if (kind < p_quality) {
      request.op = serve::Op::kQuality;
      push(t, request);
    } else if (kind < p_quality + p_distribution) {
      request.op = serve::Op::kDistribution;
      request.limit = spec.open_distribution_limit;
      push(t, request);
    } else {
      request.op = serve::Op::kPostAnswers;
      for (int c = 0; c < spec.clump; ++c) {
        std::pair<model::ObjectId, model::ObjectId> pair = {
            by_value[0], by_value[1]};
        while (!overlapping.empty()) {
          pair = overlapping[rng.UniformInt(
              0, static_cast<int64_t>(overlapping.size()) - 1)];
          if (!slot.asked.contains(pair) ||
              slot.asked.size() >= overlapping.size()) {
            break;
          }
        }
        slot.asked.insert(pair);
        request.answers = {Orient(slot.world, pair.first, pair.second)};
        push(t, request);
        ++slot.answers;
      }
      if (slot.answers >= spec.answers_per_session) {
        serve::Request close;
        close.op = serve::Op::kClose;
        close.session = slot.session;
        push(t, close);
        slot.open = false;
      }
    }
    t += static_cast<double>(schedule.size() - before) / spec.rate;
  }
  return schedule;
}

std::string EncodeSchedule(const WorkloadSpec& spec,
                           const std::vector<Scheduled>& schedule) {
  const serve::Codec& codec = serve::CodecFor(spec.wire);
  std::string bytes;
  for (const Scheduled& item : schedule) {
    bytes += codec.EncodeRequest(item.request);
  }
  return bytes;
}

}  // namespace perfbench
