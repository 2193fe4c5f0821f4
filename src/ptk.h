#ifndef PTK_PTK_H_
#define PTK_PTK_H_

// Umbrella header for the public API (v1).
//
// Everything reachable from here is the supported surface of the library:
//
//   model::Database, model::UncertainObject      the probabilistic data model
//   data::LoadCsv / data::LoadAnswers            strict boundary parsers
//   data::synthetic generators                   experiment data
//   rank::ProbGreater, rank::MembershipCalculator  Eq. 1 / Section 4.2
//   pw::TopKDistribution, pw::ConstraintSet      possible-world results
//   core::MakeSelector, core::QualityEvaluator   pair selection (Defn. 3)
//   core::RankingSemantics, core::MakeSemantics  pluggable ranking
//                                                objectives (Section 2.2)
//   topk::UTopK / UKRanks / PTk / GlobalTopK     one-shot semantics queries
//   engine::RankingEngine                        incremental conditioning
//   crowd::CleaningSession, crowd::AdaptiveCleaner  the cleaning loops
//   serve::SessionManager                        concurrent cleaning
//                                                sessions over one catalog
//   serve::Request / serve::Response             the typed protocol core
//   serve::Codec (JsonCodec, BinaryCodec)        wire formats: JSON lines
//                                                and length-prefixed binary
//   serve::ExecuteRequest                        one op against a manager
//   serve::Runtime                               sharded, coalescing front:
//                                                admission, per-session
//                                                order, grouping, deadlines
//   serve::Scheduler                             one shard's executor and
//                                                deadline watchdog
//   util::Status / util::StatusOr<T>             error reporting
//   util::CancelSource                           cooperative cancellation
//   obs:: metrics / trace / exporters            observability
//
// Stability contract (v1):
//   - Fallible operations return util::Status or util::StatusOr<T>; there
//     is no out-parameter error surface and no exceptions.
//   - Types and functions in headers included here keep source
//     compatibility within v1: signatures may gain defaulted parameters
//     or overloads but existing well-formed calls keep compiling.
//   - Anything in a `internal` namespace, and every header not reachable
//     from this one, is implementation detail and may change freely.
//   - Determinism: given one library version, identical inputs (including
//     seeds and thread-count configuration) produce bit-identical results;
//     see DESIGN.md "Parallel execution".

#include "core/semantics.h"
#include "crowd/adaptive.h"
#include "crowd/crowd_model.h"
#include "crowd/session.h"
#include "data/answers.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "model/database.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pw/constraint.h"
#include "pw/topk_distribution.h"
#include "rank/pairwise_prob.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "serve/protocol.h"
#include "serve/runtime.h"
#include "serve/scheduler.h"
#include "serve/session_manager.h"
#include "topk/semantics.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/statusor.h"

#endif  // PTK_PTK_H_
