#ifndef PTK_SERVE_PROTOCOL_H_
#define PTK_SERVE_PROTOCOL_H_

#include <string>
#include <vector>

#include "serve/message.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace ptk::serve {

class Scheduler;

/// Execution of the typed protocol (serve/message.h) against a
/// SessionManager. This layer is pure value → value: wire text never
/// appears here (that is serve/codec.h's job), and rendering decisions
/// never leak in. Partial-effect reporting for post_answers travels
/// inside Response::partial.
///
/// Requests are assumed codec-validated (ValidateRequest). The request's
/// correlation tag is echoed into Response::id. create_session opens the
/// session under Request::session when it is set (the sharded runtime
/// assigns ids itself), and under the manager's next id otherwise.
///
/// The Scheduler argument is unused: a metrics op here reports the one
/// manager only, without queue or request tallies (serve::Runtime
/// answers metrics itself). It remains so existing callers, which pass
/// nullptr, keep compiling.
Response ExecuteRequest(SessionManager& manager, const Scheduler* unused,
                        const Request& request);

/// The post_answers response for one batch's outcome: the report as the
/// payload on success; on failure the status, with the report as
/// Response::partial — everything before the failing answer was folded
/// and journaled for good — unless the session was unknown (kNotFound:
/// nothing took effect).
Response PostAnswersResponse(std::string id, util::Status status,
                             const PostReport& report);

/// Aggregated metrics payload across shards: open sessions and memory
/// reports are merged, per-session entries re-sorted lexicographically by
/// id (matching the single-manager report order). The queue and request
/// tallies are left unset (has_scheduler false) for the caller to fill.
Response::Metrics BuildMetrics(
    const std::vector<const SessionManager*>& managers);

}  // namespace ptk::serve

#endif  // PTK_SERVE_PROTOCOL_H_
