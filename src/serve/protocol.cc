#include "serve/protocol.h"

#include <algorithm>
#include <utility>

#include "pw/topk_distribution.h"

namespace ptk::serve {

Response ExecuteRequest(SessionManager& manager,
                        const Scheduler* /*unused*/, const Request& request) {
  Response response;
  response.id = request.id;
  switch (request.op) {
    case Op::kCreateSession: {
      std::optional<core::SemanticsId> semantics;  // none: the default
      if (!request.semantics.empty()) {
        semantics = core::SemanticsFromName(request.semantics);
        if (!semantics.has_value()) {
          response.status = util::Status::InvalidArgument(
              "unknown ranking semantics '" + request.semantics + "'");
          return response;
        }
      }
      util::StatusOr<std::string> id =
          manager.CreateSession(request.session, semantics);
      if (!id.ok()) {
        response.status = id.status();
        return response;
      }
      response.payload = Response::Created{*std::move(id)};
      return response;
    }
    case Op::kNextPairs: {
      util::StatusOr<std::vector<core::ScoredPair>> pairs =
          manager.NextPairs(request.session, static_cast<int>(request.count));
      if (!pairs.ok()) {
        response.status = pairs.status();
        return response;
      }
      Response::Pairs payload;
      payload.pairs.reserve(pairs->size());
      for (const core::ScoredPair& pair : *pairs) {
        payload.pairs.push_back({pair.a, pair.b, pair.ei_estimate});
      }
      response.payload = std::move(payload);
      return response;
    }
    case Op::kPostAnswers: {
      PostReport report;
      util::Status status =
          manager.PostAnswers(request.session, request.answers, &report);
      return PostAnswersResponse(request.id, std::move(status), report);
    }
    case Op::kDistribution: {
      util::StatusOr<pw::TopKDistribution> dist =
          manager.Distribution(request.session);
      if (!dist.ok()) {
        response.status = dist.status();
        return response;
      }
      const auto ranked = dist->SortedByProbDesc();
      const size_t shown =
          request.limit == 0
              ? ranked.size()
              : std::min(ranked.size(), static_cast<size_t>(request.limit));
      Response::Distribution payload;
      payload.sets.reserve(shown);
      for (size_t i = 0; i < shown; ++i) {
        payload.sets.push_back({ranked[i].first, ranked[i].second});
      }
      payload.entropy = dist->Entropy();
      response.payload = std::move(payload);
      return response;
    }
    case Op::kQuality: {
      util::StatusOr<double> quality = manager.Quality(request.session);
      if (!quality.ok()) {
        response.status = quality.status();
        return response;
      }
      response.payload = Response::Quality{*quality};
      return response;
    }
    case Op::kMetrics: {
      response.payload = BuildMetrics({&manager});
      return response;
    }
    case Op::kClose: {
      response.status = manager.Close(request.session);
      return response;
    }
  }
  response.status = util::Status::Internal("protocol: unhandled op");
  return response;
}

Response PostAnswersResponse(std::string id, util::Status status,
                             const PostReport& report) {
  Response response;
  response.id = std::move(id);
  if (status.ok()) {
    response.payload = Response::Posted{report};
  } else {
    if (status.code() != util::Status::Code::kNotFound) {
      response.partial = report;
    }
    response.status = std::move(status);
  }
  return response;
}

Response::Metrics BuildMetrics(
    const std::vector<const SessionManager*>& managers) {
  Response::Metrics metrics;
  for (const SessionManager* manager : managers) {
    metrics.sessions_open += manager->open_sessions();
    for (const SessionManager::SessionMemory& memory :
         manager->MemoryReport()) {
      metrics.session_bytes.push_back({memory.id, memory.bytes});
      metrics.session_bytes_total += memory.bytes;
    }
  }
  // Each manager reports its sessions in lexicographic id order; restore
  // that global order across shards so a sharded metrics payload is
  // bit-identical to the single-manager one.
  std::sort(metrics.session_bytes.begin(), metrics.session_bytes.end(),
            [](const Response::SessionBytes& a,
               const Response::SessionBytes& b) {
              return a.session < b.session;
            });
  return metrics;
}

}  // namespace ptk::serve
