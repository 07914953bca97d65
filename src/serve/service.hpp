// Abstract generation service: the seam between transports and request
// processing. Both transports (the epoll TcpServer and the in-process
// client) front a Service&, and both request processors implement it — Server (local slice engines over a ModelHub) and Router (forwards to
// sharded backends) — so the router stack composes from the same parts as a
// single backend and tests can swap one for the other.
#pragma once

#include <functional>
#include <string>

#include "protocol.hpp"

namespace cpt::serve {

class Service {
public:
    // Completion callback: invoked exactly once per generate_async call, with
    // the final response. May run synchronously inside generate_async (early
    // rejections) or later on an internal worker thread — callers must not
    // hold locks the callback also takes.
    using Done = std::function<void(GenerateResponse&&)>;

    virtual ~Service() = default;

    // Non-blocking submit. The implementation owns the request after this
    // returns; the callback delivers the response.
    virtual void generate_async(const GenerateRequest& request, Done done) = 0;

    // Blocking wrapper over generate_async: waits for the callback, so early
    // rejections and completed requests reach the caller the same way.
    GenerateResponse generate(const GenerateRequest& request);

    // Current service stats as a JSON object (see DESIGN.md §10 for schema).
    virtual std::string stats_json() const = 0;

    // Liveness + load snapshot for health checks (kHealthRequest).
    virtual HealthInfo health() const = 0;
};

}  // namespace cpt::serve
