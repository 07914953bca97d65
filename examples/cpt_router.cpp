// cpt_router — sharded serving router daemon over cpt-serve backends
// (DESIGN.md §15).
//
// Partitions the (device, hour) slice space across backends with a
// consistent hash ring, health-checks them, spills hot slices, and fails
// over on backend death. Speaks the same wire protocol as cpt_serve, so any
// client (serve_loadtest, TcpClient) points at the router unchanged.
//
//   ./cpt_serve --hub=./hub --port=7433 &
//   ./cpt_serve --hub=./hub --port=7434 &
//   ./cpt_router --backends=127.0.0.1:7433,127.0.0.1:7434 --port=7500
//
// Options: --backends=H:P[,H:P...] (required), --host=A.B.C.D, --port=N
// (0 = ephemeral, printed on the "listening" line), --vnodes=N,
// --replicas=N (failover/spill candidates per slice), --forwarders=N,
// --queue=N, --health-interval-ms=N, --health-timeout-ms=N,
// --io-timeout-ms=N, --down-after=N (consecutive probe failures),
// --spill-threshold=N (slice in-flight on the primary before spilling),
// --print-owner=DEVICE/hHOUR (e.g. phone/h9: print the slice's current ring
// owner after startup — scripts/check.sh uses it to pick which backend to
// kill in the failover smoke).
#include <cstdio>
#include <string>
#include <vector>

#include "serve/event_loop.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > pos) out.push_back(s.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace cpt;
    const util::Options opt(argc, argv);
    const std::string host = opt.get("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(opt.get_int("port", 0));

    try {
        serve::RouterConfig cfg;
        cfg.backends = split_csv(opt.get("backends", ""));
        if (cfg.backends.empty()) {
            std::fprintf(stderr, "cpt_router: --backends=H:P[,H:P...] is required\n");
            return 1;
        }
        cfg.vnodes = static_cast<std::size_t>(opt.get_int("vnodes", 64));
        cfg.replicas = static_cast<std::size_t>(opt.get_int("replicas", 2));
        cfg.forwarders = static_cast<std::size_t>(opt.get_int("forwarders", 8));
        cfg.queue_capacity = static_cast<std::size_t>(opt.get_int("queue", 256));
        cfg.health_interval_ms = static_cast<int>(opt.get_int("health-interval-ms", 500));
        cfg.health_timeout_ms = static_cast<int>(opt.get_int("health-timeout-ms", 2000));
        cfg.io_timeout_ms = static_cast<int>(opt.get_int("io-timeout-ms", 0));
        cfg.down_after_failures = static_cast<int>(opt.get_int("down-after", 2));
        cfg.spill_threshold = static_cast<std::size_t>(opt.get_int("spill-threshold", 8));

        serve::Router router(std::move(cfg));

        const std::string owner_query = opt.get("print-owner", "");
        if (!owner_query.empty()) {
            const auto sep = owner_query.find("/h");
            if (sep == std::string::npos) {
                std::fprintf(stderr, "cpt_router: --print-owner wants DEVICE/hHOUR\n");
                return 1;
            }
            const auto device = trace::device_type_from_string(owner_query.substr(0, sep));
            const int hour = std::stoi(owner_query.substr(sep + 2));
            std::printf("cpt_router: owner(%s) = %s\n", owner_query.c_str(),
                        router.owner_of(device, hour).c_str());
        }

        serve::TcpServer tcp(router, host, port);
        util::install_shutdown_handlers();  // no SA_RESTART: the accept tick sees EINTR
        std::printf("cpt_router: listening on %s:%u (%zu backends)\n", host.c_str(),
                    tcp.port(), router.config().backends.size());
        std::fflush(stdout);

        tcp.serve_forever([] { return util::shutdown_requested(); });

        std::puts("cpt_router: shutdown requested, draining...");
        std::fflush(stdout);
        router.drain();
        std::printf("%s\n", router.stats_json().c_str());
        std::puts("cpt_router: drained cleanly");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cpt_router: fatal: %s\n", e.what());
        return 1;
    }
}
