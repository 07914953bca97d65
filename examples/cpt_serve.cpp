// cpt_serve — generation service daemon over a ModelHub release directory.
//
// Serves per-UE stream-synthesis requests (protocol.hpp) with continuous
// batching, one engine per (device, hour) slice. SIGTERM/SIGINT trigger a
// graceful drain: admission stops, queued and in-flight requests finish (or
// hit their deadlines), engines join, and the final stats JSON is printed.
//
//   ./cpt_serve --hub=./hub --bootstrap          # publish a demo model first
//   ./cpt_serve --hub=./hub --port=7433
//
// Options: --hub=DIR, --host=A.B.C.D, --port=N (0 = ephemeral; the chosen
// port is printed on the "listening" line), --slots=N, --queue=N,
// --deadline-ms=N, --deterministic, --nearest-hour, --bootstrap (publish a
// synthetic-world model for phone/--hour before serving), --hour=N,
// --ues=N, --epochs=N (bootstrap training epochs; 0 serves random weights),
// --precision=fp32|int8 (decode path for every slice, DESIGN.md §12;
// quantized packages always serve int8).
#include <cstdio>

#include "core/model_hub.hpp"
#include "core/trainer.hpp"
#include "serve/event_loop.hpp"
#include "serve/server.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

namespace {

using namespace cpt;

void bootstrap_hub(const std::string& hub_dir, int hour, std::size_t ues, int epochs) {
    trace::SyntheticWorldConfig w;
    w.population = {ues, 0, 0};
    w.hour_of_day = hour;
    const auto data = trace::SyntheticWorldGenerator(w).generate();
    const auto tok = core::Tokenizer::fit(data);
    util::Rng rng(1);
    core::CptGpt model(tok, core::CptGptConfig{}, rng);
    if (epochs > 0) {
        core::TrainConfig tcfg;
        tcfg.max_epochs = epochs;
        core::Trainer trainer(model, tok, tcfg);
        trainer.train(data);
    }
    core::ModelHub hub(hub_dir);
    hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, hour);
    std::printf("cpt_serve: bootstrapped %s with phone/h%d (%d epochs)\n", hub_dir.c_str(),
                hour, epochs);
}

}  // namespace

int main(int argc, char** argv) {
    const util::Options opt(argc, argv);
    const std::string hub_dir = opt.get("hub", "serve_hub");
    const std::string host = opt.get("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(opt.get_int("port", 0));
    const int hour = static_cast<int>(opt.get_int("hour", 9));

    try {
        if (opt.get_flag("bootstrap")) {
            bootstrap_hub(hub_dir, hour, static_cast<std::size_t>(opt.get_int("ues", 120)),
                          static_cast<int>(opt.get_int("epochs", 0)));
        }

        serve::ServeConfig cfg;
        cfg.hub_dir = hub_dir;
        cfg.slot_capacity = static_cast<std::size_t>(opt.get_int("slots", 32));
        cfg.queue_capacity = static_cast<std::size_t>(opt.get_int("queue", 64));
        cfg.default_deadline_ms =
            static_cast<std::uint32_t>(opt.get_int("deadline-ms", 30000));
        cfg.deterministic = opt.get_flag("deterministic");
        cfg.nearest_hour_fallback = opt.get_flag("nearest-hour");
        cfg.precision = nn::parse_precision(opt.get("precision", "fp32"));
        serve::Server server(std::move(cfg));

        serve::TcpServer tcp(server, host, port);
        util::install_shutdown_handlers();  // no SA_RESTART: accept(2) sees EINTR
        std::printf("cpt_serve: listening on %s:%u\n", host.c_str(), tcp.port());
        std::fflush(stdout);

        tcp.serve_forever([] { return util::shutdown_requested(); });

        std::puts("cpt_serve: shutdown requested, draining...");
        std::fflush(stdout);
        server.drain();
        std::printf("%s\n", server.stats_json().c_str());
        std::puts("cpt_serve: drained cleanly");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cpt_serve: fatal: %s\n", e.what());
        return 1;
    }
}
