// Set-up shared by every workload: world synthesis, training, hub publish,
// two cpt-serve backends behind a cpt-router, and warm-up.
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "core/model_hub.hpp"
#include "trace/synthetic.hpp"

namespace cpt::perfbench {

void TimedService::generate_async(const serve::GenerateRequest& request, Done done) {
    if (!log_.enabled()) {
        inner_.generate_async(request, std::move(done));
        return;
    }
    const double t0 = now_s();
    inner_.generate_async(request, [this, t0, key = request.ue_prefix,
                                    done = std::move(done)](serve::GenerateResponse&& resp) {
        log_.add(name_, key, "", t0, now_s());
        done(std::move(resp));
    });
}

namespace {

trace::Dataset phone_world(std::size_t ues, std::uint64_t seed) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {ues, 0, 0};
    cfg.hour_of_day = kWorldHour;
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

std::string backend_name(std::size_t i) {
    return "127.0.0.1:" + std::to_string(kBackendPortBase + i);
}

}  // namespace

Stack::Stack(const std::string& run_dir, int index, SpanLog& log)
    : log_(log), hub_dir_(run_dir + "/hub" + std::to_string(index)) {
    std::filesystem::remove_all(hub_dir_);
    try {
        build();
    } catch (...) {
        shutdown();
        throw;
    }
}

void Stack::build() {
    const double t0 = now_s();
    {
        ScopedSpan span(log_, "trace.world_gen", "", "setup");
        world_ = phone_world(kTrainUes, 1000 + kWorldHour);
        held_out_ = phone_world(kHeldOutUes, 900000 + kWorldHour);
    }
    const double t1 = now_s();
    times_.world_gen_s = t1 - t0;
    train();
    const double t2 = now_s();
    times_.train_s = t2 - t1;
    publish();
    const double t3 = now_s();
    times_.publish_s = t3 - t2;
    start_servers();
    const double t4 = now_s();
    times_.servers_s = t4 - t3;
    warm_up();
    const double t5 = now_s();
    times_.warmup_s = t5 - t4;
    times_.total_s = t5 - t0;
}

Stack::~Stack() { shutdown(); }

void Stack::shutdown() {
    // Front to back: no new requests, then finish what is in flight.
    if (router_tcp_) router_tcp_->stop();
    if (router_) router_->drain();
    for (auto& tcp : server_tcp_) tcp->stop();
    for (auto& t : loops_) t.join();
    loops_.clear();
    for (auto& s : servers_) s->drain();
    std::error_code ec;
    std::filesystem::remove_all(hub_dir_, ec);
}

void Stack::train() {
    ScopedSpan span(log_, "trainer.train", "", "setup");
    tok_.emplace(core::Tokenizer::fit(world_));
    util::Rng init(1);
    model_ = std::make_unique<core::CptGpt>(*tok_, core::CptGptConfig{}, init);
    core::TrainConfig tc;
    tc.max_epochs = kTrainEpochs;
    tc.patience = kTrainEpochs;  // a fixed epoch budget: never stops early
    tc.window = 64;
    tc.seed = 1;
    train_ = core::Trainer(*model_, *tok_, tc).train(world_);
    initial_dist_ = world_.initial_event_distribution();
}

void Stack::publish() {
    ScopedSpan span(log_, "hub.publish", "", "setup");
    core::ModelHub hub(hub_dir_);
    for (const int h : kSliceHours) {
        hub.publish(*model_, *tok_, initial_dist_, trace::DeviceType::kPhone, h);
    }
}

void Stack::start_servers() {
    ScopedSpan span(log_, "serve.start", "", "setup");
    serve::TcpServer::Options topts;
    topts.workers = 2;
    for (std::size_t b = 0; b < kBackends; ++b) {
        serve::ServeConfig cfg;
        cfg.hub_dir = hub_dir_;
        cfg.model = core::CptGptConfig{};
        cfg.slot_capacity = 32;
        cfg.queue_capacity = 256;
        servers_.push_back(std::make_unique<serve::Server>(cfg));
        server_wrappers_.push_back(std::make_unique<TimedService>(*servers_.back(), "server", log_));
        server_tcp_.push_back(std::make_unique<serve::TcpServer>(
            *server_wrappers_.back(), "127.0.0.1",
            static_cast<std::uint16_t>(kBackendPortBase + b), topts));
        loops_.emplace_back([tcp = server_tcp_.back().get()] { tcp->serve_forever(); });
    }
    serve::RouterConfig rc;
    for (std::size_t b = 0; b < kBackends; ++b) rc.backends.push_back(backend_name(b));
    router_ = std::make_unique<serve::Router>(rc);
    router_->check_backends_now();
    for (const int h : kSliceHours) {
        const std::string owner = router_->owner_of(trace::DeviceType::kPhone, h);
        std::size_t idx = kBackends;
        for (std::size_t b = 0; b < kBackends; ++b) {
            if (owner == backend_name(b)) idx = b;
        }
        if (idx == kBackends) throw std::runtime_error("router: no owner for slice h" + std::to_string(h));
        placement_[h] = idx;
    }
    router_wrapper_ = std::make_unique<TimedService>(*router_, "router", log_);
    router_tcp_ = std::make_unique<serve::TcpServer>(*router_wrapper_, "127.0.0.1", 0, topts);
    loops_.emplace_back([tcp = router_tcp_.get()] { tcp->serve_forever(); });
}

void Stack::warm_up() {
    // Two requests per slice through the router load every engine.
    ScopedSpan span(log_, "serve.warmup", "", "setup");
    serve::TcpClient client("127.0.0.1", router_port());
    auto send = [&](int hour, std::uint64_t seed) {
        serve::GenerateRequest req;
        req.hour_of_day = hour;
        req.count = 8;
        req.max_stream_len = kStreamCap;
        req.seed = seed;
        req.deterministic = true;
        req.ue_prefix = "warmup-" + std::to_string(seed);
        const auto resp = client.generate(req);
        if (resp.status != serve::Status::kOk || resp.streams.size() != req.count) {
            throw std::runtime_error("warm-up request failed: " + resp.error);
        }
    };
    std::uint64_t seed = 1;
    for (const int h : kSliceHours) {
        for (int i = 0; i < 2; ++i) send(h, seed++);
    }
}

std::uint64_t Stack::weights_digest() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& np : model_->named_parameters("cptgpt.")) {
        const auto data = np.param->value.data();
        const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
        for (std::size_t i = 0; i < data.size_bytes(); ++i) {
            h ^= bytes[i];
            h *= 1099511628211ULL;
        }
    }
    return h;
}

}  // namespace cpt::perfbench
