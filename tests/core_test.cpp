// Tests for CPT-GPT: tokenizer round trips and properties, model forward
// contracts, package save/load, trainer behaviour (loss decreases, early
// stopping, ablation head), and sampler invariants.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "core/trainer.hpp"
#include "metrics/fidelity.hpp"
#include "trace/synthetic.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace cpt::core {
namespace {

namespace lte = cellular::lte;

trace::Dataset phone_world(std::size_t n, std::uint64_t seed = 21) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {n, 0, 0};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

CptGptConfig tiny_config() {
    CptGptConfig cfg;
    cfg.d_model = 24;
    cfg.heads = 2;
    cfg.mlp_hidden = 48;
    cfg.blocks = 1;
    cfg.max_seq_len = 64;
    cfg.head_hidden = 24;
    return cfg;
}

TEST(TokenizerTest, DimensionsMatchPaper) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    // 4G: 6 event types + 1 interarrival + 2 stop -> d_token = 9 (Fig. 3).
    EXPECT_EQ(tok.d_token(), 9u);
    EXPECT_EQ(tok.num_event_types(), 6u);
}

TEST(TokenizerTest, FiveGDimensionsDeriveAutomatically) {
    // No domain knowledge in the model: a 5G dataset produces d_token =
    // 5 + 1 + 2 = 8 purely from the vocabulary size.
    trace::SyntheticWorldConfig cfg;
    cfg.generation = cellular::Generation::kNr5G;
    cfg.population = {30, 0, 0};
    cfg.seed = 19;
    const auto world = trace::SyntheticWorldGenerator(cfg).generate();
    const auto tok = Tokenizer::fit(world);
    EXPECT_EQ(tok.d_token(), 8u);
    EXPECT_EQ(tok.num_event_types(), 5u);
    // And the model builds and runs on it unchanged.
    util::Rng rng(20);
    const CptGpt model(tok, tiny_config(), rng);
    const auto out = model.forward(nn::make_var(nn::Tensor::zeros({1, 4, 8})));
    EXPECT_EQ(out.event_logits->value.shape(), (nn::Shape{4, 5}));
}

TEST(TokenizerTest, InterarrivalScalingRoundTrip) {
    const Tokenizer tok(cellular::Generation::kLte4G, 0.0, std::log(1000.0 + 1.0));
    for (const double ia : {0.0, 0.5, 3.0, 42.0, 500.0, 1000.0}) {
        const double back = tok.unscale_interarrival(tok.scale_interarrival(ia));
        EXPECT_NEAR(back, ia, 1e-6 + ia * 1e-5);
    }
    // Out-of-range values clamp rather than extrapolate.
    EXPECT_FLOAT_EQ(tok.scale_interarrival(5000.0), 1.0f);
    EXPECT_FLOAT_EQ(tok.scale_interarrival(-1.0), 0.0f);
    EXPECT_NEAR(tok.unscale_interarrival(2.0), 1000.0, 0.5);
}

TEST(TokenizerTest, LogScalingIsMonotone) {
    const Tokenizer tok(cellular::Generation::kLte4G, 0.0, 8.0);
    float prev = -1.0f;
    for (double ia = 0.0; ia < 2000.0; ia += 50.0) {
        const float x = tok.scale_interarrival(ia);
        EXPECT_GT(x, prev);
        prev = x;
    }
}

TEST(TokenizerTest, EncodeLayout) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    trace::Stream s;
    s.events = {{0.0, lte::kSrvReq}, {10.0, lte::kS1ConnRel}};
    const auto t = tok.encode(s);
    ASSERT_EQ(t.shape(), (nn::Shape{2, 9}));
    // First token: one-hot SRV_REQ, ia 0, stop 0 -> stop one-hot (1, 0).
    EXPECT_EQ(t[lte::kSrvReq], 1.0f);
    EXPECT_EQ(t[tok.interarrival_offset()], 0.0f);
    EXPECT_EQ(t[tok.stop_offset()], 1.0f);
    EXPECT_EQ(t[tok.stop_offset() + 1], 0.0f);
    // Second token: stop flag set.
    EXPECT_EQ(t[9 + tok.stop_offset() + 1], 1.0f);
    EXPECT_GT(t[9 + tok.interarrival_offset()], 0.0f);
}

TEST(ModelTest, ForwardShapes) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(1);
    const CptGpt model(tok, tiny_config(), rng);
    nn::Var tokens = nn::make_var(nn::Tensor::zeros({2, 5, tok.d_token()}));
    const auto out = model.forward(tokens);
    EXPECT_EQ(out.event_logits->value.shape(), (nn::Shape{10, 6}));
    EXPECT_EQ(out.ia_mu->value.shape(), (nn::Shape{10}));
    EXPECT_EQ(out.ia_logvar->value.shape(), (nn::Shape{10}));
    EXPECT_EQ(out.stop_logits->value.shape(), (nn::Shape{10, 2}));
}

TEST(ModelTest, AblationHeadHasNoVariance) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    auto cfg = tiny_config();
    cfg.distribution_head = false;
    util::Rng rng(2);
    const CptGpt model(tok, cfg, rng);
    nn::Var tokens = nn::make_var(nn::Tensor::zeros({1, 3, tok.d_token()}));
    const auto out = model.forward(tokens);
    EXPECT_EQ(out.ia_logvar, nullptr);
    EXPECT_EQ(out.ia_mu->value.shape(), (nn::Shape{3}));
}

TEST(ModelTest, PackageRoundTrip) {
    const auto world = phone_world(40);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(3);
    const CptGpt model(tok, tiny_config(), rng);
    const auto dist = world.initial_event_distribution();
    const std::string path =
        (std::filesystem::temp_directory_path() / "cptgpt_pkg_test.bin").string();
    model.save_package(path, tok, dist);

    const auto pkg = CptGpt::load_package(path, cellular::Generation::kLte4G, tiny_config());
    EXPECT_NEAR(pkg.tokenizer.max_log_interarrival(), tok.max_log_interarrival(), 1e-5);
    ASSERT_EQ(pkg.initial_event_dist.size(), dist.size());
    for (std::size_t i = 0; i < dist.size(); ++i) {
        EXPECT_NEAR(pkg.initial_event_dist[i], dist[i], 1e-6);
    }
    // Loaded model reproduces the original's outputs bit-for-bit on floats.
    util::Rng data_rng(4);
    nn::Var tokens = nn::make_var(nn::Tensor::randn(data_rng, {1, 4, tok.d_token()}, 0.5f));
    const auto a = model.forward(tokens);
    const auto b = pkg.model->forward(tokens);
    for (std::size_t i = 0; i < a.event_logits->value.numel(); ++i) {
        EXPECT_EQ(a.event_logits->value[i], b.event_logits->value[i]);
    }
    std::remove(path.c_str());
}

TEST(TrainerTest, LossDecreases) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(5);
    CptGpt model(tok, tiny_config(), rng);
    TrainConfig cfg;
    cfg.max_epochs = 4;
    cfg.window = 32;
    Trainer trainer(model, tok, cfg);
    const auto r = trainer.train(world);
    ASSERT_GE(r.epochs_run, 2);
    EXPECT_LT(r.train_loss.back(), r.train_loss.front());
    EXPECT_GT(r.seconds, 0.0);
}

TEST(TrainerTest, EarlyStoppingTriggers) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(6);
    CptGpt model(tok, tiny_config(), rng);
    TrainConfig cfg;
    cfg.max_epochs = 100;
    cfg.patience = 1;
    cfg.window = 32;
    cfg.lr = 0.0f;  // no progress possible -> must stop after patience epochs
    cfg.lr_decay = false;
    Trainer trainer(model, tok, cfg);
    const auto r = trainer.train(world);
    EXPECT_LT(r.epochs_run, 100);
    EXPECT_LE(r.epochs_run, 3);
}

TEST(TrainerTest, AblationHeadTrains) {
    const auto world = phone_world(50);
    const auto tok = Tokenizer::fit(world);
    auto mcfg = tiny_config();
    mcfg.distribution_head = false;
    util::Rng rng(7);
    CptGpt model(tok, mcfg, rng);
    TrainConfig cfg;
    cfg.max_epochs = 3;
    cfg.window = 32;
    Trainer trainer(model, tok, cfg);
    const auto r = trainer.train(world);
    EXPECT_LT(r.train_loss.back(), r.train_loss.front());
}

TEST(TrainerTest, RejectsEmptyData) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(8);
    CptGpt model(tok, tiny_config(), rng);
    Trainer trainer(model, tok, TrainConfig{});
    trace::Dataset empty;
    EXPECT_THROW(trainer.train(empty), std::invalid_argument);
}

TEST(SamplerTest, StreamsRespectContract) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(9);
    CptGpt model(tok, tiny_config(), rng);  // untrained is fine for contracts
    SamplerConfig scfg;
    scfg.max_stream_len = 20;
    scfg.device = trace::DeviceType::kTablet;
    scfg.hour_of_day = 3;
    const Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
    util::Rng gen_rng(10);
    const auto ds = sampler.generate(30, gen_rng);
    for (const auto& s : ds.streams) {
        EXPECT_GE(s.length(), 2u);
        EXPECT_LE(s.length(), 20u);
        EXPECT_EQ(s.device, trace::DeviceType::kTablet);
        EXPECT_EQ(s.hour_of_day, 3);
        EXPECT_DOUBLE_EQ(s.events.front().timestamp, 0.0);
        double prev = 0.0;
        for (const auto& e : s.events) {
            EXPECT_GE(e.timestamp, prev);
            prev = e.timestamp;
        }
    }
}

TEST(SamplerTest, FirstEventFollowsInitialDistribution) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(11);
    CptGpt model(tok, tiny_config(), rng);
    // Degenerate initial distribution: always HO.
    std::vector<double> dist(6, 0.0);
    dist[lte::kHo] = 1.0;
    const Sampler sampler(model, tok, dist, SamplerConfig{});
    util::Rng gen_rng(12);
    for (int i = 0; i < 10; ++i) {
        const auto s = sampler.sample_stream("x", gen_rng);
        EXPECT_EQ(s.events.front().type, lte::kHo);
    }
}

// Sets the stop head's output bias to (-stop_bias, +stop_bias): a large
// positive value makes every decoded token stop its stream.
void bias_stop_head(CptGpt& model, float stop_bias) {
    for (const auto& np : model.named_parameters("cptgpt.")) {
        if (np.name == "cptgpt.stop_head.fc2.bias") {
            auto bias = np.param->value.data();
            bias[0] = -stop_bias;  // continue
            bias[1] = stop_bias;   // stop
        }
    }
}

// Restores the global pool's width when a test that resizes it ends.
class GlobalThreadsGuard {
public:
    GlobalThreadsGuard() : saved_(util::configured_threads()) {}
    ~GlobalThreadsGuard() { util::set_global_threads(saved_); }
    GlobalThreadsGuard(const GlobalThreadsGuard&) = delete;
    GlobalThreadsGuard& operator=(const GlobalThreadsGuard&) = delete;

private:
    std::size_t saved_;
};

std::string serial_ue_id(std::size_t serial) {
    char id[32];
    std::snprintf(id, sizeof(id), "cptgpt-%06zu", serial);
    return id;
}

// generate(n) returns serials 0..n-1 in ascending order, each byte-identical
// to decoding that serial alone from the caller RNG's serial-th fork —
// whatever the batch's completion order and however many lanes decode.
TEST(SamplerTest, GenerateKeepsFirstUsableSerialsInOrder) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(17);
    CptGpt model(tok, tiny_config(), init);  // untrained: stream lengths vary
    SamplerConfig scfg;
    scfg.batch = 8;
    const Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
    constexpr std::size_t kN = 10;

    util::Rng root(23);
    std::vector<trace::Stream> want;
    for (std::size_t s = 0; s < kN; ++s) {
        util::Rng forked = root.fork(s);
        auto one = sampler.generate_batch(std::span(&forked, 1), "cptgpt", s);
        ASSERT_EQ(one.size(), 1u);
        ASSERT_GE(one.front().length(), 2u);
        want.push_back(std::move(one.front()));
    }
    // Completion order within a batch differs from serial order only when
    // lengths vary; make sure this model exercises that.
    bool ascending_lengths = true;
    for (std::size_t s = 1; s < kN; ++s) {
        ascending_lengths = ascending_lengths && want[s - 1].length() <= want[s].length();
    }
    ASSERT_FALSE(ascending_lengths);

    GlobalThreadsGuard guard;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::set_global_threads(threads);
        util::Rng rng(23);
        const auto got = sampler.generate(kN, rng);
        ASSERT_EQ(got.streams.size(), kN) << "threads=" << threads;
        for (std::size_t s = 0; s < kN; ++s) {
            const auto& a = want[s];
            const auto& b = got.streams[s];
            EXPECT_EQ(b.ue_id, serial_ue_id(s)) << "threads=" << threads;
            ASSERT_EQ(a.events.size(), b.events.size()) << b.ue_id << " threads=" << threads;
            for (std::size_t j = 0; j < a.events.size(); ++j) {
                EXPECT_EQ(a.events[j].type, b.events[j].type) << b.ue_id << " event " << j;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a.events[j].timestamp),
                          std::bit_cast<std::uint64_t>(b.events[j].timestamp))
                    << b.ue_id << " event " << j;
            }
        }
    }
}

// A model that stops at its first decoded token still yields usable streams:
// every stream holds the bootstrap event plus that token, so generate(n)
// returns n two-event streams without a degenerate-model warning.
TEST(SamplerTest, AlwaysStopModelYieldsTwoEventStreams) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(19);
    CptGpt model(tok, tiny_config(), init);
    bias_stop_head(model, 30.0f);
    const Sampler sampler(model, tok, world.initial_event_distribution(), SamplerConfig{});
    constexpr std::size_t kN = 50;

    GlobalThreadsGuard guard;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::set_global_threads(threads);
        util::Rng rng(29);
        testing::internal::CaptureStderr();
        const auto ds = sampler.generate(kN, rng);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.find(util::kWarnPrefix), std::string::npos) << err;
        ASSERT_EQ(ds.streams.size(), kN) << "threads=" << threads;
        for (std::size_t s = 0; s < kN; ++s) {
            EXPECT_EQ(ds.streams[s].ue_id, serial_ue_id(s));
            EXPECT_EQ(ds.streams[s].length(), 2u) << ds.streams[s].ue_id;
        }
    }
}

// A model whose stop head is biased hard toward "continue" runs every stream
// to max_stream_len: the cap retires the row on the token that reaches it,
// never earlier or later, and each step commits one token per row.
TEST(SamplerTest, GenerateBatchStopsExactlyAtTheLengthCap) {
    const auto world = phone_world(40);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(21);
    CptGpt model(tok, tiny_config(), init);
    bias_stop_head(model, -8.0f);
    constexpr std::size_t kStreams = 5;
    const std::size_t max_seq = tiny_config().max_seq_len;
    for (const std::size_t cap : {std::size_t{2}, std::size_t{7}, max_seq}) {
        SamplerConfig scfg;
        scfg.batch = kStreams;
        scfg.max_stream_len = cap;
        const Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
        util::Rng root(5);
        std::vector<util::Rng> rngs;
        for (std::size_t i = 0; i < kStreams; ++i) rngs.push_back(root.fork(i));
        Sampler::StageTimes times;
        const auto streams = sampler.generate_batch(std::span(rngs), "cap", 0, &times);
        ASSERT_EQ(streams.size(), kStreams) << "cap=" << cap;
        for (const auto& s : streams) EXPECT_EQ(s.events.size(), cap) << s.ue_id << " cap=" << cap;
        // One bootstrap event plus one committed token per step.
        EXPECT_EQ(times.steps, cap - 1) << "cap=" << cap;
    }
}

// Greedy decoding (temperature 0) consumes no randomness after the
// bootstrap draw of the first event, so every stream that starts with the
// same event is byte-identical, whatever its RNG.
TEST(SamplerTest, GreedyStreamsDependOnlyOnTheBootstrapEvent) {
    const auto world = phone_world(60);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(31);
    CptGpt model(tok, tiny_config(), init);
    SamplerConfig scfg;
    scfg.temperature = 0.0;
    scfg.batch = 4;
    const Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
    util::Rng rng(37);
    const auto ds = sampler.generate(48, rng);
    ASSERT_EQ(ds.streams.size(), 48u);

    std::vector<const trace::Stream*> first_of(tok.num_event_types(), nullptr);
    std::size_t repeats = 0;
    for (const auto& s : ds.streams) {
        const trace::Stream*& ref = first_of[s.events.front().type];
        if (ref == nullptr) {
            ref = &s;
            continue;
        }
        ++repeats;
        ASSERT_EQ(s.events.size(), ref->events.size()) << s.ue_id << " vs " << ref->ue_id;
        for (std::size_t j = 0; j < s.events.size(); ++j) {
            EXPECT_EQ(s.events[j].type, ref->events[j].type) << s.ue_id << " event " << j;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(s.events[j].timestamp),
                      std::bit_cast<std::uint64_t>(ref->events[j].timestamp))
                << s.ue_id << " event " << j;
        }
    }
    // 48 streams over a handful of first events: most share one.
    EXPECT_GE(repeats, 40u);
}

TEST(SamplerTest, RejectsBadInitialDistribution) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng rng(13);
    CptGpt model(tok, tiny_config(), rng);
    EXPECT_THROW(Sampler(model, tok, std::vector<double>(3, 0.1)), std::invalid_argument);
    EXPECT_THROW(Sampler(model, tok, std::vector<double>(6, 0.0)), std::invalid_argument);
}

// Integration: a briefly-trained tiny model must beat an untrained one on
// semantic violations by a wide margin.
TEST(CptGptIntegrationTest, TrainingReducesViolations) {
    const auto world = phone_world(200, 31);
    const auto tok = Tokenizer::fit(world);
    auto cfg = tiny_config();
    cfg.d_model = 32;
    cfg.mlp_hidden = 64;
    util::Rng rng(14);
    CptGpt untrained(tok, cfg, rng);
    util::Rng rng2(14);
    CptGpt trained(tok, cfg, rng2);
    TrainConfig tcfg;
    tcfg.max_epochs = 18;
    tcfg.patience = 8;
    tcfg.window = 48;
    // Weighting the event loss up sharpens transitions quickly on a small
    // budget (the paper's Table 8 shows fidelity is insensitive to this).
    tcfg.w_event = 3.0f;
    Trainer(trained, tok, tcfg).train(world);

    const auto dist = world.initial_event_distribution();
    util::Rng g1(15);
    util::Rng g2(15);
    const auto before = Sampler(untrained, tok, dist).generate(60, g1);
    const auto after = Sampler(trained, tok, dist).generate(60, g2);
    const double v_before = metrics::semantic_violations(before).event_fraction();
    const double v_after = metrics::semantic_violations(after).event_fraction();
    EXPECT_LT(v_after, v_before * 0.5)
        << "training should cut violations sharply (before " << v_before << ", after " << v_after
        << ")";
}

}  // namespace
}  // namespace cpt::core
