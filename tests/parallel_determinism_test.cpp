// Pins the cross-thread-count determinism contract: Sampler::generate (at
// any decode batch width) and SyntheticWorldGenerator produce byte-identical
// datasets whether the global pool has 1 lane or 4. Also covers the
// max_stream_len guards that ride along with the parallel sampler.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "core/trainer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace cpt::core {
namespace {

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

// Timestamps are compared by bit pattern, not by value: the contract is
// byte-identical output, and bitwise comparison also distinguishes -0.0.
void expect_identical(const trace::Dataset& a, const trace::Dataset& b) {
    ASSERT_EQ(a.generation, b.generation);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        const auto& sa = a.streams[i];
        const auto& sb = b.streams[i];
        EXPECT_EQ(sa.ue_id, sb.ue_id);
        EXPECT_EQ(sa.device, sb.device);
        EXPECT_EQ(sa.hour_of_day, sb.hour_of_day);
        ASSERT_EQ(sa.events.size(), sb.events.size()) << "stream " << i;
        for (std::size_t j = 0; j < sa.events.size(); ++j) {
            EXPECT_EQ(sa.events[j].type, sb.events[j].type) << "stream " << i << " event " << j;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.events[j].timestamp),
                      std::bit_cast<std::uint64_t>(sb.events[j].timestamp))
                << "stream " << i << " event " << j;
        }
    }
}

class ThreadCountGuard {
public:
    ~ThreadCountGuard() { util::set_global_threads(1); }
};

TEST(ParallelDeterminismTest, WorldGeneratorIsThreadCountInvariant) {
    ThreadCountGuard guard;
    trace::SyntheticWorldConfig cfg;
    cfg.population = {40, 25, 15};
    cfg.seed = 77;
    util::set_global_threads(1);
    const auto one = trace::SyntheticWorldGenerator(cfg).generate();
    util::set_global_threads(4);
    const auto four = trace::SyntheticWorldGenerator(cfg).generate();
    ASSERT_GT(one.streams.size(), 0u);
    expect_identical(one, four);
}

TEST(ParallelDeterminismTest, WorldGeneratorHoursAreThreadCountInvariant) {
    ThreadCountGuard guard;
    trace::SyntheticWorldConfig cfg;
    cfg.population = {20, 10, 5};
    cfg.seed = 13;
    util::set_global_threads(1);
    const auto one = trace::SyntheticWorldGenerator(cfg).generate_hours(3);
    util::set_global_threads(4);
    const auto four = trace::SyntheticWorldGenerator(cfg).generate_hours(3);
    ASSERT_EQ(one.size(), 3u);
    ASSERT_EQ(four.size(), 3u);
    for (std::size_t h = 0; h < one.size(); ++h) expect_identical(one[h], four[h]);
}

// generate(40) is one dataset for every decode batch width and pool width,
// in fp32 and int8 alike.
TEST(ParallelDeterminismTest, SamplerGenerateIsThreadCountInvariant) {
    ThreadCountGuard guard;
    const auto world = phone_world(40);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(3);
    CptGpt model(tok, tiny_config(), init);  // untrained: contract is structural
    model.quantize_weights();

    struct Mode {
        const char* name;
        nn::Precision precision;
    };
    for (const Mode mode :
         {Mode{"fp32", nn::Precision::kFp32}, Mode{"int8", nn::Precision::kInt8W8A32}}) {
        std::optional<trace::Dataset> reference;
        for (const std::size_t batch : {1, 3, 8, 32}) {
            SamplerConfig scfg;
            scfg.batch = batch;
            scfg.precision = mode.precision;
            const Sampler sampler(model, tok, world.initial_event_distribution(), scfg);
            for (const std::size_t threads : {1, 2, 4}) {
                SCOPED_TRACE(testing::Message() << mode.name << " batch=" << batch
                                                << " threads=" << threads);
                util::set_global_threads(threads);
                util::Rng rng(42);
                auto ds = sampler.generate(40, rng);
                ASSERT_EQ(ds.streams.size(), 40u);
                if (!reference) {
                    reference = std::move(ds);
                } else {
                    expect_identical(*reference, ds);
                }
            }
        }
    }
}

TEST(ParallelDeterminismTest, SamplerRejectsDegenerateMaxStreamLen) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(5);
    CptGpt model(tok, tiny_config(), init);
    SamplerConfig scfg;
    scfg.max_stream_len = 1;
    EXPECT_THROW(Sampler(model, tok, world.initial_event_distribution(), scfg),
                 std::invalid_argument);
}

TEST(ParallelDeterminismTest, TrainerRejectsDegenerateMaxStreamLen) {
    const auto world = phone_world(30);
    const auto tok = Tokenizer::fit(world);
    util::Rng init(5);
    CptGpt model(tok, tiny_config(), init);
    TrainConfig tcfg;
    tcfg.max_stream_len = 1;
    EXPECT_THROW(Trainer(model, tok, tcfg), std::invalid_argument);
}

}  // namespace
}  // namespace cpt::core
