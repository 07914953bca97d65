// Cross-module integration tests: full pipelines spanning trace I/O, SMM,
// CPT-GPT packaging, the GAN baseline, fidelity metrics and the MCN consumer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "core/trainer.hpp"
#include "gan/netshare.hpp"
#include "mcn/simulator.hpp"
#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "smm/ensemble.hpp"
#include "trace/io.hpp"
#include "trace/ngram.hpp"
#include "trace/synthetic.hpp"

namespace cpt {
namespace {

trace::Dataset world(std::size_t phones, std::size_t cars, std::size_t tablets,
                     std::uint64_t seed = 61) {
    trace::SyntheticWorldConfig cfg;
    cfg.population = {phones, cars, tablets};
    cfg.seed = seed;
    return trace::SyntheticWorldGenerator(cfg).generate();
}

TEST(PipelineTest, CsvToSmmToValidatedTrace) {
    // World -> CSV -> reload -> fit SMM -> generate -> validate: the full
    // offline path an operator would run.
    const auto original = world(150, 0, 0);
    std::stringstream buffer;
    trace::write_csv(buffer, original);
    const auto reloaded = trace::read_csv(buffer);
    ASSERT_EQ(reloaded.total_events(), original.total_events());

    const auto model = smm::SemiMarkovModel::fit(reloaded);
    util::Rng rng(62);
    const auto generated = model.generate(200, rng);
    EXPECT_EQ(lint::TraceLinter(generated.generation).lint(generated).violating_events, 0u);
    const auto report = metrics::evaluate_fidelity(generated, original);
    EXPECT_LT(report.max_breakdown_diff(), 0.08);
}

TEST(PipelineTest, PackagedModelGeneratesIdenticalTraces) {
    // Train briefly, save the release package, reload it elsewhere, and check
    // the two samplers produce identical streams from identical seeds.
    const auto data = world(80, 0, 0, 63);
    const auto tok = core::Tokenizer::fit(data);
    core::CptGptConfig cfg;
    cfg.d_model = 24;
    cfg.heads = 2;
    cfg.mlp_hidden = 48;
    cfg.blocks = 1;
    cfg.max_seq_len = 64;
    cfg.head_hidden = 24;
    util::Rng rng(64);
    core::CptGpt model(tok, cfg, rng);
    core::TrainConfig tcfg;
    tcfg.max_epochs = 3;
    tcfg.window = 32;
    core::Trainer(model, tok, tcfg).train(data);

    const auto dist = data.initial_event_distribution();
    const std::string path =
        (std::filesystem::temp_directory_path() / "cpt_integration_pkg.bin").string();
    model.save_package(path, tok, dist);
    const auto pkg = core::CptGpt::load_package(path, cellular::Generation::kLte4G, cfg);

    const core::Sampler original(model, tok, dist);
    const core::Sampler restored(*pkg.model, pkg.tokenizer, pkg.initial_event_dist);
    util::Rng g1(65);
    util::Rng g2(65);
    const auto a = original.generate(20, g1);
    const auto b = restored.generate(20, g2);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        ASSERT_EQ(a.streams[i].events.size(), b.streams[i].events.size());
        for (std::size_t j = 0; j < a.streams[i].events.size(); ++j) {
            EXPECT_EQ(a.streams[i].events[j].type, b.streams[i].events[j].type);
            EXPECT_FLOAT_EQ(static_cast<float>(a.streams[i].events[j].timestamp),
                            static_cast<float>(b.streams[i].events[j].timestamp));
        }
    }
    std::remove(path.c_str());
}

TEST(PipelineTest, SynthesizedTrafficDrivesMcnLikeRealTraffic) {
    // An SMM-generated population should load the MCN comparably to the real
    // trace it was fitted on (that is the entire point of the generator).
    const auto real = world(250, 0, 0, 66);
    const auto model = smm::SemiMarkovModel::fit(real);
    util::Rng rng(67);
    auto synth = model.generate(real.streams.size(), rng);

    mcn::McnConfig cfg;
    cfg.stochastic_service = false;
    cfg.costs.srv_req_us = 20000.0;
    cfg.costs.s1_rel_us = 10000.0;
    const auto r_real = mcn::simulate(real, cfg);
    const auto r_synth = mcn::simulate(synth, cfg);
    ASSERT_GT(r_real.events_processed, 0u);
    ASSERT_GT(r_synth.events_processed, 0u);
    // Within 2x on total events and peak session state (loose, but catches
    // generators that are wildly off).
    const double event_ratio = static_cast<double>(r_synth.events_processed) /
                               static_cast<double>(r_real.events_processed);
    EXPECT_GT(event_ratio, 0.5);
    EXPECT_LT(event_ratio, 2.0);
    // Peak session-state concurrency is where a single pooled SMM visibly
    // under-represents the real trace (per-UE heterogeneity collapses —
    // the paper's SMM-1 weakness), so the bound is loose on purpose.
    const double state_ratio = static_cast<double>(r_synth.peak_connected_ues) /
                               static_cast<double>(std::max<std::size_t>(1, r_real.peak_connected_ues));
    EXPECT_GT(state_ratio, 0.1);
    EXPECT_LT(state_ratio, 3.0);
}

TEST(PipelineTest, MixedDeviceWorldSplitsCleanly) {
    const auto ds = world(60, 40, 20, 68);
    const auto phones = ds.filter_device(trace::DeviceType::kPhone);
    const auto cars = ds.filter_device(trace::DeviceType::kConnectedCar);
    const auto tablets = ds.filter_device(trace::DeviceType::kTablet);
    EXPECT_EQ(phones.streams.size() + cars.streams.size() + tablets.streams.size(),
              ds.streams.size());
    for (const auto& s : cars.streams) EXPECT_EQ(s.device, trace::DeviceType::kConnectedCar);
    // Device mix drives different event breakdowns.
    EXPECT_GT(cars.event_type_breakdown()[cellular::lte::kHo],
              phones.event_type_breakdown()[cellular::lte::kHo]);
}

TEST(PipelineTest, NgramIndexAcceptsSmmOutputAtHighToleranceOnly) {
    // SMM interpolates empirical CDFs, so its short n-grams should frequently
    // match training n-grams at a loose tolerance but rarely exactly.
    const auto real = world(150, 0, 0, 69);
    const auto model = smm::SemiMarkovModel::fit(real);
    util::Rng rng(70);
    const auto synth = model.generate(100, rng);
    const trace::NgramIndex index(real, 2);
    const double loose = trace::repeated_ngram_fraction(synth, index, 0.5);
    const double tight = trace::repeated_ngram_fraction(synth, index, 0.001);
    EXPECT_GT(loose, tight);
}

TEST(PipelineTest, GanConsumesWorldAndProducesMeasurableTrace) {
    const auto real = world(60, 0, 0, 71);
    const auto tok = core::Tokenizer::fit(real);
    gan::NetShareConfig gcfg;
    gcfg.max_seq_len = 16;
    gcfg.lstm_hidden = 16;
    gcfg.disc_hidden = 32;
    gcfg.batch_size = 8;
    util::Rng rng(72);
    gan::NetShareGenerator gen(tok, gcfg, rng);
    gan::GanTrainConfig tcfg;
    tcfg.max_epochs = 3;
    tcfg.eval_every = 3;
    gen.train(real, tcfg);
    util::Rng grng(73);
    const auto synth = gen.generate(50, grng, trace::DeviceType::kPhone);
    // The fidelity pipeline must handle GAN output end to end.
    const auto report = metrics::evaluate_fidelity(synth, real);
    EXPECT_GE(report.event_violation_fraction, 0.0);
    EXPECT_LE(report.maxy_flow_length_all, 1.0);
}

}  // namespace
}  // namespace cpt
