// Tests for the ModelHub release registry.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/model_hub.hpp"
#include "trace/synthetic.hpp"

namespace cpt::core {
namespace {

CptGptConfig tiny_config() {
    CptGptConfig cfg;
    cfg.d_model = 16;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.blocks = 1;
    cfg.max_seq_len = 32;
    cfg.head_hidden = 16;
    return cfg;
}

struct HubFixture : ::testing::Test {
    void SetUp() override {
        // Per-test directory: ctest runs the cases of this binary as separate
        // concurrent processes, so a shared directory would race.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (std::filesystem::temp_directory_path() /
               (std::string("cpt_hub_test_") + info->name()))
                  .string();
        std::filesystem::remove_all(dir);
    }
    void TearDown() override { std::filesystem::remove_all(dir); }
    std::string dir;
};

TEST_F(HubFixture, PublishLoadRoundTrip) {
    trace::SyntheticWorldConfig w;
    w.population = {40, 0, 0};
    const auto data = trace::SyntheticWorldGenerator(w).generate();
    const auto tok = Tokenizer::fit(data);
    util::Rng rng(1);
    const CptGpt model(tok, tiny_config(), rng);

    ModelHub hub(dir);
    EXPECT_FALSE(hub.has(trace::DeviceType::kPhone, 9));
    hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, 9);
    EXPECT_TRUE(hub.has(trace::DeviceType::kPhone, 9));
    EXPECT_FALSE(hub.has(trace::DeviceType::kTablet, 9));

    const auto pkg = hub.load(trace::DeviceType::kPhone, 9, tiny_config());
    EXPECT_NEAR(pkg.tokenizer.max_log_interarrival(), tok.max_log_interarrival(), 1e-5);
    EXPECT_THROW(hub.load(trace::DeviceType::kPhone, 10, tiny_config()), std::out_of_range);
}

TEST_F(HubFixture, AbsentSliceErrorNamesSliceAndDirectory) {
    ModelHub hub(dir);
    try {
        hub.load(trace::DeviceType::kConnectedCar, 17, tiny_config());
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("connected_car"), std::string::npos) << msg;
        EXPECT_NE(msg.find("17"), std::string::npos) << msg;
        EXPECT_NE(msg.find(dir), std::string::npos) << msg;
    }
}

TEST_F(HubFixture, PublishLoadManifestRoundTrip) {
    trace::SyntheticWorldConfig w;
    w.population = {30, 0, 0};
    const auto data = trace::SyntheticWorldGenerator(w).generate();
    const auto tok = Tokenizer::fit(data);
    util::Rng rng(7);
    const CptGpt model(tok, tiny_config(), rng);

    ModelHub hub(dir);
    hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, 9);
    hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kTablet, 21);

    // The manifest on disk names both slices and their checkpoint files exist.
    std::ifstream manifest(dir + "/manifest.csv");
    ASSERT_TRUE(manifest.good());
    std::string text((std::istreambuf_iterator<char>(manifest)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("phone,9"), std::string::npos) << text;
    EXPECT_NE(text.find("tablet,21"), std::string::npos) << text;
    for (const auto& e : hub.entries()) {
        EXPECT_TRUE(std::filesystem::exists(dir + "/" + e.file)) << e.file;
    }

    // Loading each slice back returns the published package: same weights
    // (spot-checked through a forward-free proxy — the tokenizer scaling)
    // and the same initial-event distribution.
    for (const auto& [device, hour] :
         {std::pair{trace::DeviceType::kPhone, 9}, std::pair{trace::DeviceType::kTablet, 21}}) {
        const auto pkg = hub.load(device, hour, tiny_config());
        ASSERT_NE(pkg.model, nullptr);
        EXPECT_NEAR(pkg.tokenizer.max_log_interarrival(), tok.max_log_interarrival(), 1e-5);
        const auto& want = data.initial_event_distribution();
        ASSERT_EQ(pkg.initial_event_dist.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            // The package stores the distribution as f32.
            EXPECT_NEAR(pkg.initial_event_dist[i], want[i], 1e-6);
        }
    }
}

TEST_F(HubFixture, ManifestSurvivesReopen) {
    trace::SyntheticWorldConfig w;
    w.population = {30, 0, 0};
    const auto data = trace::SyntheticWorldGenerator(w).generate();
    const auto tok = Tokenizer::fit(data);
    util::Rng rng(2);
    const CptGpt model(tok, tiny_config(), rng);
    {
        ModelHub hub(dir);
        hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kTablet, 3);
        hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kTablet, 3);
        EXPECT_EQ(hub.entries().size(), 1u);  // republish replaces
    }
    ModelHub reopened(dir);
    EXPECT_TRUE(reopened.has(trace::DeviceType::kTablet, 3));
    EXPECT_EQ(reopened.entries().size(), 1u);
}

TEST_F(HubFixture, NearestHourFallbackIsCyclic) {
    trace::SyntheticWorldConfig w;
    w.population = {30, 0, 0};
    const auto data = trace::SyntheticWorldGenerator(w).generate();
    const auto tok = Tokenizer::fit(data);
    util::Rng rng(3);
    const CptGpt model(tok, tiny_config(), rng);
    ModelHub hub(dir);
    hub.publish(model, tok, data.initial_event_distribution(), trace::DeviceType::kPhone, 23);

    // Hour 1 is distance 2 from 23 across midnight: must resolve, and load.
    EXPECT_EQ(hub.nearest_hour(trace::DeviceType::kPhone, 1), 23);
    EXPECT_NO_THROW(hub.load(trace::DeviceType::kPhone, 23, tiny_config()));
    // No releases for cars at all.
    EXPECT_FALSE(hub.nearest_hour(trace::DeviceType::kConnectedCar, 1).has_value());
}

}  // namespace
}  // namespace cpt::core
