// Error-path coverage for the binary checkpoint format (nn/serialize.hpp):
// every way a checkpoint can fail to match the model must be a loud
// std::runtime_error naming the problem, never a silent partial load — the
// ModelHub release/consume flow (and now cpt-serve) depends on it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace cpt::nn {
namespace {

std::vector<NamedParam> two_params(util::Rng& rng) {
    std::vector<NamedParam> params;
    params.push_back({"layer.weight", make_param(Tensor::randn(rng, {4, 3}, 1.0f))});
    params.push_back({"layer.bias", make_param(Tensor::zeros({4}))});
    return params;
}

// Runs `f` and asserts it throws std::runtime_error whose message contains
// `needle`.
template <typename F>
void expect_error_containing(F&& f, const std::string& needle) {
    try {
        f();
        FAIL() << "expected std::runtime_error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

struct SerializeFixture : ::testing::Test {
    void SetUp() override {
        // One file per test: ctest runs the fixture's tests as concurrent
        // processes.
        const std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
        path = (std::filesystem::temp_directory_path() / ("cpt_serialize_test_" + test + ".ckpt"))
                   .string();
        std::filesystem::remove(path);
    }
    void TearDown() override { std::filesystem::remove(path); }

    std::vector<char> slurp() const {
        std::ifstream in(path, std::ios::binary);
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
    void dump(const std::vector<char>& bytes) const {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::string path;
};

TEST_F(SerializeFixture, RoundTripRestoresEveryValue) {
    util::Rng rng(11);
    const auto src = two_params(rng);
    save_parameters(path, src);
    util::Rng rng2(99);
    const auto dst = two_params(rng2);
    load_parameters(path, dst);
    for (std::size_t p = 0; p < src.size(); ++p) {
        const auto a = src[p].param->value.data();
        const auto b = dst[p].param->value.data();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
}

TEST_F(SerializeFixture, TruncatedHeaderThrows) {
    util::Rng rng(12);
    save_parameters(path, two_params(rng));
    auto bytes = slurp();
    bytes.resize(6);  // magic + 2 bytes of the version field
    dump(bytes);
    expect_error_containing([&] { load_parameters(path, two_params(rng)); }, "truncated");
}

TEST_F(SerializeFixture, TruncatedTensorDataThrows) {
    util::Rng rng(13);
    save_parameters(path, two_params(rng));
    auto bytes = slurp();
    bytes.resize(bytes.size() - 7);  // cut into the last tensor's floats
    dump(bytes);
    expect_error_containing([&] { load_parameters(path, two_params(rng)); }, "truncated");
}

TEST_F(SerializeFixture, BadMagicThrows) {
    util::Rng rng(14);
    save_parameters(path, two_params(rng));
    auto bytes = slurp();
    bytes[0] = 'X';
    dump(bytes);
    expect_error_containing([&] { load_parameters(path, two_params(rng)); }, "bad magic");
}

TEST_F(SerializeFixture, NameMismatchNamesTheUnknownParameter) {
    util::Rng rng(15);
    save_parameters(path, two_params(rng));
    std::vector<NamedParam> renamed;
    renamed.push_back({"other.weight", make_param(Tensor::zeros({4, 3}))});
    renamed.push_back({"other.bias", make_param(Tensor::zeros({4}))});
    expect_error_containing([&] { load_parameters(path, renamed); },
                            "unknown parameter 'layer.weight'");
}

TEST_F(SerializeFixture, ShapeMismatchNamesParameterAndShapes) {
    util::Rng rng(16);
    save_parameters(path, two_params(rng));
    std::vector<NamedParam> reshaped;
    reshaped.push_back({"layer.weight", make_param(Tensor::zeros({3, 4}))});  // transposed
    reshaped.push_back({"layer.bias", make_param(Tensor::zeros({4}))});
    expect_error_containing([&] { load_parameters(path, reshaped); },
                            "shape mismatch for 'layer.weight'");
}

TEST_F(SerializeFixture, MissingParameterIsCountedNotSilentlySkipped) {
    util::Rng rng(17);
    std::vector<NamedParam> one;
    one.push_back({"layer.weight", make_param(Tensor::randn(rng, {4, 3}, 1.0f))});
    save_parameters(path, one);
    expect_error_containing([&] { load_parameters(path, two_params(rng)); }, "covers 1 of 2");
}

// Inflating a section's name length or rank must fail before that field sizes
// an allocation, with an error naming the section.
TEST_F(SerializeFixture, InflatedLengthFieldsNameTheSection) {
    util::Rng rng(19);
    const auto params = two_params(rng);
    save_parameters(path, params);
    const auto clean = slurp();
    auto read_u32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, clean.data() + at, sizeof(v));
        return v;
    };
    // v1 layout: magic, version, count, then per section: u32 name length,
    // name, u32 rank, u64 dims, f32 data.
    std::vector<std::size_t> name_len_at;
    std::vector<std::size_t> rank_at;
    std::size_t at = 12;
    for (const auto& np : params) {
        name_len_at.push_back(at);
        at += 4 + read_u32(at);
        rank_at.push_back(at);
        at += 4 + 8 * read_u32(at) + 4 * np.param->value.numel();
    }
    ASSERT_EQ(at, clean.size());

    auto expect_rejected = [&](std::size_t offset, std::uint32_t value, std::size_t section,
                               const std::string& field) {
        auto bytes = clean;
        std::memcpy(bytes.data() + offset, &value, sizeof(value));
        dump(bytes);
        SCOPED_TRACE(field + " = " + std::to_string(value));
        expect_error_containing([&] { load_parameters(path, two_params(rng)); },
                                "section " + std::to_string(section));
        expect_error_containing([&] { load_parameters(path, two_params(rng)); }, field);
    };
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto left = static_cast<std::uint32_t>(clean.size() - name_len_at[i] - 4);
        expect_rejected(name_len_at[i], left + 1, i, "name length");
        expect_rejected(name_len_at[i], 0xFFFFFFFFu, i, "name length");
        expect_rejected(rank_at[i], 9, i, "rank");
        expect_rejected(rank_at[i], 0xFFFFFFFFu, i, "rank");
    }
}

TEST_F(SerializeFixture, SaveWritesVersion1) {
    util::Rng rng(20);
    save_parameters(path, two_params(rng));
    const auto bytes = slurp();
    ASSERT_GE(bytes.size(), 8u);
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, 1u);
}

// A version-2 file (int8 weight sections) fails like any other unknown
// version, naming the version and the file.
TEST_F(SerializeFixture, Version2IsRejected) {
    util::Rng rng(21);
    save_parameters(path, two_params(rng));
    auto bytes = slurp();
    const std::uint32_t v2 = 2;
    std::memcpy(bytes.data() + 4, &v2, sizeof(v2));
    dump(bytes);
    expect_error_containing([&] { load_parameters(path, two_params(rng)); },
                            "unsupported version 2 in '" + path + "'");
}

// A file naming one parameter twice must not load: counting sections alone
// would accept {a, a} for a model {a, b} and leave b at its init values.
TEST_F(SerializeFixture, RepeatedNameNamesTheSection) {
    util::Rng rng(22);
    const auto a = make_param(Tensor::randn(rng, {2, 2}, 1.0f));
    save_parameters(path, {{"a", a}, {"a", a}});
    const std::vector<NamedParam> model{{"a", make_param(Tensor::zeros({2, 2}))},
                                        {"b", make_param(Tensor::zeros({2, 2}))}};
    expect_error_containing([&] { load_parameters(path, model); }, "section 1");
    expect_error_containing([&] { load_parameters(path, model); }, "names parameter 'a' again");
}

TEST_F(SerializeFixture, MissingFileThrows) {
    util::Rng rng(18);
    expect_error_containing(
        [&] { load_parameters("/nonexistent/cpt_nope.ckpt", two_params(rng)); }, "cannot open");
}

}  // namespace
}  // namespace cpt::nn
