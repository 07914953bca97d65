// Tests for the cpt_sa project-invariant linter (tools/cpt_sa). Three
// layers: per-rule unit tests over inline snippets (lint_text), the
// violating fixture tree under tests/sa_fixtures/bad_tree (every rule must
// fire exactly where seeded, and the suppressed twin must stay silent), and
// the real repository (src/ + CMakeLists.txt must lint clean — this is the
// same invocation scripts/check.sh runs in its `sa` stage, so a regression
// here is caught before the gate does).
#include "sa_lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using cpt::sa::LintResult;
using cpt::sa::Violation;

std::vector<Violation> lint(const std::string& rel, const std::string& text) {
    std::vector<Violation> out;
    cpt::sa::lint_text(rel, text, out);
    return out;
}

std::size_t count_rule(const std::vector<Violation>& vs, const std::string& rule) {
    return static_cast<std::size_t>(
        std::count_if(vs.begin(), vs.end(),
                      [&](const Violation& v) { return v.rule == rule; }));
}

bool has(const std::vector<Violation>& vs, const std::string& file,
         const std::string& rule) {
    return std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
        return v.file == file && v.rule == rule;
    });
}

// ---- sync-types ------------------------------------------------------------

TEST(SyncTypes, FlagsStdMutexAndHeaderOutsideSyncHpp) {
    const auto vs = lint("src/serve/engine.cpp",
                         "#include <mutex>\n"
                         "std::mutex mu;\n"
                         "std::condition_variable cv;\n"
                         "std::lock_guard<std::mutex> lk(mu);\n");
    EXPECT_EQ(count_rule(vs, "sync-types"), 5u);  // header + 4 type mentions
    EXPECT_EQ(vs.front().line, 1u);
}

TEST(SyncTypes, SyncHppItselfIsExempt) {
    const auto vs = lint("src/util/sync.hpp",
                         "#include <mutex>\nstd::mutex mu_;\n");
    EXPECT_TRUE(vs.empty());
}

TEST(SyncTypes, IgnoresCommentsAndStrings) {
    const auto vs = lint("src/serve/engine.cpp",
                         "// wraps std::mutex\n"
                         "/* #include <mutex> */\n"
                         "const char* doc = \"std::mutex\";\n"
                         "const char* raw = R\"(std::lock_guard)\";\n");
    EXPECT_TRUE(vs.empty());
}

TEST(SyncTypes, AnnotatedWrappersAreClean) {
    const auto vs = lint("src/serve/engine.cpp",
                         "#include \"util/sync.hpp\"\n"
                         "util::Mutex mu;\nutil::CondVar cv;\n"
                         "util::LockGuard lk(mu);\n");
    EXPECT_TRUE(vs.empty());
}

// ---- avx2-isolation --------------------------------------------------------

TEST(Avx2Isolation, FlagsIntrinsicsOutsideAvx2Tu) {
    const auto vs = lint("src/nn/gemm.cpp", "#include <immintrin.h>\n");
    EXPECT_EQ(count_rule(vs, "avx2-isolation"), 1u);
}

TEST(Avx2Isolation, FlagsAvx2HeaderInclusionFromBaselineTu) {
    const auto vs = lint("src/nn/kernels.cpp", "#include \"kernels_avx2.hpp\"\n");
    EXPECT_EQ(count_rule(vs, "avx2-isolation"), 1u);
}

TEST(Avx2Isolation, Avx2TuMayUseIntrinsics) {
    const auto vs = lint("src/nn/gemm_avx2.cpp",
                         "#include <immintrin.h>\n#include \"kernels_avx2.hpp\"\n");
    EXPECT_TRUE(vs.empty());
}

TEST(Avx2Isolation, Avx512TuMayUseIntrinsicsButBaselineMayNotIncludeIt) {
    EXPECT_TRUE(lint("src/nn/gemm_avx512.cpp", "#include <immintrin.h>\n").empty());
    const auto vs = lint("src/nn/gemm.cpp", "#include \"gemm_avx512.hpp\"\n");
    EXPECT_EQ(count_rule(vs, "avx2-isolation"), 1u);
}

// ---- nn-single-thread ------------------------------------------------------

TEST(NnSingleThread, FlagsPoolUseUnderSrcNnOnly) {
    const char* text =
        "#include \"util/thread_pool.hpp\"\n"
        "void f(util::ThreadPool& p) { util::global_pool().parallel_for(4, 1, g); }\n"
        "// parallel_chunks in a comment is fine\n";
    EXPECT_EQ(count_rule(lint("src/nn/gemm.cpp", text), "nn-single-thread"), 4u);
    EXPECT_EQ(count_rule(lint("src/core/trainer.cpp", text), "nn-single-thread"), 0u);
}

// ---- determinism -----------------------------------------------------------

TEST(Determinism, FlagsLibcRandAndTimeInScope) {
    const auto vs = lint("src/nn/sampler_helpers.cpp",
                         "int f() { srand(1); return rand(); }\n"
                         "long g() { return std::time(nullptr); }\n"
                         "long h() { return ::time(nullptr); }\n");
    EXPECT_EQ(count_rule(vs, "determinism"), 4u);
}

TEST(Determinism, MemberCallsAndPrefixedNamesAreClean) {
    const auto vs = lint("src/nn/sampler_helpers.cpp",
                         "long f(Clock& c) { return c.time(0); }\n"
                         "long g(Clock* c) { return c->clock(); }\n"
                         "long h() { return stage_times(1); }\n"
                         "long i() { return Wall::time(); }\n");
    EXPECT_TRUE(vs.empty());
}

TEST(Determinism, FlagsUnorderedIterationButNotLookup) {
    const auto vs = lint("src/core/sampler.cpp",
                         "std::unordered_map<int, int> counts;\n"
                         "int f(int k) { return counts[k]; }\n"
                         "int g() { int t = 0; for (const auto& kv : counts) t += kv.second; return t; }\n"
                         "auto h() { return counts.begin(); }\n");
    EXPECT_EQ(count_rule(vs, "determinism"), 2u);
    EXPECT_EQ(vs[0].line, 3u);
    EXPECT_EQ(vs[1].line, 4u);
}

TEST(Determinism, CoversColumnarAndSketchPaths) {
    // The streaming substrate promises reproducible files and mergeable
    // sketches, so src/trace/columnar.* and src/util/sketch.* sit inside the
    // determinism scope alongside the nn and sampler paths.
    const auto vs_col = lint("src/trace/columnar.cpp",
                             "long f() { return std::time(nullptr); }\n");
    EXPECT_EQ(count_rule(vs_col, "determinism"), 1u);
    const auto vs_sk = lint("src/util/sketch.cpp",
                            "std::unordered_map<int, int> m;\n"
                            "int g() { int t = 0; for (auto& kv : m) t += kv.second; return t; }\n");
    EXPECT_EQ(count_rule(vs_sk, "determinism"), 1u);
}

TEST(Determinism, OutsideDeterministicPathsIsUnscoped) {
    const auto vs = lint("src/serve/server.cpp",
                         "long f() { return std::time(nullptr); }\n"
                         "std::unordered_map<int, int> m;\n"
                         "int g() { int t = 0; for (auto& kv : m) t += kv.second; return t; }\n");
    EXPECT_EQ(count_rule(vs, "determinism"), 0u);
}

// ---- raw-stderr ------------------------------------------------------------

TEST(RawStderr, FlagsStderrWritesOutsideLogCpp) {
    const auto vs = lint("src/core/trainer.cpp",
                         "void f() { fprintf(stderr, \"x\\n\"); }\n"
                         "void g() { std::fprintf(stderr, \"x\\n\"); }\n"
                         "void h() { std::cerr << \"x\"; }\n"
                         "void i() { fputs(\"x\", stderr); }\n");
    EXPECT_EQ(count_rule(vs, "raw-stderr"), 4u);
}

TEST(RawStderr, StdoutAndLogCppAreClean) {
    EXPECT_TRUE(lint("src/core/trainer.cpp",
                     "void f() { std::printf(\"x\\n\"); }\n"
                     "void g() { fprintf(stdout, \"x\\n\"); }\n")
                    .empty());
    EXPECT_TRUE(lint("src/util/log.cpp",
                     "void f() { std::fwrite(\"x\", 1, 1, stderr); }\n")
                    .empty());
}

// ---- avx2-flags (CMake) ----------------------------------------------------

TEST(Avx2Flags, FlagsDirectCompileOptions) {
    const auto vs = lint("CMakeLists.txt",
                         "target_compile_options(cpt_nn PRIVATE -mavx2)\n");
    EXPECT_EQ(count_rule(vs, "avx2-flags"), 1u);
}

TEST(Avx2Flags, ProbeAndNamedVariableAreAllowed) {
    const auto vs = lint("CMakeLists.txt",
                         "check_cxx_compiler_flag(\"-mavx2\" HAS_AVX2)\n"
                         "set(CPT_AVX2_TU_OPTIONS \"-mavx2;-mfma\")\n");
    EXPECT_TRUE(vs.empty());
}

TEST(Avx2Flags, MisnamedVariableIsFlagged) {
    const auto vs = lint("CMakeLists.txt", "set(FAST_FLAGS \"-mavx2\")\n");
    EXPECT_EQ(count_rule(vs, "avx2-flags"), 1u);
}

TEST(Avx2Flags, SourceFilePropertiesRequireAvx2Sources) {
    EXPECT_TRUE(lint("src/nn/CMakeLists.txt",
                     "set_source_files_properties(gemm_avx2.cpp kernels_avx2.cpp\n"
                     "  PROPERTIES COMPILE_OPTIONS \"${CPT_AVX2_TU_OPTIONS}\")\n")
                    .empty());
    const auto vs = lint("src/nn/CMakeLists.txt",
                         "set_source_files_properties(gemm.cpp PROPERTIES\n"
                         "  COMPILE_OPTIONS \"${CPT_AVX2_TU_OPTIONS}\")\n");
    EXPECT_EQ(count_rule(vs, "avx2-flags"), 1u);
}

TEST(Avx2Flags, Avx512FlagsReachOnlyAvx512Sources) {
    EXPECT_TRUE(lint("src/nn/CMakeLists.txt",
                     "check_cxx_compiler_flag(\"-mavx512f\" HAS_AVX512F)\n"
                     "set(CPT_AVX512_TU_OPTIONS \"-mavx2;-mfma;-mavx512f\")\n"
                     "set_source_files_properties(gemm_avx512.cpp\n"
                     "  PROPERTIES COMPILE_OPTIONS \"${CPT_AVX512_TU_OPTIONS}\")\n")
                    .empty());
    const auto vs = lint("src/nn/CMakeLists.txt",
                         "set(WIDE \"-mavx512f\")\n"
                         "target_compile_options(cpt_nn PRIVATE -mavx512f)\n"
                         "set_source_files_properties(gemm.cpp PROPERTIES\n"
                         "  COMPILE_OPTIONS \"${CPT_AVX512_TU_OPTIONS}\")\n");
    EXPECT_EQ(count_rule(vs, "avx2-flags"), 3u);
}

TEST(Avx2Flags, CMakeCommentsAreIgnored) {
    EXPECT_TRUE(lint("CMakeLists.txt",
                     "# target_compile_options(cpt_nn PRIVATE -mavx2)\n")
                    .empty());
}

// ---- suppression -----------------------------------------------------------

TEST(Suppression, SameLineAndPreviousLineAndWildcard) {
    EXPECT_TRUE(lint("src/serve/engine.cpp",
                     "std::mutex mu;  // cpt-sa-allow(sync-types)\n")
                    .empty());
    EXPECT_TRUE(lint("src/serve/engine.cpp",
                     "// cpt-sa-allow(sync-types)\nstd::mutex mu;\n")
                    .empty());
    EXPECT_TRUE(lint("src/serve/engine.cpp",
                     "std::mutex mu;  // cpt-sa-allow(*)\n")
                    .empty());
    EXPECT_TRUE(lint("CMakeLists.txt",
                     "# cpt-sa-allow(avx2-flags)\n"
                     "target_compile_options(t PRIVATE -mavx2)\n")
                    .empty());
}

TEST(Suppression, WrongRuleDoesNotSuppress) {
    const auto vs = lint("src/serve/engine.cpp",
                         "std::mutex mu;  // cpt-sa-allow(raw-stderr)\n");
    EXPECT_EQ(count_rule(vs, "sync-types"), 1u);
}

// ---- report format ---------------------------------------------------------

TEST(Format, FileLineRuleAndSuppressionHint) {
    const auto vs = lint("src/serve/engine.cpp", "std::mutex mu;\n");
    ASSERT_EQ(vs.size(), 1u);
    const std::string line = cpt::sa::format(vs.front());
    EXPECT_NE(line.find("src/serve/engine.cpp:1: [sync-types]"), std::string::npos);
    EXPECT_NE(line.find("(suppress: cpt-sa-allow(sync-types))"), std::string::npos);
}

// ---- fixture tree ----------------------------------------------------------

TEST(FixtureTree, EveryRuleFiresWhereSeeded) {
    std::string error;
    const LintResult result = cpt::sa::lint_paths(
        std::string(CPT_SA_FIXTURES) + "/bad_tree", {"src", "CMakeLists.txt"}, &error);
    ASSERT_TRUE(error.empty()) << error;
    const auto& vs = result.violations;

    EXPECT_TRUE(has(vs, "src/serve/rogue_mutex.cpp", "sync-types"));
    EXPECT_TRUE(has(vs, "src/nn/rogue_simd.cpp", "avx2-isolation"));
    EXPECT_TRUE(has(vs, "src/core/sampler.cpp", "determinism"));
    EXPECT_TRUE(has(vs, "src/mcn/rogue_stderr.cpp", "raw-stderr"));
    EXPECT_TRUE(has(vs, "CMakeLists.txt", "avx2-flags"));

    // The seeded counts, exactly: a drift here means a rule got looser or
    // noisier without the fixtures being updated alongside it.
    EXPECT_EQ(count_rule(vs, "sync-types"), 5u);       // header ×2 + mutex + lock_guard/mutex pair
    EXPECT_EQ(count_rule(vs, "avx2-isolation"), 2u);   // immintrin + _avx2 header
    EXPECT_EQ(count_rule(vs, "determinism"), 6u);      // srand,time,std::time,rand + 2 iterations
    EXPECT_EQ(count_rule(vs, "raw-stderr"), 2u);       // fprintf + cerr
    EXPECT_EQ(count_rule(vs, "avx2-flags"), 3u);       // tco + misnamed set + mixed ssfp

    // The suppressed twin must be absent entirely.
    for (const Violation& v : vs) {
        EXPECT_NE(v.file, "src/gan/suppressed_ok.cpp") << cpt::sa::format(v);
    }
}

// ---- the real tree ---------------------------------------------------------

TEST(RealTree, SrcAndRootCMakeLintClean) {
    std::string error;
    const LintResult result =
        cpt::sa::lint_paths(CPT_REPO_ROOT, {"src", "CMakeLists.txt"}, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_GT(result.files_scanned, 50u);
    for (const Violation& v : result.violations) {
        ADD_FAILURE() << cpt::sa::format(v);
    }
}

}  // namespace
