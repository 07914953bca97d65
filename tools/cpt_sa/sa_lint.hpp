// cpt_sa — project-invariant source linter (DESIGN.md §13).
//
// Enforces repository contracts the compiler cannot express:
//
//   sync-types      only src/util/sync.hpp may name std::mutex /
//                   std::condition_variable / std::lock_guard /
//                   std::unique_lock (or include their headers); everything
//                   else must use the capability-annotated util::Mutex /
//                   util::CondVar / util::LockGuard so no lock escapes the
//                   clang thread-safety analysis.
//   avx2-isolation  only *_avx2.cpp / *_avx512.cpp translation units (and
//                   *_avx2* / *_avx512* headers included from them) may
//                   include <immintrin.h> or such a header — pins the
//                   "runtime dispatcher alone decides the tier" contract.
//   nn-single-thread  files under src/nn/ may not include
//                   util/thread_pool.hpp or name ThreadPool / global_pool /
//                   parallel_for / parallel_chunks: every nn kernel runs on
//                   its caller's thread, and parallelism lives one level up
//                   (trainer shards, hub slices, sampler lanes, serve
//                   engines).
//   avx2-flags      in CMake files, -mavx2 / -mavx512* / -mfma / -mf16c may
//                   only appear in compiler-capability probes
//                   (check_cxx_compiler_flag), AVX2- or AVX512-named option
//                   variables, or set_source_files_properties calls whose
//                   sources are all *_avx2.cpp / *_avx512.cpp — no target- or
//                   directory-wide ISA flags.
//   determinism     deterministic paths (src/nn/**, src/core/sampler.*,
//                   src/trace/columnar.*, src/util/sketch.*) must
//                   not call rand()/srand()/time()/clock() or iterate
//                   std::unordered_{map,set} (hash order is not a function
//                   of the seed, so iteration breaks byte-identical
//                   generation). Declaring/looking up unordered containers
//                   is fine; only iteration order is nondeterministic.
//   raw-stderr      no fprintf(stderr, ...) / std::cerr outside
//                   src/util/log.cpp — diagnostics go through util::warn /
//                   util::warnf / util::info so concurrent lines never shear
//                   and the "[cpt]" prefix stays greppable.
//
// Suppression: append `// cpt-sa-allow(<rule>)` (or `# cpt-sa-allow(<rule>)`
// in CMake) on the offending line or the line above it; `cpt-sa-allow(*)`
// suppresses every rule on that line. Each suppression is a reviewed,
// greppable exception.
//
// The analysis is token-level over comment- and literal-stripped text — a
// deliberate "AST-lite" design so the tool builds with no compiler
// dependencies and runs in milliseconds in the `sa` stage of
// scripts/check.sh.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cpt::sa {

struct Violation {
    std::string file;  // project-relative path (forward slashes)
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

struct LintResult {
    std::vector<Violation> violations;
    std::size_t files_scanned = 0;
};

// Lints one file given its project-relative path (forward slashes; rule
// scoping keys off this) and contents. Appends violations to `out`.
void lint_text(const std::string& rel_path, const std::string& text,
               std::vector<Violation>& out);

// Walks `paths` (files or directories, absolute or relative to `root`),
// lints every C++ source/header and CMake file found, and returns all
// violations sorted by (file, line). On I/O failure returns a result and
// sets *error. Rule scoping uses paths relative to `root`.
LintResult lint_paths(const std::string& root, const std::vector<std::string>& paths,
                      std::string* error);

// "file:line: [rule] message (suppress: cpt-sa-allow(rule))"
std::string format(const Violation& v);

}  // namespace cpt::sa
