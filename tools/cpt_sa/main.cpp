// cpt_sa CLI — see sa_lint.hpp for the rule set.
//
//   cpt_sa [--root=DIR] PATH...
//
// PATHs are files or directories, resolved against --root (default: the
// current directory). Rule scoping (e.g. "only src/util/sync.hpp may name
// std::mutex") keys off paths relative to --root, so run it from the repo
// root or pass --root explicitly. Exit: 0 clean, 1 violations, 2 usage/I-O
// error.
#include <cstdio>
#include <string>
#include <vector>

#include "sa_lint.hpp"

namespace {

void usage(std::FILE* to) {
    std::fprintf(to,
                 "usage: cpt_sa [--root=DIR] PATH...\n"
                 "Project-invariant linter: sync-types, avx2-isolation, nn-single-thread,\n"
                 "avx2-flags, determinism, raw-stderr. Suppress one finding with a\n"
                 "'cpt-sa-allow(<rule>)' comment on the flagged line or the line above.\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::string root;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        }
        if (arg.rfind("--root=", 0) == 0) {
            root = arg.substr(7);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "cpt_sa: unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        usage(stderr);
        return 2;
    }

    std::string error;
    const cpt::sa::LintResult result = cpt::sa::lint_paths(root, paths, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    for (const cpt::sa::Violation& v : result.violations) {
        std::printf("%s\n", cpt::sa::format(v).c_str());
    }
    std::printf("cpt_sa: %zu file(s) scanned, %zu violation(s)\n", result.files_scanned,
                result.violations.size());
    return result.violations.empty() ? 0 : 1;
}
