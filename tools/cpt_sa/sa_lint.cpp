#include "sa_lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace cpt::sa {

namespace fs = std::filesystem;

namespace {

bool is_ident(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// One loaded file: raw text, a "code view" with comments and string/char
// literals blanked to spaces (newlines preserved so offsets and line numbers
// stay aligned), and a line-offset index.
struct Source {
    std::string raw;
    std::string code;
    std::vector<std::size_t> line_off;  // line_off[i] = offset where line i+1 starts

    std::size_t line_of(std::size_t off) const {
        const auto it = std::upper_bound(line_off.begin(), line_off.end(), off);
        return static_cast<std::size_t>(it - line_off.begin());
    }

    std::string raw_line(std::size_t line) const {  // 1-based; "" if out of range
        if (line == 0 || line > line_off.size()) return {};
        const std::size_t begin = line_off[line - 1];
        std::size_t end = raw.find('\n', begin);
        if (end == std::string::npos) end = raw.size();
        return raw.substr(begin, end - begin);
    }
};

// Blanks // and /* */ comments plus string/char literals (including raw
// strings — the delimiter is only honored when the prefix before the quote is
// exactly R/u8R/uR/UR/LR, so an identifier like REGISTER" is an ordinary
// string). Sequential single pass: each construct is consumed from the state
// it starts in, never via context-free pattern matching.
std::string blank_cpp(const std::string& s) {
    std::string out = s;
    const std::size_t n = s.size();
    const auto space = [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e && k < n; ++k) {
            if (out[k] != '\n') out[k] = ' ';
        }
    };
    std::size_t i = 0;
    while (i < n) {
        const char c = s[i];
        if (c == '/' && i + 1 < n && s[i + 1] == '/') {
            std::size_t j = i;
            while (j < n && s[j] != '\n') ++j;
            space(i, j);
            i = j;
        } else if (c == '/' && i + 1 < n && s[i + 1] == '*') {
            std::size_t j = s.find("*/", i + 2);
            j = (j == std::string::npos) ? n : j + 2;
            space(i, j);
            i = j;
        } else if (c == '"') {
            std::size_t ps = i;
            while (ps > 0 && is_ident(s[ps - 1])) --ps;
            const std::string prefix = s.substr(ps, i - ps);
            const bool raw_lit = prefix == "R" || prefix == "u8R" || prefix == "uR" ||
                                 prefix == "UR" || prefix == "LR";
            if (raw_lit) {
                std::string delim;
                std::size_t p = i + 1;
                while (p < n && s[p] != '(') delim += s[p++];
                const std::string close = ")" + delim + "\"";
                std::size_t j = s.find(close, p);
                j = (j == std::string::npos) ? n : j + close.size();
                space(i, j);
                i = j;
            } else {
                std::size_t j = i + 1;
                while (j < n && s[j] != '"') {
                    if (s[j] == '\\' && j + 1 < n) ++j;
                    ++j;
                }
                if (j < n) ++j;
                space(i, j);
                i = j;
            }
        } else if (c == '\'') {
            // A quote preceded by an alnum is a digit separator (1'000), not a
            // character literal.
            if (i > 0 && std::isalnum(static_cast<unsigned char>(s[i - 1])) != 0) {
                ++i;
                continue;
            }
            std::size_t j = i + 1;
            while (j < n && s[j] != '\'') {
                if (s[j] == '\\' && j + 1 < n) ++j;
                ++j;
            }
            if (j < n) ++j;
            space(i, j);
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

// CMake: blank everything from an unquoted '#' to end of line.
std::string blank_cmake(const std::string& s) {
    std::string out = s;
    bool in_quote = false;
    bool in_comment = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '\n') {
            in_comment = false;
            in_quote = false;  // CMake quotes can span lines, but not in this repo
            continue;
        }
        if (in_comment) {
            out[i] = ' ';
            continue;
        }
        if (c == '"' && (i == 0 || s[i - 1] != '\\')) in_quote = !in_quote;
        if (c == '#' && !in_quote) {
            in_comment = true;
            out[i] = ' ';
        }
    }
    return out;
}

Source load(const std::string& text, bool cmake) {
    Source src;
    src.raw = text;
    src.code = cmake ? blank_cmake(text) : blank_cpp(text);
    src.line_off.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') src.line_off.push_back(i + 1);
    }
    return src;
}

// `cpt-sa-allow(rule)` or `cpt-sa-allow(*)` on the flagged line or the line
// above suppresses the finding. Checked against raw text so the marker lives
// in a comment.
bool suppressed(const Source& src, std::size_t line, const std::string& rule) {
    const std::string exact = "cpt-sa-allow(" + rule + ")";
    const std::string any = "cpt-sa-allow(*)";
    for (const std::size_t ln : {line, line > 1 ? line - 1 : line}) {
        const std::string text = src.raw_line(ln);
        if (text.find(exact) != std::string::npos || text.find(any) != std::string::npos) {
            return true;
        }
    }
    return false;
}

void emit(const Source& src, const std::string& rel, std::size_t off, std::string rule,
          std::string message, std::vector<Violation>& out) {
    const std::size_t line = src.line_of(off);
    if (suppressed(src, line, rule)) return;
    out.push_back({rel, line, std::move(rule), std::move(message)});
}

// ---- shared token helpers --------------------------------------------------

// Finds the next whole-identifier occurrence of `word` in `code` at or after
// `from`; npos if none.
std::size_t find_token(const std::string& code, const std::string& word, std::size_t from) {
    std::size_t pos = from;
    while ((pos = code.find(word, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident(code[pos - 1]);
        const std::size_t end = pos + word.size();
        const bool right_ok = end >= code.size() || !is_ident(code[end]);
        if (left_ok && right_ok) return pos;
        pos = end;
    }
    return std::string::npos;
}

std::size_t skip_ws(const std::string& code, std::size_t pos) {
    while (pos < code.size() && is_space(code[pos])) ++pos;
    return pos;
}

std::size_t skip_ws_back(const std::string& code, std::size_t pos) {
    // Returns the index of the last non-space char at or before pos, or npos.
    while (pos != std::string::npos && pos < code.size() && is_space(code[pos])) {
        if (pos == 0) return std::string::npos;
        --pos;
    }
    return pos;
}

std::string ident_at(const std::string& code, std::size_t pos) {
    std::size_t end = pos;
    while (end < code.size() && is_ident(code[end])) ++end;
    return code.substr(pos, end - pos);
}

std::string ident_ending_at(const std::string& code, std::size_t last) {
    // Identifier whose final character sits at index `last`.
    if (last == std::string::npos || !is_ident(code[last])) return {};
    std::size_t begin = last;
    while (begin > 0 && is_ident(code[begin - 1])) --begin;
    return code.substr(begin, last - begin + 1);
}

// ---- includes --------------------------------------------------------------

struct Include {
    std::size_t off = 0;       // offset of the '#'
    std::string target;        // between the delimiters
    bool angled = false;
};

std::vector<Include> find_includes(const Source& src) {
    std::vector<Include> out;
    // Horizontal-only skip: crossing a newline here would make an empty line
    // "see" the next line's directive and double-report it.
    const auto skip_hws = [](const std::string& s, std::size_t p) {
        while (p < s.size() && (s[p] == ' ' || s[p] == '\t')) ++p;
        return p;
    };
    for (std::size_t li = 0; li < src.line_off.size(); ++li) {
        std::size_t p = skip_hws(src.raw, src.line_off[li]);
        if (p >= src.raw.size() || src.raw[p] != '#') continue;
        // Blanked in the code view ⇒ the directive is inside a block comment.
        if (src.code[p] != '#') continue;
        const std::size_t hash = p;
        p = skip_hws(src.raw, p + 1);
        if (src.raw.compare(p, 7, "include") != 0) continue;
        p = skip_hws(src.raw, p + 7);
        if (p >= src.raw.size()) continue;
        const char open = src.raw[p];
        if (open != '<' && open != '"') continue;
        const char close = open == '<' ? '>' : '"';
        const std::size_t end = src.raw.find(close, p + 1);
        if (end == std::string::npos) continue;
        out.push_back({hash, src.raw.substr(p + 1, end - p - 1), open == '<'});
    }
    return out;
}

std::string include_basename(const std::string& target) {
    const std::size_t slash = target.find_last_of('/');
    return slash == std::string::npos ? target : target.substr(slash + 1);
}

// ---- rule: sync-types ------------------------------------------------------

constexpr std::array<const char*, 12> kStdSyncNames = {
    "mutex",          "timed_mutex",        "recursive_mutex",
    "recursive_timed_mutex",                "shared_mutex",
    "shared_timed_mutex",                   "condition_variable",
    "condition_variable_any",               "lock_guard",
    "unique_lock",    "scoped_lock",        "shared_lock",
};

constexpr std::array<const char*, 3> kSyncHeaders = {"mutex", "condition_variable",
                                                     "shared_mutex"};

void rule_sync_types(const std::string& rel, const Source& src,
                     std::vector<Violation>& out) {
    if (rel == "src/util/sync.hpp") return;
    for (const Include& inc : find_includes(src)) {
        if (!inc.angled) continue;
        for (const char* hdr : kSyncHeaders) {
            if (inc.target == hdr) {
                emit(src, rel, inc.off, "sync-types",
                     "#include <" + inc.target +
                         "> outside src/util/sync.hpp; use util::Mutex / util::CondVar / "
                         "util::LockGuard from \"util/sync.hpp\" so the lock carries "
                         "thread-safety capability annotations",
                     out);
            }
        }
    }
    std::size_t pos = 0;
    while ((pos = find_token(src.code, "std", pos)) != std::string::npos) {
        std::size_t p = skip_ws(src.code, pos + 3);
        if (src.code.compare(p, 2, "::") != 0) {
            pos += 3;
            continue;
        }
        p = skip_ws(src.code, p + 2);
        const std::string name = ident_at(src.code, p);
        for (const char* sync : kStdSyncNames) {
            if (name == sync) {
                emit(src, rel, pos, "sync-types",
                     "std::" + name +
                         " outside src/util/sync.hpp; use util::Mutex / util::CondVar / "
                         "util::LockGuard so clang thread-safety analysis sees the lock",
                     out);
                break;
            }
        }
        pos += 3;
    }
}

// ---- rule: avx2-isolation --------------------------------------------------

void rule_avx2_isolation(const std::string& rel, const Source& src,
                         std::vector<Violation>& out) {
    const std::string base = fs::path(rel).filename().string();
    if (base.find("_avx2") != std::string::npos) return;
    for (const Include& inc : find_includes(src)) {
        const std::string name = include_basename(inc.target);
        const bool intrin = inc.angled && (name == "immintrin.h" || name == "x86intrin.h");
        const bool avx2_hdr = name.find("_avx2") != std::string::npos;
        if (intrin || avx2_hdr) {
            emit(src, rel, inc.off, "avx2-isolation",
                 "include of " + inc.target +
                     " in a non-_avx2 translation unit; AVX2 intrinsics may only appear "
                     "in *_avx2.cpp files so the runtime dispatcher alone selects the "
                     "SIMD tier",
                 out);
        }
    }
}

// ---- rule: nn-single-thread ------------------------------------------------

constexpr std::array<const char*, 4> kPoolNames = {"ThreadPool", "global_pool", "parallel_for",
                                                   "parallel_chunks"};

void rule_nn_single_thread(const std::string& rel, const Source& src,
                           std::vector<Violation>& out) {
    if (!rel.starts_with("src/nn/")) return;
    const std::string why =
        "; every nn kernel runs on its caller's thread — parallel work belongs to the "
        "trainer shards, hub slices, sampler lanes and serve engines";
    for (const Include& inc : find_includes(src)) {
        if (include_basename(inc.target) == "thread_pool.hpp") {
            emit(src, rel, inc.off, "nn-single-thread",
                 "include of " + inc.target + " under src/nn" + why, out);
        }
    }
    for (const char* name : kPoolNames) {
        std::size_t pos = 0;
        while ((pos = find_token(src.code, name, pos)) != std::string::npos) {
            emit(src, rel, pos, "nn-single-thread",
                 std::string(name) + " under src/nn" + why, out);
            pos += std::string(name).size();
        }
    }
}

// ---- rule: determinism -----------------------------------------------------

bool in_deterministic_path(const std::string& rel) {
    return rel.starts_with("src/nn/") || rel.starts_with("src/core/sampler.") ||
           rel.starts_with("src/trace/columnar.") || rel.starts_with("src/util/sketch.");
}

constexpr std::array<const char*, 8> kNondetCalls = {
    "rand", "srand", "rand_r", "random", "drand48", "time", "clock", "gettimeofday",
};

void rule_determinism(const std::string& rel, const Source& src,
                      std::vector<Violation>& out) {
    if (!in_deterministic_path(rel)) return;
    const std::string& code = src.code;

    // Banned libc calls: whole identifier followed by '(', excluding member
    // calls (obj.time(...), ptr->clock(...)) and foreign qualifications
    // (Clock::time(...)). std::time / ::time still count — those are libc.
    for (const char* fn : kNondetCalls) {
        std::size_t pos = 0;
        while ((pos = find_token(code, fn, pos)) != std::string::npos) {
            const std::size_t at = pos;
            pos += std::string(fn).size();
            if (skip_ws(code, pos) >= code.size() || code[skip_ws(code, pos)] != '(') {
                continue;
            }
            const std::size_t prev = skip_ws_back(code, at == 0 ? std::string::npos : at - 1);
            if (prev != std::string::npos) {
                const char pc = code[prev];
                if (pc == '.') continue;                       // member call
                if (pc == '>' && prev > 0 && code[prev - 1] == '-') continue;  // arrow
                if (pc == ':' && prev > 0 && code[prev - 1] == ':') {
                    // The qualifier must sit flush against the "::" —
                    // `return ::time(...)` has whitespace there, so `return`
                    // is not a qualifier and the global libc call is flagged.
                    const std::string qual =
                        prev >= 2 ? ident_ending_at(code, prev - 2) : std::string();
                    if (!qual.empty() && qual != "std") continue;  // Foo::time(...)
                }
            }
            emit(src, rel, at, "determinism",
                 std::string(fn) +
                     "() in a deterministic path; generation must be a pure function of "
                     "the seed — use the seeded util RNG, or take timestamps as inputs",
                 out);
        }
    }

    // Iterating a std::unordered_{map,set}: hash order is not seed-stable.
    // First collect names declared with an unordered type in this file...
    std::vector<std::string> names;
    for (const char* type : {"std::unordered_map", "std::unordered_set"}) {
        std::size_t pos = 0;
        while ((pos = code.find(type, pos)) != std::string::npos) {
            std::size_t p = pos + std::string(type).size();
            pos = p;
            if (p < code.size() && is_ident(code[p])) continue;  // e.g. unordered_multimap
            p = skip_ws(code, p);
            if (p >= code.size() || code[p] != '<') continue;
            int depth = 1;
            ++p;
            while (p < code.size() && depth > 0) {
                const char c = code[p];
                if (c == '<') ++depth;
                if (c == '>' && code[p - 1] != '-') --depth;  // skip ->
                ++p;
            }
            p = skip_ws(code, p);
            while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
                p = skip_ws(code, p + 1);
            }
            const std::string name = ident_at(code, p);
            if (!name.empty() && name != "const") names.push_back(name);
        }
    }

    for (const std::string& name : names) {
        // `for (... : name)` — range-for directly over the container.
        std::size_t pos = 0;
        while ((pos = find_token(code, "for", pos)) != std::string::npos) {
            const std::size_t kw = pos;
            pos += 3;
            std::size_t p = skip_ws(code, pos);
            if (p >= code.size() || code[p] != '(') continue;
            int depth = 1;
            std::size_t colon = std::string::npos;
            std::size_t q = p + 1;
            while (q < code.size() && depth > 0) {
                const char c = code[q];
                if (c == '(') ++depth;
                if (c == ')') --depth;
                if (c == ':' && depth == 1 && code[q - 1] != ':' &&
                    (q + 1 >= code.size() || code[q + 1] != ':') &&
                    colon == std::string::npos) {
                    colon = q;
                }
                ++q;
            }
            if (colon == std::string::npos) continue;
            std::size_t r = skip_ws(code, colon + 1);
            if (ident_at(code, r) != name) continue;
            r = skip_ws(code, r + name.size());
            if (r < code.size() && code[r] == ')') {
                emit(src, rel, kw, "determinism",
                     "range-for over std::unordered container '" + name +
                         "'; iteration order depends on hashing, not the seed — iterate a "
                         "side vector in insertion order (see src/nn/graph_lint.cpp)",
                     out);
            }
        }
        // `name.begin()` and friends — explicit iterator walks.
        pos = 0;
        while ((pos = find_token(code, name, pos)) != std::string::npos) {
            const std::size_t at = pos;
            pos += name.size();
            std::size_t p = skip_ws(code, pos);
            if (p >= code.size() || code[p] != '.') continue;
            const std::string member = ident_at(code, skip_ws(code, p + 1));
            if (member == "begin" || member == "cbegin" || member == "rbegin" ||
                member == "crbegin") {
                emit(src, rel, at, "determinism",
                     "iterator walk over std::unordered container '" + name +
                         "'; iteration order depends on hashing, not the seed — iterate a "
                         "side vector in insertion order (see src/nn/graph_lint.cpp)",
                     out);
            }
        }
    }
}

// ---- rule: raw-stderr ------------------------------------------------------

void rule_raw_stderr(const std::string& rel, const Source& src,
                     std::vector<Violation>& out) {
    if (!rel.starts_with("src/") || rel == "src/util/log.cpp") return;
    const std::string& code = src.code;

    for (const char* fn : {"fprintf", "vfprintf", "fputs", "fputc", "fwrite"}) {
        std::size_t pos = 0;
        while ((pos = find_token(code, fn, pos)) != std::string::npos) {
            const std::size_t at = pos;
            pos += std::string(fn).size();
            std::size_t p = skip_ws(code, pos);
            if (p >= code.size() || code[p] != '(') continue;
            // Scan the argument list (to the matching paren) for a bare
            // `stderr` token.
            int depth = 1;
            std::size_t q = p + 1;
            const std::size_t args_begin = q;
            while (q < code.size() && depth > 0) {
                if (code[q] == '(') ++depth;
                if (code[q] == ')') --depth;
                ++q;
            }
            const std::string args = code.substr(args_begin, q - args_begin);
            if (find_token(args, "stderr", 0) != std::string::npos) {
                emit(src, rel, at, "raw-stderr",
                     std::string(fn) +
                         "(… stderr …) outside src/util/log.cpp; route diagnostics "
                         "through util::warn/util::warnf/util::info so concurrent lines "
                         "never shear and keep the [cpt] prefix",
                     out);
            }
        }
    }

    for (const char* stream : {"cerr", "clog"}) {
        std::size_t pos = 0;
        while ((pos = find_token(code, "std", pos)) != std::string::npos) {
            const std::size_t at = pos;
            pos += 3;
            std::size_t p = skip_ws(code, pos);
            if (code.compare(p, 2, "::") != 0) continue;
            p = skip_ws(code, p + 2);
            if (ident_at(code, p) == stream) {
                emit(src, rel, at, "raw-stderr",
                     std::string("std::") + stream +
                         " outside src/util/log.cpp; route diagnostics through "
                         "util::warn/util::warnf/util::info",
                     out);
            }
        }
    }
}

// ---- rule: avx2-flags (CMake) ----------------------------------------------

std::vector<std::string> cmake_args(const std::string& args) {
    std::vector<std::string> out;
    std::string cur;
    bool in_quote = false;
    for (const char c : args) {
        if (c == '"') {
            in_quote = !in_quote;
            continue;
        }
        if (!in_quote && is_space(c)) {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

void rule_avx2_flags(const std::string& rel, const Source& src,
                     std::vector<Violation>& out) {
    const std::string& code = src.code;
    std::size_t pos = 0;
    while (pos < code.size()) {
        // Next command invocation: identifier then '('.
        while (pos < code.size() && !is_ident(code[pos])) ++pos;
        if (pos >= code.size()) break;
        const std::size_t at = pos;
        const std::string raw_name = ident_at(code, pos);
        pos += raw_name.size();
        std::size_t p = skip_ws(code, pos);
        if (p >= code.size() || code[p] != '(') continue;
        int depth = 1;
        std::size_t q = p + 1;
        const std::size_t args_begin = q;
        bool in_quote = false;
        while (q < code.size() && depth > 0) {
            const char c = code[q];
            if (c == '"') in_quote = !in_quote;
            if (!in_quote && c == '(') ++depth;
            if (!in_quote && c == ')') --depth;
            ++q;
        }
        const std::string args = code.substr(args_begin, q - args_begin - 1);
        pos = q;

        std::string name = raw_name;
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });

        const bool has_flag = args.find("-mavx2") != std::string::npos ||
                              args.find("-mfma") != std::string::npos ||
                              args.find("-mf16c") != std::string::npos;
        const bool mentions_avx2 = args.find("AVX2") != std::string::npos ||
                                   args.find("avx2") != std::string::npos;

        if (name == "check_cxx_compiler_flag") continue;  // capability probe
        if (name == "set") {
            // set(CPT_AVX2_TU_OPTIONS ...) — the named holding variable.
            const std::vector<std::string> toks = cmake_args(args);
            if (has_flag &&
                (toks.empty() || toks.front().find("AVX2") == std::string::npos)) {
                emit(src, rel, at, "avx2-flags",
                     "set() stores -mavx2/-mfma/-mf16c in a variable not named *AVX2*; "
                     "keep the flags in CPT_AVX2_TU_OPTIONS so only *_avx2.cpp sources "
                     "can receive them",
                     out);
            }
            continue;
        }
        if (name == "set_source_files_properties") {
            if (!has_flag && !mentions_avx2) continue;
            const std::vector<std::string> toks = cmake_args(args);
            bool all_avx2 = true;
            for (const std::string& t : toks) {
                if (t == "PROPERTIES") break;
                if (!t.ends_with("_avx2.cpp")) all_avx2 = false;
            }
            if (!all_avx2) {
                emit(src, rel, at, "avx2-flags",
                     "set_source_files_properties applies AVX2 options to a source not "
                     "named *_avx2.cpp; AVX2 codegen is confined to *_avx2.cpp TUs so "
                     "the baseline binary never executes AVX2 instructions",
                     out);
            }
            continue;
        }
        if (has_flag) {
            emit(src, rel, at, "avx2-flags",
                 raw_name +
                     "() passes -mavx2/-mfma/-mf16c directly; AVX2 flags may only reach "
                     "*_avx2.cpp sources via set_source_files_properties (or the "
                     "CPT_AVX2_TU_OPTIONS variable / check_cxx_compiler_flag probes)",
                 out);
        }
    }
}

bool is_cpp_file(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
           ext == ".h" || ext == ".hh" || ext == ".inl" || ext == ".ipp";
}

bool is_cmake_file(const fs::path& p) {
    return p.filename() == "CMakeLists.txt" || p.extension() == ".cmake";
}

}  // namespace

void lint_text(const std::string& rel_path, const std::string& text,
               std::vector<Violation>& out) {
    const fs::path rel(rel_path);
    const std::size_t before = out.size();
    if (is_cmake_file(rel)) {
        const Source src = load(text, /*cmake=*/true);
        rule_avx2_flags(rel_path, src, out);
    } else if (is_cpp_file(rel)) {
        const Source src = load(text, /*cmake=*/false);
        rule_sync_types(rel_path, src, out);
        rule_avx2_isolation(rel_path, src, out);
        rule_nn_single_thread(rel_path, src, out);
        rule_determinism(rel_path, src, out);
        rule_raw_stderr(rel_path, src, out);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
              [](const Violation& a, const Violation& b) {
                  return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
}

LintResult lint_paths(const std::string& root, const std::vector<std::string>& paths,
                      std::string* error) {
    LintResult result;
    std::vector<fs::path> files;
    std::error_code ec;
    const fs::path root_path = root.empty() ? fs::current_path() : fs::path(root);

    for (const std::string& raw : paths) {
        fs::path p(raw);
        if (p.is_relative()) p = root_path / p;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end; it != end;
                 it.increment(ec)) {
                if (ec) break;
                const fs::path& entry = it->path();
                const std::string name = entry.filename().string();
                if (it->is_directory() && !name.empty() && name.front() == '.') {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() && (is_cpp_file(entry) || is_cmake_file(entry))) {
                    files.push_back(entry);
                }
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            if (error) *error = "cpt_sa: no such file or directory: " + raw;
            return result;
        }
    }

    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    for (const fs::path& file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            if (error) *error = "cpt_sa: cannot read " + file.string();
            return result;
        }
        std::ostringstream buf;
        buf << in.rdbuf();

        fs::path rel = fs::proximate(file, root_path, ec);
        if (ec || rel.empty() || *rel.begin() == "..") rel = file;
        lint_text(rel.generic_string(), buf.str(), result.violations);
        ++result.files_scanned;
    }

    std::sort(result.violations.begin(), result.violations.end(),
              [](const Violation& a, const Violation& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
    return result;
}

std::string format(const Violation& v) {
    std::ostringstream out;
    out << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message
        << " (suppress: cpt-sa-allow(" << v.rule << "))";
    return out.str();
}

}  // namespace cpt::sa
