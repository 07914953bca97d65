// Plain-text rendering helpers used by bench binaries and examples to print
// paper-style tables and figures (CDF plots, histograms) on a terminal, plus
// the sized formatting the serve tier's JSON stats are built with.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace cpt::util {

// A simple column-aligned table with a header row.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void add_row(std::vector<std::string> row);
    // Renders with column padding and a separator under the header.
    std::string render() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

// Formats a double with fixed precision (no trailing-zero games; predictable
// widths for tables).
std::string fmt(double value, int precision = 2);
// Percentage with a trailing '%'.
std::string fmt_pct(double fraction, int precision = 2);

// printf-style append to `out` at whatever length the result needs (the
// size is measured first), so no fixed buffer can truncate it.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...);

// `s` escaped for use inside a JSON string literal: quote, backslash and
// control characters become escape sequences.
std::string json_escape(std::string_view s);

// Renders one or more named CDFs as an ASCII line plot. `width`/`height` are
// character-cell dimensions; x is sampled over the pooled data range
// (log-scaled when `log_x`).
std::string render_cdf_plot(const std::vector<std::pair<std::string, Ecdf>>& curves,
                            std::size_t width = 72, std::size_t height = 16,
                            bool log_x = true);

// Renders a histogram as horizontal bars.
std::string render_histogram(const Histogram& h, std::size_t width = 60);

}  // namespace cpt::util
