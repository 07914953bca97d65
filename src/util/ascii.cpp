#include "ascii.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace cpt::util {

void appendf(std::string& out, const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len > 0) {
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(len) + 1);  // vsnprintf writes the NUL
        std::vsnprintf(out.data() + at, static_cast<std::size_t>(len) + 1, fmt, again);
        out.pop_back();
    }
    va_end(again);
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    appendf(out, "\\u%04x", static_cast<unsigned>(c));
                } else {
                    out += c;
                }
        }
    }
    return out;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
    if (row.size() != header_.size()) {
        throw std::invalid_argument("TextTable::add_row: column count mismatch");
    }
    rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
    }
    std::ostringstream out;
    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size()) out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << '\n';
    };
    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << '\n';
    for (const auto& row : rows_) emit(row);
    return out.str();
}

std::string fmt(double value, int precision) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(precision);
    out << value;
    return out.str();
}

std::string fmt_pct(double fraction, int precision) { return fmt(fraction * 100.0, precision) + "%"; }

std::string render_cdf_plot(const std::vector<std::pair<std::string, Ecdf>>& curves,
                            std::size_t width, std::size_t height, bool log_x) {
    if (curves.empty() || width < 8 || height < 4) return "(empty plot)\n";
    double lo = 0.0;
    double hi = 1.0;
    bool have_range = false;
    for (const auto& [name, cdf] : curves) {
        if (cdf.empty()) continue;
        const auto& xs = cdf.sorted_samples();
        if (!have_range) {
            lo = xs.front();
            hi = xs.back();
            have_range = true;
        } else {
            lo = std::min(lo, xs.front());
            hi = std::max(hi, xs.back());
        }
    }
    if (!have_range) return "(all curves empty)\n";
    auto tx = [&](double x) { return log_x ? std::log10(x + 1.0) : x; };
    const double tlo = tx(lo);
    double thi = tx(hi);
    if (thi <= tlo) thi = tlo + 1.0;

    std::vector<std::string> grid(height, std::string(width, ' '));
    const std::string marks = "*o+x#@%&";
    for (std::size_t k = 0; k < curves.size(); ++k) {
        const auto& cdf = curves[k].second;
        if (cdf.empty()) continue;
        const char mark = marks[k % marks.size()];
        for (std::size_t col = 0; col < width; ++col) {
            const double t = tlo + (thi - tlo) * static_cast<double>(col) / static_cast<double>(width - 1);
            const double x = log_x ? std::pow(10.0, t) - 1.0 : t;
            const double y = cdf(x);
            auto row = static_cast<std::size_t>(std::round((1.0 - y) * static_cast<double>(height - 1)));
            row = std::min(row, height - 1);
            grid[row][col] = mark;
        }
    }
    std::ostringstream out;
    out << "CDF (y: 0..1 bottom..top, x: " << fmt(lo, 2) << ".." << fmt(hi, 2)
        << (log_x ? ", log-x" : "") << ")\n";
    for (const auto& line : grid) out << "|" << line << "|\n";
    out << "legend:";
    for (std::size_t k = 0; k < curves.size(); ++k) {
        out << "  " << marks[k % marks.size()] << "=" << curves[k].first;
    }
    out << '\n';
    return out.str();
}

std::string render_histogram(const Histogram& h, std::size_t width) {
    if (h.counts.empty()) return "(empty histogram)\n";
    std::size_t max_count = 1;
    for (std::size_t c : h.counts) max_count = std::max(max_count, c);
    std::ostringstream out;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const double lo = h.edges[i];
        const double hi = h.edges[i + 1];
        const auto bar = static_cast<std::size_t>(
            std::llround(static_cast<double>(h.counts[i]) / static_cast<double>(max_count) *
                         static_cast<double>(width)));
        out << "[" << fmt(lo, 2) << ", " << fmt(hi, 2) << ") "
            << std::string(bar, '#') << " " << h.counts[i] << '\n';
    }
    if (h.log_scale) out << "(bin edges in log10(x+1) units)\n";
    return out.str();
}

}  // namespace cpt::util
