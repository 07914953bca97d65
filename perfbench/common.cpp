// Span log, sample statistics, the metric report and trace scoring.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "lint/trace_lint.hpp"
#include "trace/columnar.hpp"

namespace cpt::perfbench {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

std::string fmt(const char* f, ...) {
    va_list ap;
    va_start(ap, f);
    char buf[1024];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

// ---- Spans -----------------------------------------------------------------

void SpanLog::add(std::string name, std::string key, std::string track, double t0, double t1) {
    util::LockGuard lock(mu_);
    spans_.push_back({std::move(name), std::move(key), std::move(track), t0, t1});
}

std::vector<Span> SpanLog::snapshot() const {
    util::LockGuard lock(mu_);
    return spans_;
}

void SpanLog::clear() {
    util::LockGuard lock(mu_);
    spans_.clear();
}

void SpanLog::write_jsonl(const std::string& path) const {
    util::LockGuard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    for (const auto& s : spans_) {
        std::fprintf(f, "{\"name\": \"%s\", \"key\": \"%s\", \"track\": \"%s\", \"t0\": %.9f, \"t1\": %.9f}\n",
                     s.name.c_str(), s.key.c_str(), s.track.c_str(), s.t0, s.t1);
    }
    std::fclose(f);
}

namespace {

// Length of the union of [t0, t1] intervals, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>>& iv, double lo, double hi) {
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur0 = 0.0, cur1 = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (open && a <= cur1) {
            cur1 = std::max(cur1, b);
            continue;
        }
        if (open) total += cur1 - cur0;
        cur0 = a;
        cur1 = b;
        open = true;
    }
    if (open) total += cur1 - cur0;
    return total;
}

using Group = std::map<std::string, std::vector<const Span*>>;

// Spans of one group (sorted by start) nested inside `s`, excluding `s`.
void nested(const std::vector<const Span*>& group, const Span& s,
            std::vector<std::pair<double, double>>& out) {
    auto it = std::lower_bound(group.begin(), group.end(), s.t0,
                               [](const Span* x, double t) { return x->t0 < t; });
    for (; it != group.end() && (*it)->t0 <= s.t1; ++it) {
        const Span* c = *it;
        if (c == &s || c->t1 > s.t1) continue;
        if (c->t0 == s.t0 && c->t1 == s.t1 && c > &s) continue;  // twin: one covers the other
        out.emplace_back(c->t0, c->t1);
    }
}

Group group_by(const std::vector<Span>& spans, std::string Span::*field) {
    Group g;
    for (const auto& s : spans) {
        if (!(s.*field).empty()) g[s.*field].push_back(&s);
    }
    for (auto& [k, v] : g) {
        std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) { return a->t0 < b->t0; });
    }
    return g;
}

}  // namespace

double unattributed_share(const std::vector<Span>& spans) {
    const Group by_track = group_by(spans, &Span::track);
    double root = 0.0, uncovered = 0.0;
    std::vector<std::pair<double, double>> iv;
    for (const auto& s : spans) {
        if (s.name != "root") continue;
        iv.clear();
        nested(by_track.at(s.track), s, iv);
        root += s.seconds();
        uncovered += s.seconds() - covered(iv, s.t0, s.t1);
    }
    return root > 0.0 ? uncovered / root : 0.0;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
    const Group by_track = group_by(spans, &Span::track);
    const Group by_key = group_by(spans, &Span::key);
    std::map<std::string, double> self;
    std::vector<std::pair<double, double>> iv;
    for (const auto& s : spans) {
        iv.clear();
        if (!s.track.empty()) nested(by_track.at(s.track), s, iv);
        if (!s.key.empty()) nested(by_key.at(s.key), s, iv);
        self[s.name] += s.seconds() - covered(iv, s.t0, s.t1);
    }
    return self;
}

// ---- Statistics --------------------------------------------------------------

double Samples::percentile(double p) const {
    if (v.empty()) return std::nan("");
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::tail_pct() const {
    if (v.size() <= 20) return 50.0;
    const double p = std::floor(1000.0 * (1.0 - 10.0 / static_cast<double>(v.size()))) / 10.0;
    return std::min(p, 99.9);
}

Samples Samples::per_window(double p, std::size_t windows) const {
    Samples per;
    const std::size_t n = v.size();
    for (std::size_t w = 0; w < windows; ++w) {
        Samples slice;
        slice.v.assign(v.begin() + static_cast<std::ptrdiff_t>(w * n / windows),
                       v.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows));
        if (!slice.v.empty()) per.add(slice.percentile(p));
    }
    return per;
}

// ---- Report --------------------------------------------------------------------

void Report::note(const char* f, ...) {
    va_list ap;
    va_start(ap, f);
    char buf[2048];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    notes.emplace_back(buf);
}

void Report::check(bool ok, const char* f, ...) {
    va_list ap;
    va_start(ap, f);
    char buf[2048];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    notes.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + buf);
    if (!ok) errors.emplace_back(buf);
}

// ---- Scoring -------------------------------------------------------------------

metrics::FidelityAccumulator reference_sketch(const trace::Dataset& held_out, std::size_t cap) {
    trace::Dataset cut = held_out;
    for (auto& s : cut.streams) {
        if (s.events.size() > cap) s.events.resize(cap);
    }
    metrics::FidelityAccumulator acc(cut.generation);
    acc.add(cut);
    return acc;
}

Score score_file(const std::string& path, const metrics::FidelityAccumulator& reference,
                 double budget_s, SpanLog& log, const std::string& track) {
    Score sc;
    trace::ColumnarReader reader(path);
    sc.streams = reader.total_streams();
    sc.events = reader.total_events();
    const lint::TraceLinter linter(reader.generation());
    Samples read_s, lint_s, fid_s;
    const double start = now_s();
    for (int p = 0; p < 3 || now_s() - start < budget_s; ++p) {
        double t0 = now_s();
        {
            ScopedSpan span(log, "trace.read", "", track);
            reader.rewind();
            trace::StreamBatch batch;
            while (reader.next(batch)) {
                if (p > 0) continue;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    sc.lengths.push_back(batch.events_of(i).size());
                }
            }
        }
        double t1 = now_s();
        read_s.add(t1 - t0);
        {
            ScopedSpan span(log, "lint", "", track);
            reader.rewind();
            sc.violation_frac = linter.lint(reader).event_fraction();
        }
        double t2 = now_s();
        lint_s.add(t2 - t1);
        {
            ScopedSpan span(log, "metrics.accumulate", "", track);
            const auto acc = metrics::accumulate_fidelity(reader);
            const auto f = metrics::evaluate_fidelity(acc, reference);
            sc.maxy_mean = (f.maxy_sojourn_connected + f.maxy_sojourn_idle + f.maxy_flow_length_all +
                            f.maxy_flow_length_srv_req + f.maxy_flow_length_s1_rel) /
                           5.0;
        }
        fid_s.add(now_s() - t2);
    }
    sc.read_s = read_s.median();
    sc.lint_s = lint_s.median();
    sc.fidelity_s = fid_s.median();
    return sc;
}

}  // namespace cpt::perfbench
