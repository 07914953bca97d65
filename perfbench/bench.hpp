// Shared pieces of the whole-stack benchmark (see README.md): the span log,
// sample statistics, the metric report, and the trained serving stack that
// every workload sets up.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/tokenizer.hpp"
#include "core/trainer.hpp"
#include "metrics/fidelity.hpp"
#include "serve/event_loop.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "trace/stream.hpp"
#include "util/sync.hpp"

namespace cpt::perfbench {

// Seconds on the steady clock since the first call in the process.
double now_s();

// ---- Tracing -------------------------------------------------------------

// One timed interval at a layer boundary. `key` groups the spans of one
// request (its unique ue_prefix); `track` names the benchmark thread whose
// timeline the span occupies ("" for spans recorded on program threads).
struct Span {
    std::string name;
    std::string key;
    std::string track;
    double t0 = 0.0;
    double t1 = 0.0;
    double seconds() const { return t1 - t0; }
};

// Spans stay in memory while the run measures and are written out at the
// end. A disabled log (the default) records nothing, so untraced runs pay
// one relaxed load per boundary.
class SpanLog {
public:
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    void add(std::string name, std::string key, std::string track, double t0, double t1)
        CPT_EXCLUDES(mu_);
    std::vector<Span> snapshot() const CPT_EXCLUDES(mu_);
    void clear() CPT_EXCLUDES(mu_);
    void write_jsonl(const std::string& path) const CPT_EXCLUDES(mu_);

private:
    std::atomic<bool> enabled_{false};
    mutable util::Mutex mu_;
    std::vector<Span> spans_ CPT_GUARDED_BY(mu_);
};

// Records [construction, destruction) as one span when the log is enabled.
class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, std::string name, std::string key, std::string track)
        : log_(log), name_(std::move(name)), key_(std::move(key)), track_(std::move(track)),
          t0_(log.enabled() ? now_s() : 0.0) {}
    ~ScopedSpan() {
        if (log_.enabled()) log_.add(std::move(name_), std::move(key_), std::move(track_), t0_, now_s());
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    std::string name_, key_, track_;
    double t0_;
};

// Share of the root spans' time ("root" spans, one per track) that no other
// span on the same track covers.
double unattributed_share(const std::vector<Span>& spans);

// Total self time per span name: a span's duration minus the part of it
// covered by other spans of the same key (or track) nested inside it.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

// ---- Statistics ------------------------------------------------------------

// Raw samples; percentiles by linear interpolation between order statistics.
struct Samples {
    std::vector<double> v;
    void add(double x) { v.push_back(x); }
    std::size_t size() const { return v.size(); }
    double percentile(double p) const;  // p in [0, 100]; NaN when empty
    double median() const { return percentile(50.0); }
    // The highest percentile with at least ten samples beyond it (the tail a
    // run of this size can support), rounded down to a tenth of a percent.
    double tail_pct() const;
    double tail() const { return percentile(tail_pct()); }
    // Samples in arrival order cut into `windows` consecutive slices: the
    // slices' p-th percentiles.
    Samples per_window(double p, std::size_t windows) const;
};

// ---- Report ----------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

// Metrics of one run plus free-form information lines. The end-to-end and
// per-layer sets are printed as the final JSON line; `note` lines are
// printed before it, prefixed with "# ".
struct Report {
    std::map<std::string, Metric> e2e;
    std::map<std::string, Metric> layer;
    std::vector<std::string> notes;
    std::vector<std::string> errors;  // failed correctness checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
    void check(bool ok, const char* fmt, ...) __attribute__((format(printf, 3, 4)));
};

// ---- The serving stack -----------------------------------------------------

// Fixed set-up of every workload: the phone/h10 world, the model trained on
// it, and the slices it is published under.
inline constexpr std::size_t kTrainUes = 300;
inline constexpr int kTrainEpochs = 4;
inline constexpr std::size_t kHeldOutUes = 600;
inline constexpr int kWorldHour = 10;
inline constexpr std::size_t kStreamCap = 128;  // == CptGptConfig::max_seq_len
inline constexpr int kSliceHours[] = {10, 11, 12, 13};
inline constexpr std::size_t kBackends = 2;
// Backends listen on fixed loopback ports below Linux's ephemeral range: the
// router's hash ring keys on "host:port", so ephemeral ports would move
// slices between backends from run to run.
inline constexpr std::uint16_t kBackendPortBase = 29311;

// Times every request through a Service as one span named `name`, keyed by
// the request's ue_prefix. Stands in front of a Server or the Router so the
// benchmark can split a request's time between tiers from its own code.
class TimedService : public serve::Service {
public:
    TimedService(serve::Service& inner, std::string name, SpanLog& log)
        : inner_(inner), name_(std::move(name)), log_(log) {}
    void generate_async(const serve::GenerateRequest& request, Done done) override;
    std::string stats_json() const override { return inner_.stats_json(); }
    serve::HealthInfo health() const override { return inner_.health(); }

private:
    serve::Service& inner_;
    std::string name_;
    SpanLog& log_;
};

struct SetupTimes {
    double world_gen_s = 0.0;
    double train_s = 0.0;
    double publish_s = 0.0;
    double servers_s = 0.0;
    double warmup_s = 0.0;
    double total_s = 0.0;
};

// The trained model, its scratch hub, two cpt-serve backends and a
// cpt-router in front of them, all in this process and over loopback TCP.
// Destruction stops the transports and drains the services.
class Stack {
public:
    Stack(const std::string& run_dir, int index, SpanLog& log);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    const core::CptGpt& model() const { return *model_; }
    const core::Tokenizer& tokenizer() const { return *tok_; }
    const std::vector<double>& initial_dist() const { return initial_dist_; }
    const trace::Dataset& world() const { return world_; }
    const trace::Dataset& held_out() const { return held_out_; }
    const core::TrainResult& train_result() const { return train_; }
    const SetupTimes& times() const { return times_; }
    const std::string& hub_dir() const { return hub_dir_; }
    std::uint16_t router_port() const { return router_tcp_->port(); }
    serve::Server& backend(std::size_t i) { return *servers_.at(i); }
    serve::Router& router() { return *router_; }
    // Backend index owning each slice hour on the router's ring.
    const std::map<int, std::size_t>& placement() const { return placement_; }
    // FNV-1a over every model parameter's bytes (training determinism check).
    std::uint64_t weights_digest() const;

private:
    void build();
    void shutdown();
    void train();
    void publish();
    void start_servers();
    void warm_up();

    SpanLog& log_;
    std::string hub_dir_;
    trace::Dataset world_;
    trace::Dataset held_out_;
    std::optional<core::Tokenizer> tok_;
    std::unique_ptr<core::CptGpt> model_;
    std::vector<double> initial_dist_;
    core::TrainResult train_;
    SetupTimes times_;

    std::vector<std::unique_ptr<serve::Server>> servers_;
    std::vector<std::unique_ptr<TimedService>> server_wrappers_;
    std::vector<std::unique_ptr<serve::TcpServer>> server_tcp_;
    std::unique_ptr<serve::Router> router_;
    std::unique_ptr<TimedService> router_wrapper_;
    std::unique_ptr<serve::TcpServer> router_tcp_;
    std::vector<std::thread> loops_;  // serve_forever of each TcpServer
    std::map<int, std::size_t> placement_;
};

// ---- Workloads ---------------------------------------------------------------

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string run_dir;
    // Load-generator threads, one connection each: nproc. A connection
    // carries one request at a time, so no more than this many requests are
    // ever in flight.
    std::size_t conns = 1;
};

// Each workload measures on the last of the stacks set up and fills the
// report with the end-to-end metrics (and, traced, the per-layer ones).
void run_offline_trace(const RunOptions& opt, Stack& stack, SpanLog& log, Report& report);
void run_serve(const RunOptions& opt, Stack& stack, SpanLog& log, Report& report);

// serve_stream in parts, so its windows can span several stacks: windows()
// adds reference-rate and closed-loop window pairs on one stack, with the
// rate ladder once halfway through kServeWindows pairs; finish() runs the
// identity checks and scoring on the last stack and fills the report.
// run_serve() is all kServeWindows pairs on one stack.
inline constexpr std::size_t kServeWindows = 8;
class ServeRun {
public:
    ServeRun(const RunOptions& opt, SpanLog& log);
    ~ServeRun();
    ServeRun(const ServeRun&) = delete;
    ServeRun& operator=(const ServeRun&) = delete;
    void windows(Stack& stack, std::size_t pairs);
    void finish(Stack& stack, Report& report);

private:
    struct Windows;
    const RunOptions& opt_;
    SpanLog& log_;
    std::unique_ptr<Windows> w_;
};

// Layer probes shared by every traced run: the held-full decode kernel and
// the sampler's stage split (public StageTimes) over a fixed batch set.
void probe_nn(const Stack& stack, Report& report);
void probe_sampler(const Stack& stack, std::uint64_t seed, const std::string& run_dir,
                   Report& report);
// A short serve_stream-shaped phase that fills the serve-tier layer metrics
// in runs whose workload does not serve (offline_trace).
void probe_serve(const RunOptions& opt, Stack& stack, SpanLog& log, Report& report);

// Scores a .cpt trace the way an offline user does: TraceLinter::lint over
// the file, then accumulate_fidelity and the Table 6 distances against
// `reference`. Passes repeat until `budget_s` has elapsed (at least three);
// the times are the medians over passes.
struct Score {
    std::uint64_t streams = 0;
    std::uint64_t events = 0;
    double read_s = 0.0;   // ColumnarReader pass alone
    double lint_s = 0.0;
    double fidelity_s = 0.0;
    double violation_frac = 0.0;  // semantic-violation event fraction
    double maxy_mean = 0.0;       // mean of the five Table 6 max-y distances
    std::vector<std::size_t> lengths;  // every stream length, from the read pass
};
Score score_file(const std::string& path, const metrics::FidelityAccumulator& reference,
                 double budget_s, SpanLog& log, const std::string& track);

// Reference sketch of the held-out world with streams cut at `cap` events,
// the cap the scored traffic was generated under.
metrics::FidelityAccumulator reference_sketch(const trace::Dataset& held_out, std::size_t cap);

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cpt::perfbench
