#include "sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>

#include "trace/columnar.hpp"
#include "util/check.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace cpt::core {

Sampler::Sampler(const CptGpt& model, const Tokenizer& tokenizer,
                 std::vector<double> initial_event_dist, SamplerConfig config)
    : model_(&model),
      tokenizer_(&tokenizer),
      initial_event_dist_(std::move(initial_event_dist)),
      config_(config) {
    CPT_CHECK_EQ(initial_event_dist_.size(), tokenizer.num_event_types(),
                 " Sampler: initial distribution size vs event vocabulary");
    CPT_CHECK_FINITE(initial_event_dist_, "Sampler: initial distribution");
    double total = 0.0;
    for (double p : initial_event_dist_) total += p;
    CPT_CHECK_GT(total, 0.0, " Sampler: degenerate initial distribution");
    CPT_CHECK(config_.top_p > 0.0 && config_.top_p <= 1.0, "Sampler: top_p must be in (0, 1], got ",
              config_.top_p);
    if (config_.batch == 0) config_.batch = 1;
    config_.max_stream_len = std::min(config_.max_stream_len, model.config().max_seq_len);
    CPT_CHECK_GE(config_.max_stream_len, std::size_t{2},
                 " Sampler: max_stream_len must be >= 2 (after clamping to max_seq_len)");
}

namespace {

// Reusable buffers for sample_logits, so the per-token sampling loop does
// not allocate in steady state.
struct SampleScratch {
    std::vector<double> probs;
    std::vector<std::size_t> order;
};

// Samples from logits with temperature and nucleus (top-p) truncation.
// temperature == 0 is exact greedy decoding: the argmax index (lowest index
// on ties), consuming no randomness.
std::size_t sample_logits(std::span<const float> logits, double temperature, double top_p,
                          util::Rng& rng, SampleScratch& scratch) {
    if (temperature <= 0.0) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < logits.size(); ++i) {
            if (logits[i] > logits[best]) best = i;
        }
        return best;
    }
    auto& probs = scratch.probs;
    probs.resize(logits.size());
    double mx = -1e30;
    for (float l : logits) mx = std::max(mx, static_cast<double>(l));
    double total = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        probs[i] = std::exp((static_cast<double>(logits[i]) - mx) / std::max(temperature, 1e-3));
        total += probs[i];
    }
    for (double& p : probs) p /= total;
    if (top_p < 1.0) {
        // Keep the smallest prefix (by descending probability) whose mass
        // reaches top_p; zero out the tail.
        auto& order = scratch.order;
        order.resize(probs.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return probs[a] > probs[b]; });
        double mass = 0.0;
        std::size_t keep = 0;
        while (keep < order.size() && mass < top_p) {
            mass += probs[order[keep]];
            ++keep;
        }
        for (std::size_t i = keep; i < order.size(); ++i) probs[order[i]] = 0.0;
    }
    return rng.categorical(std::span<const double>(probs));
}

// One stream's next (event, interarrival, stop) draw from row `i` of a
// decode-step prediction.
struct RowSample {
    cellular::EventId event;
    double interarrival;
    bool stop;
};

RowSample sample_row(const CptGpt::DecodeOutput& pred, std::size_t i, std::size_t num_events,
                     bool dist_head, const Tokenizer& tokenizer, double temperature,
                     double top_p, util::Rng& rng, SampleScratch& scratch) {
    RowSample out;
    const auto ev_logits = pred.event_logits.data().subspan(i * num_events, num_events);
    out.event = static_cast<cellular::EventId>(
        sample_logits(ev_logits, temperature, top_p, rng, scratch));

    const float mu = pred.ia_mu[i];
    double scaled;
    if (dist_head && temperature > 0.0) {
        const double sigma = std::exp(0.5 * static_cast<double>(pred.ia_logvar[i]));
        scaled = rng.normal(static_cast<double>(mu), sigma);
    } else {
        // Ablation mode, or greedy decoding (temperature == 0): the
        // predicted mean, no draw.
        scaled = static_cast<double>(mu);
    }
    out.interarrival = tokenizer.unscale_interarrival(scaled);

    const auto stop_logits = pred.stop_logits.data().subspan(i * 2, 2);
    out.stop = sample_logits(stop_logits, temperature, top_p, rng, scratch) == 1;
    return out;
}

// Accumulates wall-clock into `slot` on destruction.
class StageTimer {
public:
    explicit StageTimer(double& slot) : slot_(slot), t0_(std::chrono::steady_clock::now()) {}
    ~StageTimer() {
        slot_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

private:
    double& slot_;
    std::chrono::steady_clock::time_point t0_;
};

}  // namespace

// ---- SlotBatch: the one decode loop -----------------------------------------

struct Sampler::SlotBatch::Impl {
    struct Slot {
        trace::Stream stream;
        util::Rng rng{0};
        std::vector<float> next_token;  // last committed token, fed next step
        double t = 0.0;
        std::uint64_t ticket = 0;
        std::size_t max_len = 0;
        double temperature = 1.0;
        double top_p = 1.0;

        // Appends a committed token; true when it ends the stream (sampled
        // stop, or the token that reaches the length cap).
        bool commit(const RowSample& r) {
            t += r.interarrival;
            stream.events.push_back({t, r.event});
            return r.stop || stream.events.size() >= max_len;
        }
    };

    explicit Impl(const Sampler& s, std::size_t cap)
        : sampler(&s),
          capacity(cap),
          decoder(s.model_->make_decoder(cap)),
          scratch(s.model_->make_decode_scratch(cap)),
          input_full({cap, s.tokenizer_->d_token()}),
          input(input_full),
          finished(cap) {
        decoder.reset();  // start with every slot free
        slots.reserve(cap);
        keep_rows.reserve(cap);
    }

    std::size_t step(std::vector<Finished>& out);

    const Sampler* sampler;
    std::size_t capacity;
    nn::TransformerDecoder decoder;
    CptGpt::DecodeScratch scratch;
    SampleScratch sample_scratch;
    nn::Tensor input_full;
    nn::Tensor input;
    std::vector<std::uint8_t> finished;  // per row: stream ended this step
    std::vector<Slot> slots;  // index == decoder row
    std::vector<std::size_t> keep_rows;
    StageTimes times;  // accumulated over every admit() and step(); see stage_times()
};

// The one decode step (paper §4.5): one token per row through the decoder,
// one draw per row, then retire and compact.
std::size_t Sampler::SlotBatch::Impl::step(std::vector<Finished>& out) {
    const Sampler& s = *sampler;
    const Tokenizer& tok = *s.tokenizer_;
    const std::size_t b = slots.size();
    const std::size_t d_token = tok.d_token();
    const std::size_t num_events = tok.num_event_types();
    const bool dist_head = s.model_->config().distribution_head;

    if (input.dim(0) != b) input = input_full.first_rows(b);
    {
        auto dst = input.data();
        for (std::size_t i = 0; i < b; ++i) {
            std::copy(slots[i].next_token.begin(), slots[i].next_token.end(),
                      dst.begin() + static_cast<std::ptrdiff_t>(i * d_token));
        }
    }
    const CptGpt::DecodeOutput* pred = nullptr;
    {
        StageTimer timer(times.decode);
        pred = &s.model_->decode_step(decoder, input, scratch);
    }
    ++times.steps;

    {
        StageTimer timer(times.sample);
        for (std::size_t i = 0; i < b; ++i) {
            Slot& slot = slots[i];
            const RowSample r = sample_row(*pred, i, num_events, dist_head, tok,
                                           slot.temperature, slot.top_p, slot.rng,
                                           sample_scratch);
            finished[i] = slot.commit(r) ? 1 : 0;
            if (finished[i] == 0) {
                tok.encode_token(r.event, r.interarrival, false,
                                 std::span<float>(slot.next_token));
            }
        }
    }

    // ---- Retire finished streams and compact the survivors.
    keep_rows.clear();
    std::size_t done = 0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < b; ++i) {
        Slot& slot = slots[i];
        if (finished[i] != 0) {
            out.push_back({std::move(slot.stream), slot.ticket, false});
            ++done;
            continue;
        }
        keep_rows.push_back(i);
        if (live != i) slots[live] = std::move(slot);
        ++live;
    }
    if (live != b) {
        StageTimer timer(times.compact);
        decoder.compact(keep_rows);
        slots.resize(live);
    }
    return done;
}

Sampler::SlotBatch::SlotBatch(const Sampler& sampler, std::size_t capacity)
    : impl_(std::make_unique<Impl>(sampler, capacity)) {
    CPT_CHECK_GT(capacity, std::size_t{0}, " SlotBatch: capacity must be > 0");
}

Sampler::SlotBatch::~SlotBatch() = default;
Sampler::SlotBatch::SlotBatch(SlotBatch&&) noexcept = default;
Sampler::SlotBatch& Sampler::SlotBatch::operator=(SlotBatch&&) noexcept = default;

std::size_t Sampler::SlotBatch::capacity() const { return impl_->capacity; }
std::size_t Sampler::SlotBatch::live() const { return impl_->slots.size(); }
std::size_t Sampler::SlotBatch::free_slots() const { return impl_->capacity - live(); }

std::size_t Sampler::SlotBatch::admissible_len() const {
    // Every decoder row owns an independent KV context starting at local
    // position 0 (nn/infer.hpp), so a fresh slot always has the full config
    // cap available — invariant in batch occupancy and residents' progress.
    return impl_->sampler->config_.max_stream_len;
}

void Sampler::SlotBatch::admit(util::Rng rng, std::string ue_id, std::uint64_t ticket,
                               AdmitParams params) {
    Impl& im = *impl_;
    CPT_CHECK_GT(free_slots(), std::size_t{0}, " SlotBatch::admit: no free slot");
    const std::size_t max_len = std::min(params.max_len, im.sampler->config_.max_stream_len);
    CPT_CHECK_GE(max_len, std::size_t{2}, " SlotBatch::admit: max_len must be >= 2");
    CPT_CHECK_LE(max_len, admissible_len(),
                 " SlotBatch::admit: stream cannot fit in the remaining context");
    if (params.top_p >= 0.0) {
        CPT_CHECK(params.top_p > 0.0 && params.top_p <= 1.0,
                  "SlotBatch::admit: top_p must be in (0, 1], got ", params.top_p);
    }
    StageTimer timer(im.times.bootstrap);
    im.decoder.admit(1);

    const Sampler& s = *im.sampler;
    const std::size_t d_token = s.tokenizer_->d_token();
    Impl::Slot slot;
    slot.rng = rng;
    slot.ticket = ticket;
    slot.max_len = max_len;
    slot.temperature = params.temperature >= 0.0 ? params.temperature : s.config_.temperature;
    slot.top_p = params.top_p >= 0.0 ? params.top_p : s.config_.top_p;
    slot.stream.ue_id = std::move(ue_id);
    slot.stream.device = s.config_.device;
    slot.stream.hour_of_day = s.config_.hour_of_day;
    // Bootstrap token (§4.5): sampled initial event, interarrival 0, stop 0.
    const auto first_event = static_cast<cellular::EventId>(
        slot.rng.categorical(std::span<const double>(s.initial_event_dist_)));
    slot.next_token.resize(d_token, 0.0f);
    s.tokenizer_->encode_token(first_event, 0.0, false, std::span<float>(slot.next_token));
    slot.stream.events.push_back({0.0, first_event});
    im.slots.push_back(std::move(slot));
}

std::size_t Sampler::SlotBatch::step(std::vector<Finished>& out) {
    return impl_->slots.empty() ? 0 : impl_->step(out);
}

const Sampler::StageTimes& Sampler::SlotBatch::stage_times() const { return impl_->times; }

std::size_t Sampler::SlotBatch::evict(const std::function<bool(std::uint64_t)>& pred,
                                      std::vector<Finished>& out) {
    Impl& im = *impl_;
    im.keep_rows.clear();
    std::size_t live = 0;
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < im.slots.size(); ++i) {
        Impl::Slot& slot = im.slots[i];
        if (pred(slot.ticket)) {
            out.push_back({std::move(slot.stream), slot.ticket, true});
            ++dropped;
            continue;
        }
        im.keep_rows.push_back(i);
        if (live != i) im.slots[live] = std::move(slot);
        ++live;
    }
    if (dropped > 0) {
        im.decoder.compact(im.keep_rows);
        im.slots.resize(live);
    }
    return dropped;
}

std::vector<trace::Stream> Sampler::generate_batch(std::span<util::Rng> rngs,
                                                   const std::string& ue_prefix,
                                                   std::size_t first_serial,
                                                   StageTimes* times) const {
    if (rngs.empty()) return {};
    SlotBatch batch(*this, rngs.size());
    for (std::size_t i = 0; i < rngs.size(); ++i) {
        batch.admit(rngs[i], trace::ue_id(ue_prefix, first_serial + i), i);
    }
    std::vector<SlotBatch::Finished> finished;
    finished.reserve(rngs.size());
    while (batch.live() > 0) batch.step(finished);
    if (times) *times += batch.stage_times();
    std::vector<trace::Stream> done;
    done.reserve(finished.size());
    for (auto& f : finished) done.push_back(std::move(f.stream));
    return done;
}

trace::Stream Sampler::sample_stream(const std::string& ue_id, util::Rng& rng) const {
    util::Rng forked = rng.fork(0);
    auto streams = generate_batch(std::span(&forked, 1), "tmp", 0);
    streams.front().ue_id = ue_id;
    return streams.front();
}

namespace {

// The shared cursor of generate()'s decode lanes (DESIGN.md §7). It hands
// out serials in ascending order — serial s decodes the s-th fork of the
// caller's RNG — and emits finished streams to the sink in serial order
// through a reorder buffer. One lock guards all of it; whichever lane
// completes the contiguous prefix of finished serials runs the sink.
class StreamCursor {
public:
    struct Pulled {
        std::size_t serial;
        util::Rng rng;
    };

    StreamCursor(std::size_t n, util::Rng& rng, const std::function<void(trace::Stream&&)>& sink)
        : n_(n), rng_(&rng), sink_(&sink) {}

    // One lane's step boundary: files the streams it just finished (their
    // tickets are serials), emits the prefix they complete, then pulls up to
    // `free_slots` new serials into `pulled`.
    void exchange(std::vector<Sampler::SlotBatch::Finished>& finished, std::size_t free_slots,
                  std::vector<Pulled>& pulled) CPT_EXCLUDES(mu_) {
        util::LockGuard lock(mu_);
        for (auto& f : finished) pending_[f.ticket - emitted_] = std::move(f.stream);
        while (!pending_.empty() && pending_.front().has_value()) {
            (*sink_)(std::move(*pending_.front()));
            pending_.pop_front();
            ++emitted_;
        }
        pulled.clear();
        for (; pulled.size() < free_slots && next_ < n_; ++next_) {
            pulled.push_back({next_, rng_->fork(next_)});
            pending_.emplace_back();
        }
    }

private:
    util::Mutex mu_;
    const std::size_t n_;
    util::Rng* const rng_ CPT_PT_GUARDED_BY(mu_);
    const std::function<void(trace::Stream&&)>* const sink_;
    std::size_t next_ CPT_GUARDED_BY(mu_) = 0;     // next serial to hand out
    std::size_t emitted_ CPT_GUARDED_BY(mu_) = 0;  // serials [0, emitted_) went to the sink
    // Serials [emitted_, next_): decoded streams wait here for their prefix.
    std::deque<std::optional<trace::Stream>> pending_ CPT_GUARDED_BY(mu_);
};

}  // namespace

void Sampler::generate_impl(std::size_t n, util::Rng& rng, const std::string& ue_prefix,
                            const std::function<void(trace::Stream&&)>& sink) const {
    // One decode lane per pool thread, each a SlotBatch refilled from the
    // cursor at every step boundary, so a long stream holds one row rather
    // than a whole batch. A lane leaves once it has no live row and the
    // cursor is exhausted; it never waits on another lane, so a nested call
    // (lanes run inline one after another) decodes everything on lane 0.
    // Stream bytes depend only on the stream's RNG (SlotBatch row
    // invariance), so the output is independent of lanes, batch and timing.
    StreamCursor cursor(n, rng, sink);
    util::ThreadPool& pool = util::global_pool();
    const std::size_t lanes = std::min(pool.threads(), (n + config_.batch - 1) / config_.batch);
    pool.parallel_chunks(lanes, 1, [&](std::size_t, std::size_t, std::size_t) {
        SlotBatch batch(*this, config_.batch);
        std::vector<SlotBatch::Finished> finished;
        std::vector<StreamCursor::Pulled> pulled;
        for (;;) {
            cursor.exchange(finished, batch.free_slots(), pulled);
            for (auto& p : pulled) {
                batch.admit(p.rng, trace::ue_id(ue_prefix, p.serial), p.serial);
            }
            if (batch.live() == 0) return;
            finished.clear();
            batch.step(finished);
        }
    });
}

trace::Dataset Sampler::generate(std::size_t n, util::Rng& rng,
                                 const std::string& ue_prefix) const {
    trace::Dataset ds;
    ds.generation = tokenizer_->generation();
    ds.streams.reserve(n);
    generate_impl(n, rng, ue_prefix,
                  [&](trace::Stream&& s) { ds.streams.push_back(std::move(s)); });
    return ds;
}

std::size_t Sampler::generate_to(trace::ColumnarWriter& writer, std::size_t n, util::Rng& rng,
                                 const std::string& ue_prefix) const {
    CPT_CHECK(writer.generation() == tokenizer_->generation(),
              "Sampler::generate_to: writer generation does not match the model's generation");
    generate_impl(n, rng, ue_prefix, [&](trace::Stream&& s) { writer.append(std::move(s)); });
    return n;
}

}  // namespace cpt::core
