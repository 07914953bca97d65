// N-gram extraction and tolerance matching for the data-memorization analysis
// (paper §5.6, Table 11).
//
// An n-gram is a continuous subsequence of n samples from a stream. Two
// n-grams "repeat" when their event-type sequences are identical and every
// corresponding pair of interarrival times matches within relative tolerance
// epsilon: (1 - eps) < t_gen / t_real < (1 + eps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream.hpp"

namespace cpt::trace {

// One n-gram: n event ids plus the n interarrival times.
struct Ngram {
    std::vector<cellular::EventId> events;
    std::vector<double> interarrivals;
};

// Index over all n-grams of a training dataset, bucketed by the event-type
// signature so tolerance matching only scans candidates with identical event
// sequences.
class NgramIndex {
public:
    NgramIndex(const Dataset& training, std::size_t n);

    std::size_t n() const { return n_; }
    std::size_t size() const { return total_; }

    // True when the training set contains an n-gram with the same event
    // sequence and all interarrivals within relative tolerance `epsilon`.
    bool has_match(const Ngram& g, double epsilon) const;

    // One more than the largest event id seen by the index (0 for an empty
    // training set); the length next_event_distribution fills.
    std::size_t num_event_types() const { return num_events_; }

    // Conditional next-event distribution: counts of every indexed n-gram
    // whose leading n-1 events equal the trailing n-1 events of `context`,
    // normalized to probabilities over event ids [0, num_event_types()).
    // `probs` is resized to num_event_types(). The output is indexed by
    // event id, so any downstream argmax resolves ties to the lowest id —
    // the deterministic ordering cpt_lint relies on. Returns false (probs
    // zeroed) when the context has fewer than n-1 events or was never seen
    // in training.
    bool next_event_distribution(std::span<const cellular::EventId> context,
                                 std::vector<double>& probs) const;

private:
    std::size_t n_;
    std::size_t total_ = 0;
    std::size_t num_events_ = 0;
    // signature -> list of interarrival vectors.
    std::unordered_map<std::string, std::vector<std::vector<double>>> buckets_;
    // (n-1)-event prefix signature -> next-event counts indexed by event id.
    std::unordered_map<std::string, std::vector<std::uint32_t>> next_counts_;
};

// All n-grams of a dataset (streams shorter than n contribute none).
std::vector<Ngram> extract_ngrams(const Dataset& ds, std::size_t n);

// Fraction of `generated`'s n-grams that repeat from `index` under tolerance
// `epsilon`. Returns 0 when `generated` has no n-grams.
double repeated_ngram_fraction(const Dataset& generated, const NgramIndex& index, double epsilon);

// True when a == 0 and b == 0, or both nonzero with ratio within tolerance.
// Exposed for tests.
bool interarrival_matches(double generated, double real, double epsilon);

}  // namespace cpt::trace
