#include "ensemble.hpp"


#include "util/check.hpp"

namespace cpt::smm {

SemiMarkovModel fit_smm1(const trace::Dataset& ds, const SmmConfig& config) {
    return SemiMarkovModel::fit(ds, config);
}

SmmEnsemble SmmEnsemble::fit(const trace::Dataset& ds, std::size_t clusters, util::Rng& rng,
                             const SmmConfig& config) {
    CPT_CHECK(!ds.streams.empty(), "SmmEnsemble::fit: empty dataset");
    const Clustering clustering = kmeans_streams(ds, clusters, rng);

    SmmEnsemble ensemble;
    for (std::size_t c = 0; c < clustering.centroids.size(); ++c) {
        if (clustering.sizes[c] < 3) continue;  // too small to fit a stable model
        trace::Dataset sub;
        sub.generation = ds.generation;
        for (std::size_t i = 0; i < ds.streams.size(); ++i) {
            if (clustering.assignment[i] == c) sub.streams.push_back(ds.streams[i]);
        }
        ensemble.models_.push_back(SemiMarkovModel::fit(sub, config));
        ensemble.weights_.push_back(static_cast<double>(clustering.sizes[c]));
    }
    if (ensemble.models_.empty()) {
        // Degenerate clustering (e.g. tiny dataset): fall back to one model.
        ensemble.models_.push_back(SemiMarkovModel::fit(ds, config));
        ensemble.weights_.push_back(1.0);
    }
    return ensemble;
}

trace::Dataset SmmEnsemble::generate(std::size_t n, util::Rng& rng,
                                     const std::string& ue_prefix) const {
    trace::Dataset ds;
    ds.generation = models_.front().generation();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t model_idx = rng.categorical(std::span<const double>(weights_));
        const std::string id = trace::ue_id(ue_prefix, i);
        trace::Stream s;
        for (int attempt = 0; attempt < 5; ++attempt) {
            s = models_[model_idx].generate_stream(id, rng);
            if (s.length() >= 2) break;
        }
        if (s.length() >= 2) ds.streams.push_back(std::move(s));
    }
    return ds;
}

std::size_t SmmEnsemble::num_cdfs() const {
    std::size_t n = 0;
    for (const auto& m : models_) n += m.num_cdfs();
    return n;
}

}  // namespace cpt::smm
