// ModelHub — directory-based registry of released CPT-GPT packages.
//
// The paper's operational architecture (§4.5, Fig. 4) has the operator train
// per-hour / per-device models and "package together and release to the
// public" the weights plus the initial-event-type distribution. The hub is
// that release directory: one checkpoint per (device type, hour), plus a
// plain-text manifest, so downstream users can fetch the right model for the
// traffic slice they want to synthesize.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model.hpp"

namespace cpt::core {

struct ModelHubEntry {
    trace::DeviceType device = trace::DeviceType::kPhone;
    int hour_of_day = 0;
    std::string file;  // checkpoint filename within the hub directory
};

class ModelHub {
public:
    // Opens (and creates if necessary) the hub rooted at `directory`. The
    // manifest is loaded if present.
    explicit ModelHub(std::string directory);

    // Publishes a trained model for a (device, hour) slice, overwriting any
    // previous release for that slice, and updates the manifest.
    void publish(const CptGpt& model, const Tokenizer& tokenizer,
                 const std::vector<double>& initial_event_dist, trace::DeviceType device,
                 int hour_of_day);

    // True when a release exists for the slice.
    bool has(trace::DeviceType device, int hour_of_day) const;

    // Loads the release for a slice; throws std::out_of_range if absent.
    CptGpt::Package load(trace::DeviceType device, int hour_of_day,
                         const CptGptConfig& config) const;

    // The published hour nearest to `hour_of_day` for the same device
    // (cyclic distance; `hour_of_day` itself when published, the first in
    // manifest order on a tie); nullopt if the device has no releases at
    // all. Mirrors how an operator would serve "the 3am model" when only
    // peak hours were retrained.
    std::optional<int> nearest_hour(trace::DeviceType device, int hour_of_day) const;

    const std::vector<ModelHubEntry>& entries() const { return entries_; }
    const std::string& directory() const { return directory_; }

private:
    std::string manifest_path() const;
    void save_manifest() const;
    void load_manifest();

    std::string directory_;
    std::vector<ModelHubEntry> entries_;
};

}  // namespace cpt::core
