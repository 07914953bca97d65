#include "model_hub.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace cpt::core {

ModelHub::ModelHub(std::string directory) : directory_(std::move(directory)) {
    std::filesystem::create_directories(directory_);
    load_manifest();
}

std::string ModelHub::manifest_path() const { return directory_ + "/manifest.csv"; }

void ModelHub::load_manifest() {
    std::ifstream in(manifest_path());
    if (!in) return;  // empty hub
    std::string line;
    while (std::getline(in, line)) {
        const auto t = util::trim(line);
        if (t.empty() || t.front() == '#') continue;
        const auto cols = util::split(std::string(t), ',');
        if (cols.size() != 3) {
            throw std::runtime_error("ModelHub: malformed manifest line '" + line + "'");
        }
        ModelHubEntry e;
        e.device = trace::device_type_from_string(util::trim(cols[0]));
        e.hour_of_day = static_cast<int>(util::parse_int(cols[1]));
        e.file = std::string(util::trim(cols[2]));
        entries_.push_back(std::move(e));
    }
}

void ModelHub::save_manifest() const {
    std::ofstream out(manifest_path());
    if (!out) throw std::runtime_error("ModelHub: cannot write manifest");
    out << "# device,hour,file\n";
    for (const auto& e : entries_) {
        out << to_string(e.device) << ',' << e.hour_of_day << ',' << e.file << '\n';
    }
}

void ModelHub::publish(const CptGpt& model, const Tokenizer& tokenizer,
                       const std::vector<double>& initial_event_dist, trace::DeviceType device,
                       int hour_of_day) {
    const std::string file = std::string(to_string(device)) + "_h" +
                             std::to_string(hour_of_day) + ".ckpt";
    model.save_package(directory_ + "/" + file, tokenizer, initial_event_dist);
    // Replace any previous release for this slice.
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const ModelHubEntry& e) {
                                      return e.device == device && e.hour_of_day == hour_of_day;
                                  }),
                   entries_.end());
    entries_.push_back({device, hour_of_day, file});
    save_manifest();
}

bool ModelHub::has(trace::DeviceType device, int hour_of_day) const {
    return std::any_of(entries_.begin(), entries_.end(), [&](const ModelHubEntry& e) {
        return e.device == device && e.hour_of_day == hour_of_day;
    });
}

CptGpt::Package ModelHub::load(trace::DeviceType device, int hour_of_day,
                               const CptGptConfig& config) const {
    for (const auto& e : entries_) {
        if (e.device == device && e.hour_of_day == hour_of_day) {
            return CptGpt::load_package(directory_ + "/" + e.file,
                                        cellular::Generation::kLte4G, config);
        }
    }
    throw std::out_of_range("ModelHub::load: no release for slice (" +
                            std::string(to_string(device)) + ", hour " +
                            std::to_string(hour_of_day) + ") in hub directory '" + directory_ +
                            "'");
}

std::optional<int> ModelHub::nearest_hour(trace::DeviceType device, int hour_of_day) const {
    std::optional<int> best;
    int best_dist = 25;
    for (const auto& e : entries_) {
        if (e.device != device) continue;
        const int raw = std::abs(e.hour_of_day - hour_of_day);
        const int dist = std::min(raw, 24 - raw);  // cyclic hour distance
        if (dist < best_dist) {
            best_dist = dist;
            best = e.hour_of_day;
        }
    }
    return best;
}

}  // namespace cpt::core
