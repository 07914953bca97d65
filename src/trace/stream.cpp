#include "stream.hpp"

#include "util/check.hpp"

namespace cpt::trace {

std::string_view to_string(DeviceType d) {
    switch (d) {
        case DeviceType::kPhone: return "phone";
        case DeviceType::kConnectedCar: return "connected_car";
        case DeviceType::kTablet: return "tablet";
    }
    return "?";
}

DeviceType device_type_from_string(std::string_view name) {
    if (name == "phone") return DeviceType::kPhone;
    if (name == "connected_car") return DeviceType::kConnectedCar;
    if (name == "tablet") return DeviceType::kTablet;
    CPT_CHECK(false, "device_type_from_string: unknown device '", name, "'");
}

std::string ue_id(const std::string& prefix, std::size_t serial) {
    std::string digits = std::to_string(serial);
    if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
    std::string id(prefix.c_str());
    id += '-';
    id += digits;
    return id;
}

std::vector<double> Stream::interarrivals() const {
    std::vector<double> out;
    out.reserve(events.size());
    double prev = events.empty() ? 0.0 : events.front().timestamp;
    for (std::size_t i = 0; i < events.size(); ++i) {
        out.push_back(i == 0 ? 0.0 : events[i].timestamp - prev);
        prev = events[i].timestamp;
    }
    return out;
}

std::size_t Stream::count_type(cellular::EventId type) const {
    std::size_t n = 0;
    for (const auto& e : events) {
        if (e.type == type) ++n;
    }
    return n;
}

std::size_t Dataset::total_events() const {
    std::size_t n = 0;
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) { n += s.events.size(); });
    return n;
}

void Dataset::for_each_stream(std::optional<DeviceType> device, std::optional<int> hour,
                              const std::function<void(const Stream&)>& fn) const {
    for (const auto& s : streams) {
        if (device.has_value() && s.device != *device) continue;
        if (hour.has_value() && s.hour_of_day != *hour) continue;
        fn(s);
    }
}

Dataset Dataset::filter_device(DeviceType d) const {
    Dataset out;
    out.generation = generation;
    for_each_stream(d, std::nullopt, [&](const Stream& s) { out.streams.push_back(s); });
    return out;
}

Dataset Dataset::filter_hour(int hour) const {
    Dataset out;
    out.generation = generation;
    for_each_stream(std::nullopt, hour, [&](const Stream& s) { out.streams.push_back(s); });
    return out;
}

std::vector<double> Dataset::event_type_counts() const {
    const auto& vocab = cellular::vocabulary(generation);
    std::vector<double> counts(vocab.size(), 0.0);
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) {
        for (const auto& e : s.events) {
            if (e.type < counts.size()) counts[e.type] += 1.0;
        }
    });
    return counts;
}

std::vector<double> Dataset::event_type_breakdown() const {
    const auto counts = event_type_counts();
    double total = 0.0;
    for (double c : counts) total += c;
    std::vector<double> p(counts.size(), 0.0);
    if (total <= 0.0) return p;
    for (std::size_t i = 0; i < counts.size(); ++i) p[i] = counts[i] / total;
    return p;
}

std::vector<double> Dataset::flow_lengths(int event_type) const {
    std::vector<double> out;
    out.reserve(streams.size());
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) {
        if (event_type < 0) {
            out.push_back(static_cast<double>(s.length()));
        } else {
            out.push_back(
                static_cast<double>(s.count_type(static_cast<cellular::EventId>(event_type))));
        }
    });
    return out;
}

std::vector<double> Dataset::all_interarrivals() const {
    std::vector<double> out;
    out.reserve(total_events());
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) {
        const auto ia = s.interarrivals();
        // Skip the defined-zero first interarrival; it is an artifact of the
        // relative-timestamp representation, not a real gap.
        for (std::size_t i = 1; i < ia.size(); ++i) out.push_back(ia[i]);
    });
    return out;
}

std::vector<double> Dataset::initial_event_distribution() const {
    const auto& vocab = cellular::vocabulary(generation);
    std::vector<double> counts(vocab.size(), 0.0);
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) {
        if (!s.events.empty() && s.events.front().type < counts.size()) {
            counts[s.events.front().type] += 1.0;
        }
    });
    double total = 0.0;
    for (double c : counts) total += c;
    if (total > 0.0) {
        for (double& c : counts) c /= total;
    }
    return counts;
}

Dataset Dataset::truncated(std::size_t max_len, std::size_t min_len) const {
    Dataset out;
    out.generation = generation;
    for_each_stream(std::nullopt, std::nullopt, [&](const Stream& s) {
        if (s.length() >= min_len && s.length() <= max_len) out.streams.push_back(s);
    });
    return out;
}

}  // namespace cpt::trace
