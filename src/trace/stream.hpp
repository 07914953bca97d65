// Core data model for control-plane traffic traces: a Dataset is a set of
// Streams; a Stream is one UE's timestamped event sequence (paper §3.1).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cellular/events.hpp"

namespace cpt::trace {

// The three device types in the paper's dataset (§4.1).
enum class DeviceType : std::uint8_t {
    kPhone,
    kConnectedCar,
    kTablet,
};
inline constexpr std::size_t kNumDeviceTypes = 3;

std::string_view to_string(DeviceType d);
DeviceType device_type_from_string(std::string_view name);

// One UE's stream of control events within a one-hour trace slice. Event
// timestamps are seconds relative to the stream start and must be
// non-decreasing.
struct Stream {
    std::string ue_id;
    DeviceType device = DeviceType::kPhone;
    int hour_of_day = 0;  // which hourly slice this stream belongs to (0..23)
    std::vector<cellular::ControlEvent> events;

    std::size_t length() const { return events.size(); }

    // Interarrival times: first event's interarrival is defined as 0 (the
    // model trains with the first token's interarrival fixed at 0, §4.5).
    std::vector<double> interarrivals() const;

    // Number of events of a given type.
    std::size_t count_type(cellular::EventId type) const;
};

// The UE id of a generator's stream `serial`: "<prefix>-<serial>" with the
// serial zero-padded to at least six digits (printf's "%s-%06zu", where
// the prefix ends at its first NUL). The id is never truncated, so every
// serial under one prefix gets its own id, however long the prefix.
std::string ue_id(const std::string& prefix, std::size_t serial);

// A collection of streams from one cellular generation.
struct Dataset {
    cellular::Generation generation = cellular::Generation::kLte4G;
    std::vector<Stream> streams;

    std::size_t total_events() const;

    // Non-copying visitation: calls `fn` for every stream matching the given
    // device and/or hour filters (std::nullopt = match all), in stream order.
    // The aggregations below and the metrics/bench callers use this instead
    // of materializing filtered copies.
    void for_each_stream(std::optional<DeviceType> device, std::optional<int> hour,
                         const std::function<void(const Stream&)>& fn) const;

    // Filtered copies (streams are value types by design so slices own their
    // data); prefer for_each_stream when the copy is not needed.
    Dataset filter_device(DeviceType d) const;
    Dataset filter_hour(int hour) const;

    // Per-event-type counts over all streams; size = vocabulary size.
    std::vector<double> event_type_counts() const;
    // Normalized breakdown (fractions summing to 1; zeros if empty).
    std::vector<double> event_type_breakdown() const;

    // Flow lengths (events per stream) as doubles, optionally restricted to a
    // single event type (pass the type id; pass -1 for all events). Paper
    // Fig. 5 / Table 6 report both.
    std::vector<double> flow_lengths(int event_type = -1) const;

    // All interarrival times pooled over streams.
    std::vector<double> all_interarrivals() const;

    // Distribution of the first event's type over streams (used to bootstrap
    // CPT-GPT inference, §4.5). Size = vocabulary size; normalized.
    std::vector<double> initial_event_distribution() const;

    // Drops streams longer than `max_len` (the paper trains with max length
    // 500 and discards longer streams, §5.1) and streams of length < 2
    // (length-1 streams are excluded from training, §4.5).
    Dataset truncated(std::size_t max_len, std::size_t min_len = 2) const;
};

}  // namespace cpt::trace
