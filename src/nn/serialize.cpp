#include "serialize.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

namespace cpt::nn {

namespace {

constexpr char kMagic[4] = {'C', 'P', 'T', 'W'};
constexpr std::uint32_t kVersion = 1;

// Largest tensor rank a section may declare; every model tensor is rank <= 3,
// and the bound keeps a corrupt rank field from sizing a huge Shape.
constexpr std::uint32_t kMaxRank = 8;

template <typename T>
void write_pod(std::ostream& out, T value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in, const std::string& path) {
    T value{};
    in.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in) throw std::runtime_error("load_parameters: truncated file '" + path + "'");
    return value;
}

}  // namespace

void load_parameters(const std::string& path, const std::vector<NamedParam>& params) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("load_parameters: cannot open '" + path + "'");
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
        throw std::runtime_error("load_parameters: bad magic in '" + path + "'");
    }
    const auto version = read_pod<std::uint32_t>(in, path);
    if (version != kVersion) {
        throw std::runtime_error("load_parameters: unsupported version " +
                                 std::to_string(version) + " in '" + path + "'");
    }
    const auto count = read_pod<std::uint32_t>(in, path);

    std::map<std::string, Var> by_name;
    for (const auto& [name, p] : params) by_name[name] = p;
    std::set<std::string> seen;

    // Length fields are checked before they size any allocation, so a corrupt
    // checkpoint fails with an error naming the section instead of a huge
    // allocation.
    auto corrupt = [&](std::uint32_t section, const std::string& what) {
        return std::runtime_error("load_parameters: section " + std::to_string(section) +
                                  " in '" + path + "': " + what);
    };
    for (std::uint32_t i = 0; i < count; ++i) {
        const auto name_len = read_pod<std::uint32_t>(in, path);
        const auto left = file_size - static_cast<std::uint64_t>(in.tellg());
        if (name_len > left) {
            throw corrupt(i, "name length " + std::to_string(name_len) + " exceeds the " +
                                 std::to_string(left) + " bytes left");
        }
        std::string name(name_len, '\0');
        in.read(name.data(), name_len);
        if (!in) throw std::runtime_error("load_parameters: truncated file '" + path + "'");
        const auto rank = read_pod<std::uint32_t>(in, path);
        if (rank > kMaxRank) {
            throw corrupt(i, "rank " + std::to_string(rank) + " exceeds the maximum " +
                                 std::to_string(kMaxRank));
        }
        Shape shape(rank);
        for (auto& d : shape) d = static_cast<std::size_t>(read_pod<std::uint64_t>(in, path));
        const std::size_t numel = shape_numel(shape);

        const auto it = by_name.find(name);
        if (it == by_name.end()) {
            throw std::runtime_error("load_parameters: unknown parameter '" + name + "' in '" +
                                     path + "'");
        }
        if (!seen.insert(name).second) throw corrupt(i, "names parameter '" + name + "' again");
        if (it->second->value.shape() != shape) {
            throw std::runtime_error("load_parameters: shape mismatch for '" + name + "' in '" +
                                     path + "': file " + shape_to_string(shape) + " vs model " +
                                     shape_to_string(it->second->value.shape()));
        }
        auto dst = it->second->value.data();

        std::vector<float> data(numel);
        in.read(reinterpret_cast<char*>(data.data()),
                static_cast<std::streamsize>(numel * sizeof(float)));
        if (!in) {
            throw std::runtime_error("load_parameters: truncated f32 section '" + name + "' in '" +
                                     path + "'");
        }
        for (std::size_t j = 0; j < numel; ++j) dst[j] = data[j];
    }
    if (seen.size() != by_name.size()) {
        throw std::runtime_error("load_parameters: checkpoint '" + path + "' covers " +
                                 std::to_string(seen.size()) + " of " +
                                 std::to_string(by_name.size()) + " parameters");
    }
}

void save_parameters(const std::string& path, const std::vector<NamedParam>& params) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("save_parameters: cannot open '" + path + "'");
    out.write(kMagic, sizeof(kMagic));
    write_pod<std::uint32_t>(out, kVersion);
    write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(params.size()));
    for (const auto& [name, p] : params) {
        write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
        out.write(name.data(), static_cast<std::streamsize>(name.size()));
        const auto& shape = p->value.shape();
        write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(shape.size()));
        for (std::size_t d : shape) write_pod<std::uint64_t>(out, d);
        const auto data = p->value.data();
        out.write(reinterpret_cast<const char*>(data.data()),
                  static_cast<std::streamsize>(data.size() * sizeof(float)));
    }
    if (!out) throw std::runtime_error("save_parameters: write failed for '" + path + "'");
}

}  // namespace cpt::nn
