#include "serialize.hpp"

#include <cstdint>
#include <fstream>
#include <set>
#include <stdexcept>

#include "quant.hpp"
#include "util/check.hpp"

namespace cpt::nn {

namespace {

constexpr char kMagic[4] = {'C', 'P', 'T', 'W'};
constexpr std::uint32_t kVersionF32 = 1;
constexpr std::uint32_t kVersionDtyped = 2;

// Largest tensor rank a section may declare; every model tensor is rank <= 3,
// and the bound keeps a corrupt rank field from sizing a huge Shape.
constexpr std::uint32_t kMaxRank = 8;

// Per-entry dtype codes (version >= 2).
constexpr std::uint8_t kDtypeF32 = 0;
constexpr std::uint8_t kDtypeQ8 = 1;

const char* dtype_name(std::uint8_t dtype) {
    switch (dtype) {
        case kDtypeF32: return "f32";
        case kDtypeQ8: return "q8";
        default: return "?";
    }
}

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

void save_parameters_impl(const std::string& path, const std::vector<NamedParam>& params,
                          const std::set<std::string>& quantize) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("save_parameters: cannot open '" + path + "'");
    out.write(kMagic, sizeof(kMagic));
    const bool dtyped = !quantize.empty();
    write_pod<std::uint32_t>(out, dtyped ? kVersionDtyped : kVersionF32);
    write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(params.size()));
    for (const auto& [name, p] : params) {
        write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
        out.write(name.data(), static_cast<std::streamsize>(name.size()));
        const bool q8 = quantize.count(name) != 0;
        if (dtyped) write_pod<std::uint8_t>(out, q8 ? kDtypeQ8 : kDtypeF32);
        const auto& shape = p->value.shape();
        write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(shape.size()));
        for (std::size_t d : shape) write_pod<std::uint64_t>(out, d);
        const auto data = p->value.data();
        if (q8) {
            // Same deterministic per-row symmetric scheme as QuantLinear::from,
            // so a loaded checkpoint reproduces quantize_weights() exactly.
            const std::size_t rows = shape[0];
            const std::size_t cols = shape[1];
            std::vector<std::int8_t> payload(rows * cols);
            std::vector<float> scale(rows);
            quantize_weights_rowwise(data.data(), rows, cols, payload.data(), scale.data());
            out.write(reinterpret_cast<const char*>(scale.data()),
                      static_cast<std::streamsize>(rows * sizeof(float)));
            out.write(reinterpret_cast<const char*>(payload.data()),
                      static_cast<std::streamsize>(payload.size()));
        } else {
            out.write(reinterpret_cast<const char*>(data.data()),
                      static_cast<std::streamsize>(data.size() * sizeof(float)));
        }
    }
    if (!out) throw std::runtime_error("save_parameters: write failed for '" + path + "'");
}

void load_parameters_impl(const std::string& path, const std::vector<NamedParam>& params,
                          QuantSections* quant_out) {
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
    if (version != kVersionF32 && version != kVersionDtyped) {
        throw std::runtime_error("load_parameters: unsupported version " +
                                 std::to_string(version) + " in '" + path + "'");
    }
    const auto count = read_pod<std::uint32_t>(in, path);

    std::map<std::string, Var> by_name;
    for (const auto& [name, p] : params) by_name[name] = p;
    std::size_t loaded = 0;
    if (quant_out) quant_out->clear();

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
        const std::uint8_t dtype =
            version >= kVersionDtyped ? read_pod<std::uint8_t>(in, path) : kDtypeF32;
        if (dtype != kDtypeF32 && dtype != kDtypeQ8) {
            throw std::runtime_error("load_parameters: unknown dtype " + std::to_string(dtype) +
                                     " for section '" + name + "' in '" + path + "'");
        }
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
        if (it->second->value.shape() != shape) {
            throw std::runtime_error("load_parameters: shape mismatch for '" + name + "' in '" +
                                     path + "': file " + shape_to_string(shape) + " vs model " +
                                     shape_to_string(it->second->value.shape()));
        }
        auto dst = it->second->value.data();

        if (dtype == kDtypeQ8) {
            if (rank != 2) {
                throw std::runtime_error("load_parameters: quantized section '" + name +
                                         "' in '" + path + "' must be rank 2, got rank " +
                                         std::to_string(rank));
            }
            if (!quant_out) {
                throw std::runtime_error(
                    "load_parameters: '" + path + "' stores section '" + name +
                    "' as q8 but the model expects f32 weights here; load it through a "
                    "quantization-aware path (Precision::kInt8W8A32) or re-save the hub in fp32");
            }
            QuantSection sec;
            sec.shape = shape;
            sec.scale.resize(shape[0]);
            sec.payload.resize(numel);
            in.read(reinterpret_cast<char*>(sec.scale.data()),
                    static_cast<std::streamsize>(sec.scale.size() * sizeof(float)));
            in.read(reinterpret_cast<char*>(sec.payload.data()),
                    static_cast<std::streamsize>(sec.payload.size()));
            if (!in) {
                throw std::runtime_error("load_parameters: truncated q8 section '" + name +
                                         "' in '" + path + "'");
            }
            dequantize_weights_rowwise(sec.payload.data(), sec.scale.data(), shape[0], shape[1],
                                       dst.data());
            (*quant_out)[name] = std::move(sec);
        } else {
            std::vector<float> data(numel);
            in.read(reinterpret_cast<char*>(data.data()),
                    static_cast<std::streamsize>(numel * sizeof(float)));
            if (!in) {
                throw std::runtime_error("load_parameters: truncated " +
                                         std::string(dtype_name(dtype)) + " section '" + name +
                                         "' in '" + path + "'");
            }
            for (std::size_t j = 0; j < numel; ++j) dst[j] = data[j];
        }
        ++loaded;
    }
    if (loaded != by_name.size()) {
        throw std::runtime_error("load_parameters: checkpoint '" + path + "' covers " +
                                 std::to_string(loaded) + " of " +
                                 std::to_string(by_name.size()) + " parameters");
    }
}

}  // namespace

void save_parameters(const std::string& path, const std::vector<NamedParam>& params) {
    save_parameters_impl(path, params, {});
}

void save_parameters(const std::string& path, const std::vector<NamedParam>& params,
                     const std::vector<std::string>& quantize) {
    std::map<std::string, const NamedParam*> by_name;
    for (const auto& np : params) by_name[np.name] = &np;
    std::set<std::string> names;
    for (const auto& q : quantize) {
        const auto it = by_name.find(q);
        if (it == by_name.end()) {
            throw std::invalid_argument("save_parameters: quantize list names unknown parameter '" +
                                        q + "'");
        }
        if (it->second->param->value.shape().size() != 2) {
            throw std::invalid_argument("save_parameters: cannot quantize non-matrix parameter '" +
                                        q + "'");
        }
        names.insert(q);
    }
    save_parameters_impl(path, params, names);
}

void load_parameters(const std::string& path, const std::vector<NamedParam>& params) {
    load_parameters_impl(path, params, nullptr);
}

void load_parameters(const std::string& path, const std::vector<NamedParam>& params,
                     QuantSections* quant_out) {
    CPT_CHECK(quant_out != nullptr);
    load_parameters_impl(path, params, quant_out);
}

}  // namespace cpt::nn
