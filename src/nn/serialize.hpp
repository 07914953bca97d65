// Binary checkpoint format for named parameters:
//   magic "CPTW" | u32 version=1 | u32 count |
//   per entry: u32 name_len | name bytes | u32 rank | u64 dims... | f32 data...
// Every other version is rejected with an error naming it.
#pragma once

#include <string>
#include <vector>

#include "modules.hpp"

namespace cpt::nn {

void save_parameters(const std::string& path, const std::vector<NamedParam>& params);

// Loads into existing parameters by name; every checkpoint entry must match a
// parameter with identical shape, no entry may name a parameter twice, and
// every parameter must be present in the checkpoint. Throws
// std::runtime_error on any mismatch, naming the file and the section.
void load_parameters(const std::string& path, const std::vector<NamedParam>& params);

}  // namespace cpt::nn
