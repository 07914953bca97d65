// Internal declarations of the kernel tiers behind gemm.cpp and kernels.cpp.
// The AVX2+FMA definitions live in gemm_avx2.cpp and kernels_avx2.cpp, the
// translation units built with -mavx2 -mfma (plus gemm_avx512.cpp, see
// gemm_panel_avx512); when the compiler lacks those flags they degrade to
// CPT_CHECK failures. Callers reach them only through the tier dispatchers in
// gemm.cpp / kernels.cpp, which select avx2 only when the host CPU supports
// the instructions.
//
// Determinism contract shared by every function here: the floating-point
// operations producing one output element depend only on (element index,
// operand shape) — never on tile position. Every function runs on its
// caller's thread. Scalar edge paths use std::fma so they round exactly like
// the vector FMA lanes.
#pragma once

#include <cstddef>

namespace cpt::nn::detail {

// The GEMM engine (gemm.hpp: gemm_nn, gemm_nt, gemm_tn, gemm_nt_decode):
// C[M,N] += A * B with A element (r, k) at a[r * rs + k * ks] and B a
// k-major panel, element (k, j) at panel[k * ld + j], read only up to column
// n_dim. One register tile written for both widths (gemm_tiles_inl.hpp): 8
// lanes here, 16 lanes in gemm_avx512.cpp, which is built with -mavx512f and
// reached only when util::decode_lanes reports 16. Both widths run the same
// per-element FMA chain, so they give the same bits.
void gemm_panel_avx2(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                     std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                     std::size_t n_dim);
void gemm_panel_avx512(const float* a, std::size_t rs, std::size_t ks, const float* panel,
                       std::size_t ld, float* c, std::size_t m_dim, std::size_t k_dim,
                       std::size_t n_dim);

// The non-GEMM kernels of one tier (kernels.hpp), each one body over an
// 8-lane trait (kernels_inl.hpp); kernels.cpp dispatches each call to its
// scalar set or to kernels_avx2(). softmax_row writes the first `valid`
// entries only, and sqnorm takes no carry.
struct KernelSet {
    void (*layer_norm_row)(const float*, float*, const float*, const float*, std::size_t, float,
                           float*);
    void (*add_bias_row)(float*, const float*, std::size_t);
    void (*bias_gelu_row)(float*, const float*, std::size_t);
    void (*bias_gelu_backward_row)(const float*, const float*, const float*, float*, float*,
                                   std::size_t);
    void (*softmax_backward_row)(const float*, const float*, float*, std::size_t);
    void (*layer_norm_backward_row)(const float*, const float*, const float*, float, float,
                                    float*, std::size_t);
    double (*sqnorm)(const float*, std::size_t);
    void (*adam_update)(float*, const float*, float*, float*, std::size_t, float, float, float,
                        float, float, float, float, float);
    void (*softmax_row)(const float*, float*, std::size_t valid);
    void (*attention_head)(const float*, const float*, const float*, float*, float*,
                           std::size_t, std::size_t, float);
};

// The avx2 tier's set (kernels_avx2.cpp).
const KernelSet& kernels_avx2();

}  // namespace cpt::nn::detail
