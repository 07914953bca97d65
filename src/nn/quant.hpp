// Int8 weight-quantized decode path (DESIGN.md §12).
//
// Weights are quantized offline, per output row, symmetric:
//   wscale[r] = max_j |W[r,j]| / 127,  wq[r,j] = round(W[r,j] / wscale[r])
// Activations are quantized per row at decode time to SEVEN bits:
//   amax = max_j |x[j]|, ascale = amax / 63, q[j] = round(x[j] / ascale)
// and stored offset-64 as u8 codes ua = q + 64 in [1, 127]. The integer dot
//   idot = sum_k ua[k] * wq[j,k]
// then recovers the real dot via the row sum of wq:
//   y[j] += (ascale * wscale[j]) * float(idot - 64 * rowsum[j])
//
// Why 7-bit offset codes: the AVX2 kernel uses VPMADDUBSW (u8 x s8 ->
// saturating i16 pair sums). With ua <= 127 and |wq| <= 127 a pair sum is at
// most 2*127*127 = 32258 < 32767, so saturation can never fire and the
// instruction computes the exact integer sum. Every tier therefore produces
// the SAME int32 dot (integer addition is associative), and the float
// epilogue is one fixed scalar expression compiled without FMA — so the
// quantized matmul output is byte-identical across scalar/sse2/avx2, a
// strictly stronger contract than the fp32 kernels. Like the rest of the
// decode path, every function here runs on its caller's thread.
//
// Rounding: activation codes use std::nearbyintf under the default
// round-to-nearest-even mode, the same rounding VCVTPS2DQ performs, so a
// future vectorized quantizer could not drift either.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "modules.hpp"

namespace cpt::nn {

// Decode-path numeric mode. kInt8W8A32 = int8 weights with int32 integer
// accumulation (fp32 epilogue) plus the fp16-storage KV cache.
enum class Precision { kFp32, kInt8W8A32 };

const char* precision_name(Precision p);
// Accepts "fp32" / "int8" (alias "int8_w8a32"); throws std::invalid_argument.
Precision parse_precision(const std::string& s);

// Reusable per-call activation-quantization buffers (no allocation in the
// decode hot loop once sized).
struct QuantScratch {
    std::vector<std::uint8_t> qa;  // [rows, k] offset-64 codes
    std::vector<float> ascale;     // [rows]
    void ensure(std::size_t rows, std::size_t k);
};

// Per-row 7-bit activation quantization into qs (scalar ascending arithmetic
// on every tier; cost is O(rows*k), negligible next to the O(rows*k*n)
// matmul it feeds).
void quantize_activations(const float* x, std::size_t rows, std::size_t k, QuantScratch& qs);

// Offline per-row symmetric weight quantization of a row-major [out, in]
// matrix, its exact inverse map, and the rowsum the epilogue needs.
void quantize_weights_rowwise(const float* w, std::size_t out, std::size_t in, std::int8_t* wq,
                              float* scale);
void dequantize_weights_rowwise(const std::int8_t* wq, const float* scale, std::size_t out,
                                std::size_t in, float* w);
void rowsums_q8(const std::int8_t* wq, std::size_t out, std::size_t in, std::int32_t* rowsum);

// C[M,N] += dequant(QA[M,K] * WQ^T), WQ stored [N,K] like gemm_nt. Each
// output element is exact-integer + one fixed float epilogue, so the result
// is byte-identical across tiers and independent of the row count.
void gemm_q8_nt(const std::uint8_t* qa, const float* ascale, const std::int8_t* wq,
                const float* wscale, const std::int32_t* wrowsum, float* c, std::size_t m_dim,
                std::size_t k_dim, std::size_t n_dim);

// Quantized mirror of Linear ([out, in] weight + bias). Built from a trained
// Linear, or installed directly from a quantized checkpoint section (the
// latter preserves the exact payload — requantizing a dequantized matrix can
// drift by 1 ulp in the scales).
struct QuantLinear {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<std::int8_t> wq;       // [out, in]
    std::vector<float> scale;          // [out]
    std::vector<std::int32_t> rowsum;  // [out]
    std::vector<float> bias;           // [out]

    static QuantLinear from(const Linear& fp);
    // Replaces the payload with checkpoint data (sizes must match in*out /
    // out); recomputes rowsum.
    void install(std::vector<std::int8_t> wq_in, std::vector<float> scale_in);

    // y = bias + x W^T (overwrites y), quantizing x into qs first.
    void forward_rows(const float* x, float* y, std::size_t rows, QuantScratch& qs) const;
    // Accumulates x W^T into y without touching the bias (the fc1 path folds
    // its bias into the fused GELU epilogue).
    void apply_rows(const float* x, float* y, std::size_t rows, QuantScratch& qs) const;

    std::size_t weight_bytes() const {
        return wq.size() * sizeof(std::int8_t) + scale.size() * sizeof(float) +
               rowsum.size() * sizeof(std::int32_t) + bias.size() * sizeof(float);
    }
};

// Quantized mirror of Mlp: y = fc2(gelu(fc1(x))) with the fused bias+GELU
// epilogue between the two quantized matmuls.
struct QuantMlp {
    QuantLinear fc1;
    QuantLinear fc2;

    static QuantMlp from(const Mlp& fp);
    void forward_rows(const float* x, float* hidden, float* y, std::size_t rows,
                      QuantScratch& qs) const;
    std::size_t weight_bytes() const { return fc1.weight_bytes() + fc2.weight_bytes(); }
};

// Quantized projections of a Transformer backbone. LayerNorms, positions and
// the residual stream stay fp32 (they are O(d) per token — quantizing them
// buys nothing and costs accuracy); only the O(d^2) matmul weights shrink.
struct TransformerQuant {
    struct Block {
        QuantLinear wq;
        QuantLinear wk;
        QuantLinear wv;
        QuantLinear wo;
        QuantMlp mlp;
    };

    QuantLinear input_proj;
    std::vector<Block> blocks;

    static TransformerQuant from(const Transformer& model);
    std::size_t weight_bytes() const;
};

}  // namespace cpt::nn
