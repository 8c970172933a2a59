// Runtime CPU-feature detection for SIMD dispatch.
//
// The CRC-32C checksum (util/crc32c) behind the binary trace and
// experiment snapshots picks between its SSE4.2 and scalar code paths at
// runtime. This helper holds the probing (one CPUID-backed query, cached
// for the process) and the override knobs:
//
//  * compile time: building with -DHISTPC_ENABLE_SIMD=OFF removes every
//    intrinsic code path, and cpu_features() reports Scalar;
//  * run time: HISTPC_NO_SIMD=1 forces Scalar, HISTPC_SIMD=scalar|sse4.2|
//    avx2 caps the selected level (useful for A/B benchmarks and the CI
//    scalar-fallback leg).
//
// The first call logs one Info line naming the detected and selected
// lanes, so a log always records which code paths were in use.
#pragma once

namespace histpc::util {

/// Instruction-set tiers the kernels dispatch on, in strength order.
enum class SimdLevel { Scalar = 0, Sse42 = 1, Avx2 = 2 };

const char* simd_level_name(SimdLevel level);

struct CpuFeatures {
  bool has_sse42 = false;  ///< raw hardware capability
  bool has_avx2 = false;   ///< raw hardware capability
  /// Level the process should use: hardware capability capped by the
  /// HISTPC_ENABLE_SIMD build option and the HISTPC_NO_SIMD / HISTPC_SIMD
  /// environment toggles.
  SimdLevel selected = SimdLevel::Scalar;
};

/// Cached process-wide probe; thread-safe (static-init once). The first
/// call emits the one-time "cpu features" log line.
const CpuFeatures& cpu_features();

}  // namespace histpc::util
