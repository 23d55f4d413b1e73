// SIMD kernels for the hot loops, behind runtime dispatch.
//
// The arena/CSR storage layouts exist so the hot loops — MinHash slot
// updates, batch ASCII lowercasing, sketch equality counting, charset
// classification — run over contiguous byte/word buffers. This header is
// the single place those loops are vectorized. Every kernel computes the
// SAME function as its scalar twin, bit for bit: the codebase's
// determinism contract is bit-identical *outputs*, not merely identical
// scores, so no kernel is allowed to reassociate floating point, change a
// hash, or reorder a tie-break. The kernel-equivalence test suite
// (`ctest -L simd`) proves every kernel against its scalar twin over all
// 256 byte values, lengths spanning the vector width, and unaligned
// offsets — and runs twice, once per dispatch level.
//
// Dispatch: the active level is resolved once on first use — AVX2 when the
// CPU reports it (and the build knows x86), scalar otherwise — and can be
// pinned two ways:
//   - `TJ_FORCE_SCALAR=1` in the environment forces scalar before main()
//     runs (the CI flow runs the whole test suite under it);
//   - `SetActiveLevel()` switches levels at runtime (clamped to what the
//     CPU supports) so tests and benches can compare levels in-process.
// Kernels are pure functions of their arguments; switching levels between
// calls is safe at any point no kernel is concurrently executing.

#ifndef TJ_COMMON_SIMD_H_
#define TJ_COMMON_SIMD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tj {
namespace simd {

/// Dispatch levels, ordered: a higher level strictly extends the lower.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Name for logs and bench JSON ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

/// Best level this machine can run: CPUID-probed at first call, forced to
/// kScalar when TJ_FORCE_SCALAR is set (to anything) in the environment.
SimdLevel BestSupportedLevel();

/// The level the dispatched kernels below currently run at. Starts at
/// BestSupportedLevel().
SimdLevel ActiveLevel();

/// Pins the dispatched kernels to `level`, clamped to BestSupportedLevel()
/// (asking for AVX2 on a machine without it yields scalar). Returns the
/// level actually installed. Test/bench hook; not meant to be raced with
/// in-flight kernel calls.
SimdLevel SetActiveLevel(SimdLevel level);

// ---------------------------------------------------------------------------
// Dispatched kernels. Each has scalar and (on x86-64) AVX2 twins below;
// these wrappers route through the active level's function table.
// ---------------------------------------------------------------------------

/// MinHash slot update: for each of the n slots,
///   h = Mix64(base ^ slot_seeds[i]); minhash[i] = min(minhash[i], h).
/// The inner loop of ComputeColumnSignature — called once per distinct
/// gram with n = kSketchSlots (128, corpus/signature.h).
void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                   uint64_t* minhash, size_t n);

/// Batch ASCII lowercase: dst[i] = ToLowerAsciiChar(src[i]) for i < n.
/// src == dst (in-place) and disjoint buffers are both allowed; partial
/// overlap is not.
void LowerAscii(const char* src, char* dst, size_t n);

/// Number of positions where a[i] == b[i]. The sketch match count of
/// EstimateJaccard.
size_t CountEqualU64(const uint64_t* a, const uint64_t* b, size_t n);

/// OR of the per-byte charset-class bits over s[0..n): the charset_mask
/// accumulation of ComputeColumnSignature. Bit values are pinned to
/// corpus/signature.h's CharsetBit enum by static_asserts there.
uint32_t CharsetMask(const char* s, size_t n);

// ---------------------------------------------------------------------------
// Charset classification (shared by the kernels and their tests).
// ---------------------------------------------------------------------------

/// Charset-class bits. Mirrors corpus/signature.h CharsetBit (that header
/// static_asserts the correspondence; common/ cannot include corpus/).
inline constexpr uint32_t kCharsetLowerBit = 1u << 0;
inline constexpr uint32_t kCharsetUpperBit = 1u << 1;
inline constexpr uint32_t kCharsetDigitBit = 1u << 2;
inline constexpr uint32_t kCharsetSpaceBit = 1u << 3;
inline constexpr uint32_t kCharsetPunctBit = 1u << 4;
inline constexpr uint32_t kCharsetOtherBit = 1u << 5;

/// Branchy reference classification of one byte — the definition the LUT
/// and the vector kernel must reproduce (asserted exhaustively in the simd
/// test suite).
constexpr uint32_t CharsetBitOfByteReference(unsigned char c) {
  if (c >= 'a' && c <= 'z') return kCharsetLowerBit;
  if (c >= 'A' && c <= 'Z') return kCharsetUpperBit;
  if (c >= '0' && c <= '9') return kCharsetDigitBit;
  if (c == ' ' || c == '\t') return kCharsetSpaceBit;
  if (c > ' ' && c < 0x7f) return kCharsetPunctBit;  // printable non-alnum
  return kCharsetOtherBit;  // non-ASCII / control bytes
}

/// 256-entry LUT of CharsetBitOfByteReference — the scalar fast path
/// (wins over the branch chain even without vectorization).
extern const std::array<uint32_t, 256> kCharsetLut;

// ---------------------------------------------------------------------------
// Per-level twins, exposed for the equivalence tests (call the dispatched
// wrappers above everywhere else).
// ---------------------------------------------------------------------------

namespace scalar {
void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                   uint64_t* minhash, size_t n);
void LowerAscii(const char* src, char* dst, size_t n);
size_t CountEqualU64(const uint64_t* a, const uint64_t* b, size_t n);
uint32_t CharsetMask(const char* s, size_t n);
}  // namespace scalar

#if defined(__x86_64__) || defined(__i386__)
#define TJ_SIMD_HAS_AVX2_BUILD 1
namespace avx2 {
// Compiled with __attribute__((target("avx2"))): present in every build,
// but only safe to CALL when BestSupportedLevel() >= kAvx2.
void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                   uint64_t* minhash, size_t n);
void LowerAscii(const char* src, char* dst, size_t n);
size_t CountEqualU64(const uint64_t* a, const uint64_t* b, size_t n);
uint32_t CharsetMask(const char* s, size_t n);
}  // namespace avx2
#endif  // x86

/// Parses "scalar"/"avx2"/"auto" (case-sensitive) for the CLI --simd
/// flags. Returns false on anything else. "auto" yields
/// BestSupportedLevel().
bool ParseSimdLevel(std::string_view text, SimdLevel* out);

}  // namespace simd
}  // namespace tj

#endif  // TJ_COMMON_SIMD_H_
