//===- vm/LaneSimd.h - SIMD row primitives for the lane banks -------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row-at-a-time arithmetic over the lane-major register banks
/// (LaneState.h): one call covers a full register row — every lane's copy
/// of one dense register — with the widest integer vectors the build
/// target offers. x86-64 builds get SSE2 (2 x int64, the architectural
/// baseline, no extra flags) and widen to AVX2 (4 x int64) when the
/// compiler was invoked with it; every other target takes the portable
/// scalar loop, which modern compilers auto-vectorize where possible and
/// which doubles as the differential oracle for the intrinsic paths.
///
/// 64-bit multiply has no packed form below AVX-512DQ, so the mul rows
/// stay scalar on every tier; adds, subs, broadcasts and fills vectorize.
///
/// These operate on raw rows and know nothing about colors or active-lane
/// sets — LaneEngine only dispatches here for full-width
/// groups, where "every lane" and "the whole row" coincide.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_LANESIMD_H
#define TALFT_VM_LANESIMD_H

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define TALFT_LANESIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define TALFT_LANESIMD_SSE2 1
#endif

namespace talft::vm::simd {

/// int64 lanes per vector operation on this build: 4 (AVX2), 2 (SSE2),
/// 1 (portable scalar). Campaign stats surface this so perf runs record
/// which tier produced them.
inline constexpr unsigned laneWidth() {
#if defined(TALFT_LANESIMD_AVX2)
  return 4;
#elif defined(TALFT_LANESIMD_SSE2)
  return 2;
#else
  return 1;
#endif
}

/// D[i] = A[i] + B[i] over a full row. Rows may alias exactly (D == A or
/// D == B): each chunk loads both operands before storing.
inline void addRows(int64_t *D, const int64_t *A, const int64_t *B,
                    unsigned N) {
  unsigned I = 0;
#if defined(TALFT_LANESIMD_AVX2)
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256(
        (__m256i *)(D + I),
        _mm256_add_epi64(_mm256_loadu_si256((const __m256i *)(A + I)),
                         _mm256_loadu_si256((const __m256i *)(B + I))));
#elif defined(TALFT_LANESIMD_SSE2)
  for (; I + 2 <= N; I += 2)
    _mm_storeu_si128(
        (__m128i *)(D + I),
        _mm_add_epi64(_mm_loadu_si128((const __m128i *)(A + I)),
                      _mm_loadu_si128((const __m128i *)(B + I))));
#endif
  for (; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] + (uint64_t)B[I]);
}

/// D[i] = A[i] - B[i] over a full row.
inline void subRows(int64_t *D, const int64_t *A, const int64_t *B,
                    unsigned N) {
  unsigned I = 0;
#if defined(TALFT_LANESIMD_AVX2)
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256(
        (__m256i *)(D + I),
        _mm256_sub_epi64(_mm256_loadu_si256((const __m256i *)(A + I)),
                         _mm256_loadu_si256((const __m256i *)(B + I))));
#elif defined(TALFT_LANESIMD_SSE2)
  for (; I + 2 <= N; I += 2)
    _mm_storeu_si128(
        (__m128i *)(D + I),
        _mm_sub_epi64(_mm_loadu_si128((const __m128i *)(A + I)),
                      _mm_loadu_si128((const __m128i *)(B + I))));
#endif
  for (; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] - (uint64_t)B[I]);
}

/// D[i] = A[i] * B[i]. Scalar on every tier (see the file comment).
inline void mulRows(int64_t *D, const int64_t *A, const int64_t *B,
                    unsigned N) {
  for (unsigned I = 0; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] * (uint64_t)B[I]);
}

/// D[i] = A[i] + Imm over a full row.
inline void addRowImm(int64_t *D, const int64_t *A, int64_t Imm, unsigned N) {
  unsigned I = 0;
#if defined(TALFT_LANESIMD_AVX2)
  __m256i V = _mm256_set1_epi64x(Imm);
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256(
        (__m256i *)(D + I),
        _mm256_add_epi64(_mm256_loadu_si256((const __m256i *)(A + I)), V));
#elif defined(TALFT_LANESIMD_SSE2)
  __m128i V = _mm_set1_epi64x(Imm);
  for (; I + 2 <= N; I += 2)
    _mm_storeu_si128(
        (__m128i *)(D + I),
        _mm_add_epi64(_mm_loadu_si128((const __m128i *)(A + I)), V));
#endif
  for (; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] + (uint64_t)Imm);
}

/// D[i] = A[i] - Imm over a full row.
inline void subRowImm(int64_t *D, const int64_t *A, int64_t Imm, unsigned N) {
  unsigned I = 0;
#if defined(TALFT_LANESIMD_AVX2)
  __m256i V = _mm256_set1_epi64x(Imm);
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256(
        (__m256i *)(D + I),
        _mm256_sub_epi64(_mm256_loadu_si256((const __m256i *)(A + I)), V));
#elif defined(TALFT_LANESIMD_SSE2)
  __m128i V = _mm_set1_epi64x(Imm);
  for (; I + 2 <= N; I += 2)
    _mm_storeu_si128(
        (__m128i *)(D + I),
        _mm_sub_epi64(_mm_loadu_si128((const __m128i *)(A + I)), V));
#endif
  for (; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] - (uint64_t)Imm);
}

/// D[i] = A[i] * Imm. Scalar on every tier.
inline void mulRowImm(int64_t *D, const int64_t *A, int64_t Imm, unsigned N) {
  for (unsigned I = 0; I != N; ++I)
    D[I] = (int64_t)((uint64_t)A[I] * (uint64_t)Imm);
}

/// D[i] = Imm over a full row (the mov broadcast).
inline void fillRow(int64_t *D, int64_t Imm, unsigned N) {
  unsigned I = 0;
#if defined(TALFT_LANESIMD_AVX2)
  __m256i V = _mm256_set1_epi64x(Imm);
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_si256((__m256i *)(D + I), V);
#elif defined(TALFT_LANESIMD_SSE2)
  __m128i V = _mm_set1_epi64x(Imm);
  for (; I + 2 <= N; I += 2)
    _mm_storeu_si128((__m128i *)(D + I), V);
#endif
  for (; I != N; ++I)
    D[I] = Imm;
}

} // namespace talft::vm::simd

#endif // TALFT_VM_LANESIMD_H
