/**
 * @file
 * Two-lane double vectors for the RL kernels: SSE2 (the x86-64 baseline
 * ISA) where available, plain scalar pairs elsewhere. Every operation
 * is one IEEE-754 operation per lane — the same rounding as the scalar
 * instruction — so a kernel written with these helpers produces the
 * bit pattern of its scalar loop. No fused or reassociated forms exist
 * here on purpose (DESIGN.md, "Numerics contract of src/rl").
 */
#pragma once

#if defined(__SSE2__)
#include <emmintrin.h>
#else
#include <cmath>
#endif

namespace fleetio::rl::simd {

#if defined(__SSE2__)

using V2 = __m128d;

inline V2 load(const double *p) { return _mm_loadu_pd(p); }
inline void store(double *p, V2 v) { _mm_storeu_pd(p, v); }
inline V2 set1(double x) { return _mm_set1_pd(x); }
inline V2 zero() { return _mm_setzero_pd(); }
inline V2 add(V2 a, V2 b) { return _mm_add_pd(a, b); }
inline V2 sub(V2 a, V2 b) { return _mm_sub_pd(a, b); }
inline V2 mul(V2 a, V2 b) { return _mm_mul_pd(a, b); }
inline V2 div(V2 a, V2 b) { return _mm_div_pd(a, b); }
inline V2 sqrt(V2 a) { return _mm_sqrt_pd(a); }

#else

struct V2
{
    double lo, hi;
};

inline V2 load(const double *p) { return {p[0], p[1]}; }
inline void store(double *p, V2 v)
{
    p[0] = v.lo;
    p[1] = v.hi;
}
inline V2 set1(double x) { return {x, x}; }
inline V2 zero() { return {0.0, 0.0}; }
inline V2 add(V2 a, V2 b) { return {a.lo + b.lo, a.hi + b.hi}; }
inline V2 sub(V2 a, V2 b) { return {a.lo - b.lo, a.hi - b.hi}; }
inline V2 mul(V2 a, V2 b) { return {a.lo * b.lo, a.hi * b.hi}; }
inline V2 div(V2 a, V2 b) { return {a.lo / b.lo, a.hi / b.hi}; }
inline V2 sqrt(V2 a) { return {std::sqrt(a.lo), std::sqrt(a.hi)}; }

#endif

}  // namespace fleetio::rl::simd
