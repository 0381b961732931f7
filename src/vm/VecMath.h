//===- VecMath.h - Vectorized elementary math (SVML/libmvec substitute) ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vectorized implementations of the elementary functions the generated
/// code needs, standing in for Intel SVML / GLIBC libmvec (paper §IV-B).
/// The entry points are specialized to the value ranges SPN inference
/// produces — `exp` of non-positive arguments (log-space differences and
/// Gaussian exponents) and `log1p` on [0, 1] — which makes them short,
/// branch-free polynomial kernels. Each is written once over lane
/// vectors of any width (GCC/Clang vector extensions) and once as a
/// scalar reference; every form gives the same bits per lane, so a row's
/// result does not depend on the lane width it runs at.
///
/// The scalar fall-back path (the "no vector library" configuration of
/// Fig. 6) calls libm through opaque function pointers per lane,
/// reproducing the extract-call-insert cost the paper describes.
///
/// Accuracy: ~1e-5 relative for expNeg, ~1e-6 absolute for log1p01 —
/// below the f32 round-off the compiled kernels accumulate anyway;
/// correctness tests compare against libm with explicit tolerances.
/// Double-precision lanes keep full f64 accuracy via libm (mirroring the
/// double variants of libmvec/SVML), so f64 queries stay comparable to
/// the reference interpreter at 1e-9 (the differential suite's bound).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_VECMATH_H
#define SPNC_VM_VECMATH_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

namespace spnc {
namespace vm {

//===----------------------------------------------------------------------===//
// Branch-free scalar kernels (the reference for the vector kernels)
//===----------------------------------------------------------------------===//

/// exp(x) for x <= 0, branch-free. Inputs below -87 underflow to 0 (they would in f32
/// arithmetic anyway).
inline float fastExpNeg(float X) {
  // Clamp into the representable range; the polynomial needs a bounded
  // fractional part. min/max compile to vminps/vmaxps.
  X = X < -87.0f ? -87.0f : X;
  X = X > 0.0f ? 0.0f : X;
  const float Log2E = 1.44269504088896341f;
  float T = X * Log2E;
  float FloorT = std::floor(T); // vroundps
  float F = T - FloorT;         // in [0, 1)
  // 2^F on [0,1): degree-5 polynomial (max rel. error ~2e-7).
  float P =
      1.0f +
      F * (0.693147180559945f +
           F * (0.240226506959101f +
                F * (0.0555041086648216f +
                     F * (0.00961812910762848f +
                          F * (0.00133335581464284f +
                               F * 0.000154353139101124f)))));
  // Scale by 2^FloorT through the exponent bits.
  int32_t E = static_cast<int32_t>(FloorT);
  float Scale = std::bit_cast<float>((E + 127) << 23);
  return P * Scale;
}

/// log(1 + x) for x in [0, 1], branch-free. Uses the atanh series:
/// log1p(x) = 2 z (1 + z^2/3 + z^4/5 + z^6/7 + z^8/9), z = x / (2 + x).
inline float fastLog1p01(float X) {
  float Z = X / (2.0f + X); // in [0, 1/3]
  float Z2 = Z * Z;
  float Series =
      1.0f +
      Z2 * (0.333333333333333f +
            Z2 * (0.2f + Z2 * (0.142857142857143f + Z2 * 0.111111111111111f)));
  return 2.0f * Z * Series;
}

/// Natural log for strictly positive finite x, branch-free: exponent
/// extraction plus a polynomial on the mantissa shifted to
/// [sqrt(0.5), sqrt(2)). Used by the n-ary log-sum-exp (its summed
/// exponentials lie in [1, n]).
inline float fastLogPos(float X) {
  int32_t Bits = std::bit_cast<int32_t>(X);
  int32_t E = ((Bits >> 23) & 0xff) - 127;
  float M = std::bit_cast<float>((Bits & 0x007fffff) | 0x3f800000);
  // M in [1, 2): the atanh argument F stays within [0, 1/3], where the
  // series below is accurate to ~3e-7 — no mantissa-range shift needed,
  // keeping the kernel straight-line.
  float F = (M - 1.0f) / (M + 1.0f);
  float F2 = F * F;
  float Series =
      1.0f +
      F2 * (0.333333333f +
            F2 * (0.2f + F2 * (0.142857143f +
                               F2 * (0.111111111f + F2 * 0.0909090909f))));
  return 2.0f * F * Series + 0.693147180559945f * static_cast<float>(E);
}

//===----------------------------------------------------------------------===//
// Lane vectors (GCC/Clang vector extensions)
//===----------------------------------------------------------------------===//

/// W lanes of T as one vector value; the lane engine keeps every register
/// in one. Widths past the target's SIMD registers are split by the
/// compiler.
template <typename T, unsigned W> struct LaneVector {
  typedef T type __attribute__((vector_size(W * sizeof(T))));
};
template <typename T, unsigned W>
using Vec = typename LaneVector<T, W>::type;

/// Element type and lane count of a lane vector.
template <typename V> using LaneType = std::remove_cvref_t<decltype(V{}[0])>;
template <typename V>
inline constexpr unsigned NumLanes = sizeof(V) / sizeof(LaneType<V>);

/// The lane vector {F(0), ..., F(W-1)}.
template <typename V, typename Fn, unsigned... L>
inline V makeLanes(Fn &&F, std::integer_sequence<unsigned, L...>) {
  return V{F(L)...};
}
template <typename V, typename Fn> inline V makeLanes(Fn &&F) {
  return makeLanes<V>(F, std::make_integer_sequence<unsigned, NumLanes<V>>{});
}

/// Every lane set to \p X (exact, -0.0 included).
template <typename V> inline V splat(LaneType<V> X) {
  return makeLanes<V>([X](unsigned) { return X; });
}

template <typename V> using LaneInts = Vec<int32_t, NumLanes<V>>;

//===----------------------------------------------------------------------===//
// Vector kernels: any lane count, the scalar kernels' bits in every lane
//===----------------------------------------------------------------------===//

/// fastExpNeg per lane. The floor is a truncation plus a correction,
/// equal to std::floor on the clamped (non-positive) range.
template <typename V> inline V expNegF(V X) {
  using VI = LaneInts<V>;
  X = X < -87.0f ? splat<V>(-87.0f) : X;
  X = X > 0.0f ? V{} : X;
  V T = X * 1.44269504088896341f;
  V Tr = __builtin_convertvector(__builtin_convertvector(T, VI), V);
  V Fl = Tr > T ? Tr - 1.0f : Tr;
  V F = T - Fl;
  V P = 1.0f +
        F * (0.693147180559945f +
             F * (0.240226506959101f +
                  F * (0.0555041086648216f +
                       F * (0.00961812910762848f +
                            F * (0.00133335581464284f +
                                 F * 0.000154353139101124f)))));
  VI E = __builtin_convertvector(Fl, VI);
  V Scale = std::bit_cast<V>((E + 127) << 23);
  return P * Scale;
}

/// fastLogPos per lane.
template <typename V> inline V logPosF(V X) {
  using VI = LaneInts<V>;
  VI Bits = std::bit_cast<VI>(X);
  VI E = ((Bits >> 23) & 0xff) - 127;
  V M = std::bit_cast<V>((Bits & 0x007fffff) | 0x3f800000);
  V F = (M - 1.0f) / (M + 1.0f);
  V F2 = F * F;
  V Series =
      1.0f +
      F2 * (0.333333333f +
            F2 * (0.2f + F2 * (0.142857143f +
                               F2 * (0.111111111f + F2 * 0.0909090909f))));
  return 2.0f * F * Series +
         0.693147180559945f * __builtin_convertvector(E, V);
}

/// fastLog1p01 per lane.
template <typename V> inline V log1p01F(V X) {
  V Z = X / (2.0f + X);
  V Z2 = Z * Z;
  V Series =
      1.0f + Z2 * (0.333333333333333f +
                   Z2 * (0.2f + Z2 * (0.142857142857143f +
                                      Z2 * 0.111111111111111f)));
  return 2.0f * Z * Series;
}

/// Applies \p F to every lane of \p X.
template <typename V, typename Fn> inline V perLane(V X, Fn &&F) {
  return makeLanes<V>([&](unsigned L) { return F(X[L]); });
}

//===----------------------------------------------------------------------===//
// The vector library: exp/log on lane vectors
//===----------------------------------------------------------------------===//
//
// f32 lanes run the polynomial kernels above. f64 lanes keep full f64
// accuracy through libm per lane: the polynomials are tuned to f32
// round-off, and funnelling f64 lanes through them would truncate a
// double-precision query to ~1e-5 -- the real vector libraries this
// header stands in for (libmvec/SVML) ship dedicated double variants
// accurate to ~1 ulp, which plain libm per lane reproduces.

/// exp of non-positive lanes.
template <typename V> inline V expNeg(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return expNegF(X);
  else
    return perLane(X, [](double D) { return std::exp(D > 0.0 ? 0.0 : D); });
}

/// log(1 + x) of lanes in [0, 1].
template <typename V> inline V log1p01(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return log1p01F(X);
  else
    return perLane(X, [](double D) { return std::log1p(D); });
}

/// log of strictly positive lanes.
template <typename V> inline V logPos(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return logPosF(X);
  else
    return perLane(X, [](double D) { return std::log(D); });
}

//===----------------------------------------------------------------------===//
// Lane-array entry points
//===----------------------------------------------------------------------===//

namespace detail {

/// Applies the 8-lane form of \p Fn over \p Lanes values; a partial
/// last group is padded with zeros.
template <typename T, typename Fn>
inline void mapLanes(const T *Input, T *Output, size_t Lanes, Fn &&F) {
  using V = Vec<T, 8>;
  for (size_t I = 0; I < Lanes; I += 8) {
    size_t N = Lanes - I < 8 ? Lanes - I : 8;
    V X{};
    __builtin_memcpy(&X, Input + I, N * sizeof(T));
    V Y = F(X);
    __builtin_memcpy(Output + I, &Y, N * sizeof(T));
  }
}

} // namespace detail

template <typename T>
inline void vecExpNeg(const T *Input, T *Output, size_t Lanes) {
  detail::mapLanes(Input, Output, Lanes, [](auto X) { return expNeg(X); });
}

template <typename T>
inline void vecLogPos(const T *Input, T *Output, size_t Lanes) {
  detail::mapLanes(Input, Output, Lanes, [](auto X) { return logPos(X); });
}

//===----------------------------------------------------------------------===//
// Scalar libm fall-back (the "no vector library" configuration)
//===----------------------------------------------------------------------===//

/// Opaque scalar function pointers. Calling through these per lane
/// defeats auto-vectorization and forces a real libm call — exactly the
/// "extract, scalar call, insert" behaviour of vector code without a
/// vector library (paper Fig. 6).
extern float (*const volatile ScalarExpF)(float);
extern float (*const volatile ScalarLog1pF)(float);
extern float (*const volatile ScalarLogF)(float);
extern double (*const volatile ScalarExpD)(double);
extern double (*const volatile ScalarLog1pD)(double);
extern double (*const volatile ScalarLogD)(double);

/// libm per lane through the opaque pointers above.
template <typename V> inline V libmExp(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return perLane(X, [](float F) { return ScalarExpF(F); });
  else
    return perLane(X, [](double D) { return ScalarExpD(D); });
}

template <typename V> inline V libmLog1p(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return perLane(X, [](float F) { return ScalarLog1pF(F); });
  else
    return perLane(X, [](double D) { return ScalarLog1pD(D); });
}

template <typename V> inline V libmLog(V X) {
  if constexpr (std::is_same_v<LaneType<V>, float>)
    return perLane(X, [](float F) { return ScalarLogF(F); });
  else
    return perLane(X, [](double D) { return ScalarLogD(D); });
}

template <typename T>
inline void scalarExp(const T *Input, T *Output, size_t Lanes) {
  detail::mapLanes(Input, Output, Lanes, [](auto X) { return libmExp(X); });
}

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_VECMATH_H
