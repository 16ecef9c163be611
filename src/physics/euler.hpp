// Compressible Euler equations in D dimensions.
//
// Conserved state: [rho, momentum_0..momentum_{D-1}, total energy].
// Used by the comet and Sod shock-tube examples (refs [3],[4] workloads).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

template <int D>
struct Euler {
  static constexpr int NVAR = D + 2;
  static constexpr bool kHasSource = false;
  using State = std::array<double, NVAR>;

  double gamma = 1.4;

  static constexpr int irho() { return 0; }
  static constexpr int imom(int d) { return 1 + d; }
  static constexpr int ieng() { return D + 1; }

  double pressure(const State& u) const {
    double ke = 0.0;
    for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
    ke *= 0.5 / u[irho()];
    return (gamma - 1.0) * (u[ieng()] - ke);
  }

  double sound_speed(const State& u) const {
    double p = pressure(u);
    return std::sqrt(gamma * (p > 0 ? p : 0.0) / u[irho()]);
  }

  void flux(const State& u, int dir, State& f) const {
    const double rho = u[irho()];
    const double vd = u[imom(dir)] / rho;
    const double p = pressure(u);
    f[irho()] = u[imom(dir)];
    for (int d = 0; d < D; ++d) f[imom(d)] = u[imom(d)] * vd;
    f[imom(dir)] += p;
    f[ieng()] = (u[ieng()] + p) * vd;
  }

  void signal_speeds(const State& u, int dir, double& lmin,
                     double& lmax) const {
    const double vd = u[imom(dir)] / u[irho()];
    const double c = sound_speed(u);
    lmin = vd - c;
    lmax = vd + c;
  }

  /// Fused flux + signal speeds: evaluates the same expressions as flux()
  /// followed by signal_speeds(), sharing the per-state divisions (velocity,
  /// pressure) both need — bitwise-identical results at roughly half the
  /// division count. The kernel's Rusanov/HLL path picks this overload up
  /// when present.
  void flux_and_speeds(const State& u, int dir, State& f, double& lmin,
                       double& lmax) const {
    const double rho = u[irho()];
    const double vd = u[imom(dir)] / rho;
    double ke = 0.0;
    for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
    ke *= 0.5 / rho;
    const double p = (gamma - 1.0) * (u[ieng()] - ke);
    f[irho()] = u[imom(dir)];
    for (int d = 0; d < D; ++d) f[imom(d)] = u[imom(d)] * vd;
    f[imom(dir)] += p;
    f[ieng()] = (u[ieng()] + p) * vd;
    const double c = std::sqrt(gamma * (p > 0 ? p : 0.0) / rho);
    lmin = vd - c;
    lmax = vd + c;
  }

  /// Row form of the Rusanov flux over `nf` faces: face i's left/right
  /// state variable v is read from pL[v*sL + i] / pR[v*sR + i] (stride-1 in
  /// i), flux component v is written to F[v*lane + i]. Evaluates exactly
  /// the expressions of flux_and_speeds + the Rusanov combine per face, as
  /// flat branch-free loops the compiler can vectorize; results are
  /// bitwise identical to the per-face path. The sweep direction is a
  /// template parameter so the momentum-component selection is resolved at
  /// compile time.
  template <int dirc>
  void rusanov_flux_row_impl(const double* AB_RESTRICT pL, std::int64_t sL,
                             const double* AB_RESTRICT pR, std::int64_t sR,
                             double* AB_RESTRICT F, std::int64_t lane,
                             int nf) const {
    // Hoisted per-variable unit-stride pointers. The left/right state
    // pointers may alias each other (dim-0 passes adjacent cells of one
    // lane) but are only read; F is only written and never overlaps the
    // inputs — so restrict is valid and lets the vectorizer analyze the
    // data refs.
    const double* AB_RESTRICT rhoL = pL + irho() * sL;
    const double* AB_RESTRICT rhoR = pR + irho() * sR;
    const double* AB_RESTRICT engL = pL + ieng() * sL;
    const double* AB_RESTRICT engR = pR + ieng() * sR;
    // Named per-component momentum pointers (D <= 3); components past D-1
    // alias component 0 and are never dereferenced — the if constexpr
    // chains below keep every access and store straight-line so the face
    // loop is a single basic block the vectorizer accepts.
    const double* AB_RESTRICT mL0 = pL + imom(0) * sL;
    const double* AB_RESTRICT mR0 = pR + imom(0) * sR;
    const double* AB_RESTRICT mL1 = D >= 2 ? pL + imom(1) * sL : mL0;
    const double* AB_RESTRICT mR1 = D >= 2 ? pR + imom(1) * sR : mR0;
    const double* AB_RESTRICT mL2 = D >= 3 ? pL + imom(2) * sL : mL0;
    const double* AB_RESTRICT mR2 = D >= 3 ? pR + imom(2) * sR : mR0;
    double* AB_RESTRICT Frho = F + irho() * lane;
    double* AB_RESTRICT Feng = F + ieng() * lane;
    double* AB_RESTRICT Fm0 = F + imom(0) * lane;
    double* AB_RESTRICT Fm1 = D >= 2 ? F + imom(1) * lane : Fm0;
    double* AB_RESTRICT Fm2 = D >= 3 ? F + imom(2) * lane : Fm0;
    const double* AB_RESTRICT mLd = dirc == 0 ? mL0 : (dirc == 1 ? mL1 : mL2);
    const double* AB_RESTRICT mRd = dirc == 0 ? mR0 : (dirc == 1 ? mR1 : mR2);
    // Local copies: the compiler must otherwise reload the member each
    // iteration (the F stores could alias *this), which leaves the loop
    // latch non-empty and blocks vectorization.
    const double g = gamma;
    const double gm1 = g - 1.0;
    for (int i = 0; i < nf; ++i) {  // must-vectorize
      const double rl = rhoL[i];
      const double rr = rhoR[i];
      const double el = engL[i];
      const double er = engR[i];
      const double vl = mLd[i] / rl;
      const double vr = mRd[i] / rr;
      double kel = mL0[i] * mL0[i];
      double ker = mR0[i] * mR0[i];
      if constexpr (D >= 2) {
        kel += mL1[i] * mL1[i];
        ker += mR1[i] * mR1[i];
      }
      if constexpr (D >= 3) {
        kel += mL2[i] * mL2[i];
        ker += mR2[i] * mR2[i];
      }
      kel *= 0.5 / rl;
      ker *= 0.5 / rr;
      const double pl = gm1 * (el - kel);
      const double pr = gm1 * (er - ker);
      // 0.5*(p + |p|) is bitwise-identical to (p > 0 ? p : 0.0) for any
      // non-NaN p (doubling/halving are exact; negatives give +0.0), but
      // branchless, which the loop vectorizer needs.
      const double cl = std::sqrt(g * (0.5 * (pl + std::fabs(pl))) / rl);
      const double cr = std::sqrt(g * (0.5 * (pr + std::fabs(pr))) / rr);
      // max(|vl - cl|, |vl + cl|, |vr - cr|, |vr + cr|), in the per-face
      // path's association order. Non-negative doubles order exactly like
      // their bit patterns, so taking the max over the bit-cast integers
      // matches std::max over the fabs values bit-for-bit while staying
      // branchless (float std::max keeps a branch the vectorizer rejects).
      std::uint64_t sb = std::bit_cast<std::uint64_t>(std::fabs(vl - cl));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vl + cl)));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vr - cr)));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vr + cr)));
      const double s = std::bit_cast<double>(sb);
      Frho[i] = 0.5 * (mLd[i] + mRd[i]) - 0.5 * s * (rr - rl);
      {
        double fl = mL0[i] * vl;
        double fr = mR0[i] * vr;
        if constexpr (dirc == 0) {
          fl += pl;
          fr += pr;
        }
        Fm0[i] = 0.5 * (fl + fr) - 0.5 * s * (mR0[i] - mL0[i]);
      }
      if constexpr (D >= 2) {
        double fl = mL1[i] * vl;
        double fr = mR1[i] * vr;
        if constexpr (dirc == 1) {
          fl += pl;
          fr += pr;
        }
        Fm1[i] = 0.5 * (fl + fr) - 0.5 * s * (mR1[i] - mL1[i]);
      }
      if constexpr (D >= 3) {
        double fl = mL2[i] * vl;
        double fr = mR2[i] * vr;
        if constexpr (dirc == 2) {
          fl += pl;
          fr += pr;
        }
        Fm2[i] = 0.5 * (fl + fr) - 0.5 * s * (mR2[i] - mL2[i]);
      }
      Feng[i] =
          0.5 * ((el + pl) * vl + (er + pr) * vr) - 0.5 * s * (er - el);
    }
  }

  void rusanov_flux_row(int dir, const double* pL, std::int64_t sL,
                        const double* pR, std::int64_t sR, double* F,
                        std::int64_t lane, int nf) const {
    if (dir == 0) {
      rusanov_flux_row_impl<0>(pL, sL, pR, sR, F, lane, nf);
    } else if constexpr (D >= 2) {
      if (dir == 1) {
        rusanov_flux_row_impl<1>(pL, sL, pR, sR, F, lane, nf);
      } else if constexpr (D >= 3) {
        rusanov_flux_row_impl<2>(pL, sL, pR, sR, F, lane, nf);
      }
    }
  }

  double max_speed(const State& u, int dir) const {
    double lmin, lmax;
    signal_speeds(u, dir, lmin, lmax);
    double a = std::fabs(lmin), b = std::fabs(lmax);
    return a > b ? a : b;
  }

  /// Row form of the CFL scan over `n` cells: cell i's variable v is read
  /// from u[v*fs + i], and out[i] = sum over d of max_speed(u, d) / dx[d],
  /// the per-cell value block_wave_speed_sum folds. Same expressions as
  /// max_speed, made branch-free as in rusanov_flux_row_impl (the pressure
  /// clamp as 0.5*(p + |p|), the |lmin|/|lmax| max over bit patterns), so
  /// the values are bitwise equal for every non-NaN pressure, and a corrupt
  /// state (NaN anywhere, negative density) yields a NaN.
  void wave_speed_row(const double* AB_RESTRICT u, std::int64_t fs,
                      const RVec<D>& dx, double* AB_RESTRICT out,
                      int n) const {
    const double* AB_RESTRICT rho = u + irho() * fs;
    const double* AB_RESTRICT eng = u + ieng() * fs;
    const double* AB_RESTRICT m[D];
    for (int d = 0; d < D; ++d) m[d] = u + imom(d) * fs;
    // Local copies, as in rusanov_flux_row_impl: `out` could alias *this
    // and `dx`, which would force reloads in the loop.
    const double g = gamma;
    const double gm1 = g - 1.0;
    const RVec<D> h = dx;
    AB_IVDEP
    for (int i = 0; i < n; ++i) {  // must-vectorize
      const double r = rho[i];
      // Accumulated from 0.0 as in pressure(): under FMA contraction that
      // fixes which product fuses, so -march=native builds round alike too.
      double ke = 0.0;
      for (int d = 0; d < D; ++d) ke += m[d][i] * m[d][i];
      ke *= 0.5 / r;
      const double p = gm1 * (eng[i] - ke);
      const double c = std::sqrt(g * (0.5 * (p + std::fabs(p))) / r);
      double sum = 0.0;
      for (int d = 0; d < D; ++d) {
        const double vd = m[d][i] / r;
        const std::uint64_t sb =
            std::max(std::bit_cast<std::uint64_t>(std::fabs(vd - c)),
                     std::bit_cast<std::uint64_t>(std::fabs(vd + c)));
        sum += std::bit_cast<double>(sb) / h[d];
      }
      out[i] = sum;
    }
  }

  /// Roe's approximate Riemann solver with a Harten entropy fix. Unlike
  /// Rusanov/HLL it resolves stationary contact discontinuities exactly —
  /// the property that keeps material interfaces sharp. Selected via
  /// FluxScheme::Roe in the kernel (only physics providing roe_flux accept
  /// that scheme).
  void roe_flux(const State& uL, const State& uR, int dir, State& F) const {
    // Left/right primitives.
    const double rl = uL[irho()], rr = uR[irho()];
    RVec<D> vl, vr;
    for (int d = 0; d < D; ++d) {
      vl[d] = uL[imom(d)] / rl;
      vr[d] = uR[imom(d)] / rr;
    }
    const double pl = pressure(uL), pr = pressure(uR);
    const double hl = (uL[ieng()] + pl) / rl;  // total enthalpy
    const double hr = (uR[ieng()] + pr) / rr;

    // Roe averages.
    const double w = std::sqrt(rr / rl);
    const double rho_t = w * rl;
    RVec<D> v_t;
    double v2 = 0.0;
    for (int d = 0; d < D; ++d) {
      v_t[d] = (vl[d] + w * vr[d]) / (1.0 + w);
      v2 += v_t[d] * v_t[d];
    }
    const double h_t = (hl + w * hr) / (1.0 + w);
    double a2 = (gamma - 1.0) * (h_t - 0.5 * v2);
    if (a2 < 1e-14) a2 = 1e-14;
    const double a = std::sqrt(a2);
    const double vn = v_t[dir];

    // Wave strengths from primitive jumps.
    const double dp = pr - pl;
    const double drho = rr - rl;
    const double dvn = vr[dir] - vl[dir];
    const double alpha_minus = (dp - rho_t * a * dvn) / (2.0 * a2);
    const double alpha_plus = (dp + rho_t * a * dvn) / (2.0 * a2);
    const double alpha_entropy = drho - dp / a2;

    // Harten entropy fix on the acoustic speeds.
    auto fix = [&](double lam) {
      const double eps = 0.1 * a;
      const double al = std::fabs(lam);
      return al >= eps ? al : (lam * lam + eps * eps) / (2.0 * eps);
    };
    const double l_minus = fix(vn - a);
    const double l_mid = std::fabs(vn);
    const double l_plus = fix(vn + a);

    // Central flux minus the dissipation sum over waves.
    State fl, fr;
    flux(uL, dir, fl);
    flux(uR, dir, fr);
    for (int k = 0; k < NVAR; ++k) F[k] = 0.5 * (fl[k] + fr[k]);

    auto subtract_wave = [&](double lam, double alpha, const State& K) {
      const double c = 0.5 * lam * alpha;
      for (int k = 0; k < NVAR; ++k) F[k] -= c * K[k];
    };
    // Acoustic waves.
    State K{};
    K[irho()] = 1.0;
    for (int d = 0; d < D; ++d) K[imom(d)] = v_t[d];
    K[imom(dir)] -= a;
    K[ieng()] = h_t - a * vn;
    subtract_wave(l_minus, alpha_minus, K);
    K[imom(dir)] += 2.0 * a;
    K[ieng()] = h_t + a * vn;
    subtract_wave(l_plus, alpha_plus, K);
    // Entropy wave.
    K[irho()] = 1.0;
    for (int d = 0; d < D; ++d) K[imom(d)] = v_t[d];
    K[ieng()] = 0.5 * v2;
    subtract_wave(l_mid, alpha_entropy, K);
    // Shear waves (one per tangential dimension).
    for (int t = 0; t < D; ++t) {
      if (t == dir) continue;
      State S{};
      S[imom(t)] = 1.0;
      S[ieng()] = v_t[t];
      subtract_wave(l_mid, rho_t * (vr[t] - vl[t]), S);
    }
  }

  /// Conserved state from primitives (density, velocity, pressure).
  State from_primitive(double rho, const RVec<D>& vel, double p) const {
    AB_REQUIRE(rho > 0.0 && p > 0.0, "Euler: non-positive primitive state");
    State u{};
    u[irho()] = rho;
    double ke = 0.0;
    for (int d = 0; d < D; ++d) {
      u[imom(d)] = rho * vel[d];
      ke += vel[d] * vel[d];
    }
    u[ieng()] = p / (gamma - 1.0) + 0.5 * rho * ke;
    return u;
  }

  /// Clamp density and pressure to floors (in place); returns true if the
  /// state needed fixing. Keeps velocity, adjusts energy.
  bool fix_state(State& u, double rho_floor = 1e-12,
                 double p_floor = 1e-12) const {
    bool fixed = false;
    if (u[irho()] < rho_floor) {
      u[irho()] = rho_floor;
      fixed = true;
    }
    double p = pressure(u);
    if (p < p_floor) {
      double ke = 0.0;
      for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
      ke *= 0.5 / u[irho()];
      u[ieng()] = p_floor / (gamma - 1.0) + ke;
      fixed = true;
    }
    return fixed;
  }

  // Rough arithmetic-operation counts per call (machine-model accounting).
  static constexpr std::uint64_t kFluxFlops = 6 + 3 * D;
  static constexpr std::uint64_t kSpeedFlops = 8 + 2 * D;
};

}  // namespace ab
