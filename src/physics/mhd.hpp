// Ideal magnetohydrodynamics with the Powell eight-wave source term.
//
// This is the paper's production workload: the Michigan group's solar-wind /
// CME simulations solve ideal MHD on adaptive blocks with Powell's
// non-conservative source proportional to div B, which advects magnetic
// monopole errors with the flow instead of letting them accumulate.
//
// Conserved state (always 8 variables; velocity and B are full 3-vectors
// even on 2D grids): [rho, mx, my, mz, Bx, By, Bz, E] with
// E = p/(gamma-1) + rho |v|^2 / 2 + |B|^2 / 2   (units with mu0 = 1).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

template <int D>
struct IdealMhd {
  static_assert(D == 2 || D == 3, "IdealMhd supports 2D and 3D grids");
  static constexpr int NVAR = 8;
  static constexpr bool kHasSource = true;  // Powell eight-wave source
  using State = std::array<double, NVAR>;

  double gamma = 5.0 / 3.0;

  static constexpr int irho() { return 0; }
  static constexpr int imom(int i) { return 1 + i; }  // i in 0..2
  static constexpr int imag(int i) { return 4 + i; }  // i in 0..2
  static constexpr int ieng() { return 7; }

  double pressure(const State& u) const {
    double ke = 0.0, b2 = 0.0;
    for (int i = 0; i < 3; ++i) {
      ke += u[imom(i)] * u[imom(i)];
      b2 += u[imag(i)] * u[imag(i)];
    }
    ke *= 0.5 / u[irho()];
    return (gamma - 1.0) * (u[ieng()] - ke - 0.5 * b2);
  }

  void flux(const State& u, int dir, State& f) const {
    const double rho = u[irho()];
    const double inv_rho = 1.0 / rho;
    const double vd = u[imom(dir)] * inv_rho;
    const double bd = u[imag(dir)];
    double b2 = 0.0, vdotb = 0.0;
    for (int i = 0; i < 3; ++i) {
      b2 += u[imag(i)] * u[imag(i)];
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    }
    const double ptot = pressure(u) + 0.5 * b2;

    f[irho()] = u[imom(dir)];
    for (int i = 0; i < 3; ++i) {
      f[imom(i)] = u[imom(i)] * vd - bd * u[imag(i)];
      f[imag(i)] = u[imag(i)] * vd - u[imom(i)] * inv_rho * bd;
    }
    f[imom(dir)] += ptot;
    f[imag(dir)] = 0.0;  // exact: v_d B_d - v_d B_d
    f[ieng()] = (u[ieng()] + ptot) * vd - bd * vdotb;
  }

  /// Fast magnetosonic speed along `dir`.
  double fast_speed(const State& u, int dir) const {
    const double rho = u[irho()];
    double b2 = 0.0;
    for (int i = 0; i < 3; ++i) b2 += u[imag(i)] * u[imag(i)];
    double p = pressure(u);
    if (p < 0.0) p = 0.0;
    const double a2 = gamma * p / rho;
    const double ca2 = b2 / rho;
    const double cad2 = u[imag(dir)] * u[imag(dir)] / rho;
    const double s = a2 + ca2;
    double disc = s * s - 4.0 * a2 * cad2;
    if (disc < 0.0) disc = 0.0;
    return std::sqrt(0.5 * (s + std::sqrt(disc)));
  }

  void signal_speeds(const State& u, int dir, double& lmin,
                     double& lmax) const {
    const double vd = u[imom(dir)] / u[irho()];
    const double cf = fast_speed(u, dir);
    lmin = vd - cf;
    lmax = vd + cf;
  }

  double max_speed(const State& u, int dir) const {
    double lmin, lmax;
    signal_speeds(u, dir, lmin, lmax);
    double a = std::fabs(lmin), b = std::fabs(lmax);
    return a > b ? a : b;
  }

  /// Fused flux + signal speeds: evaluates the same expressions as flux()
  /// followed by signal_speeds(), sharing the kinetic/magnetic sums both
  /// need. The kernel's Rusanov/HLL path picks this overload up when
  /// present. Note the two velocity roundings: flux() multiplies by a
  /// precomputed 1/rho while signal_speeds() divides by rho directly —
  /// both are kept so results stay bitwise identical to the split path.
  void flux_and_speeds(const State& u, int dir, State& f, double& lmin,
                       double& lmax) const {
    const double rho = u[irho()];
    const double inv_rho = 1.0 / rho;
    const double vd = u[imom(dir)] * inv_rho;
    const double bd = u[imag(dir)];
    double ke = 0.0, b2 = 0.0, vdotb = 0.0;
    for (int i = 0; i < 3; ++i) {
      ke += u[imom(i)] * u[imom(i)];
      b2 += u[imag(i)] * u[imag(i)];
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    }
    ke *= 0.5 / rho;
    const double p = (gamma - 1.0) * (u[ieng()] - ke - 0.5 * b2);
    const double ptot = p + 0.5 * b2;
    f[irho()] = u[imom(dir)];
    for (int i = 0; i < 3; ++i) {
      f[imom(i)] = u[imom(i)] * vd - bd * u[imag(i)];
      f[imag(i)] = u[imag(i)] * vd - u[imom(i)] * inv_rho * bd;
    }
    f[imom(dir)] += ptot;
    f[imag(dir)] = 0.0;  // exact: v_d B_d - v_d B_d
    f[ieng()] = (u[ieng()] + ptot) * vd - bd * vdotb;
    const double vds = u[imom(dir)] / rho;
    double pc = p;
    if (pc < 0.0) pc = 0.0;
    const double a2 = gamma * pc / rho;
    const double ca2 = b2 / rho;
    const double cad2 = bd * bd / rho;
    const double s = a2 + ca2;
    double disc = s * s - 4.0 * a2 * cad2;
    if (disc < 0.0) disc = 0.0;
    const double cf = std::sqrt(0.5 * (s + std::sqrt(disc)));
    lmin = vds - cf;
    lmax = vds + cf;
  }

  /// Row form of the Rusanov flux over `nf` faces: face i's left/right
  /// state variable v is read from pL[v*sL + i] / pR[v*sR + i] (stride-1 in
  /// i), flux component v is written to F[v*lane + i]. Evaluates exactly
  /// the expressions of flux_and_speeds + the Rusanov combine per face, as
  /// flat branch-free loops the compiler can vectorize; the only per-face
  /// branches of the scalar path (pressure and discriminant clamps) become
  /// 0.5*(x + |x|), which differs only in the sign of a zero the downstream
  /// arithmetic cannot observe. The sweep direction is a template parameter
  /// so component selection is resolved at compile time.
  ///
  /// Once inlined, the 24 lanes need more run-time alias checks than the
  /// 10 GCC versions a loop on, so without AB_IVDEP the loop stays scalar
  /// (`__restrict__` alone is not enough); tools/check_vectorization.sh
  /// fails if it does.
  template <int dirc>
  void rusanov_flux_row_impl(const double* AB_RESTRICT pL, std::int64_t sL,
                             const double* AB_RESTRICT pR, std::int64_t sR,
                             double* AB_RESTRICT F, std::int64_t lane,
                             int nf) const {
    // Hoisted per-variable unit-stride pointers; the left/right inputs may
    // alias each other but are only read, and F never overlaps them.
    const double* AB_RESTRICT rhoL = pL + irho() * sL;
    const double* AB_RESTRICT rhoR = pR + irho() * sR;
    const double* AB_RESTRICT engL = pL + ieng() * sL;
    const double* AB_RESTRICT engR = pR + ieng() * sR;
    const double* AB_RESTRICT mL0 = pL + imom(0) * sL;
    const double* AB_RESTRICT mL1 = pL + imom(1) * sL;
    const double* AB_RESTRICT mL2 = pL + imom(2) * sL;
    const double* AB_RESTRICT mR0 = pR + imom(0) * sR;
    const double* AB_RESTRICT mR1 = pR + imom(1) * sR;
    const double* AB_RESTRICT mR2 = pR + imom(2) * sR;
    const double* AB_RESTRICT bL0 = pL + imag(0) * sL;
    const double* AB_RESTRICT bL1 = pL + imag(1) * sL;
    const double* AB_RESTRICT bL2 = pL + imag(2) * sL;
    const double* AB_RESTRICT bR0 = pR + imag(0) * sR;
    const double* AB_RESTRICT bR1 = pR + imag(1) * sR;
    const double* AB_RESTRICT bR2 = pR + imag(2) * sR;
    double* AB_RESTRICT Frho = F + irho() * lane;
    double* AB_RESTRICT Feng = F + ieng() * lane;
    double* AB_RESTRICT Fm0 = F + imom(0) * lane;
    double* AB_RESTRICT Fm1 = F + imom(1) * lane;
    double* AB_RESTRICT Fm2 = F + imom(2) * lane;
    double* AB_RESTRICT Fb0 = F + imag(0) * lane;
    double* AB_RESTRICT Fb1 = F + imag(1) * lane;
    double* AB_RESTRICT Fb2 = F + imag(2) * lane;
    const double* AB_RESTRICT mLd = dirc == 0 ? mL0 : (dirc == 1 ? mL1 : mL2);
    const double* AB_RESTRICT mRd = dirc == 0 ? mR0 : (dirc == 1 ? mR1 : mR2);
    const double* AB_RESTRICT bLd = dirc == 0 ? bL0 : (dirc == 1 ? bL1 : bL2);
    const double* AB_RESTRICT bRd = dirc == 0 ? bR0 : (dirc == 1 ? bR1 : bR2);
    // Local copies: member reloads would leave the loop latch non-empty
    // (the F stores could alias *this) and block vectorization.
    const double g = gamma;
    const double gm1 = g - 1.0;
    AB_IVDEP
    for (int i = 0; i < nf; ++i) {  // must-vectorize
      const double rl = rhoL[i];
      const double rr = rhoR[i];
      const double el = engL[i];
      const double er = engR[i];
      const double irl = 1.0 / rl;
      const double irr = 1.0 / rr;
      const double vl = mLd[i] * irl;
      const double vr = mRd[i] * irr;
      const double bdl = bLd[i];
      const double bdr = bRd[i];
      double kel = mL0[i] * mL0[i] + mL1[i] * mL1[i] + mL2[i] * mL2[i];
      double ker = mR0[i] * mR0[i] + mR1[i] * mR1[i] + mR2[i] * mR2[i];
      const double b2l = bL0[i] * bL0[i] + bL1[i] * bL1[i] + bL2[i] * bL2[i];
      const double b2r = bR0[i] * bR0[i] + bR1[i] * bR1[i] + bR2[i] * bR2[i];
      const double vdbl =
          mL0[i] * irl * bL0[i] + mL1[i] * irl * bL1[i] + mL2[i] * irl * bL2[i];
      const double vdbr =
          mR0[i] * irr * bR0[i] + mR1[i] * irr * bR1[i] + mR2[i] * irr * bR2[i];
      kel *= 0.5 / rl;
      ker *= 0.5 / rr;
      const double plp = gm1 * (el - kel - 0.5 * b2l);
      const double prp = gm1 * (er - ker - 0.5 * b2r);
      const double ptl = plp + 0.5 * b2l;
      const double ptr = prp + 0.5 * b2r;
      // Fast magnetosonic speeds, with the scalar path's direct divisions.
      const double vls = mLd[i] / rl;
      const double vrs = mRd[i] / rr;
      const double pcl = 0.5 * (plp + std::fabs(plp));
      const double pcr = 0.5 * (prp + std::fabs(prp));
      const double a2l = g * pcl / rl;
      const double a2r = g * pcr / rr;
      const double ca2l = b2l / rl;
      const double ca2r = b2r / rr;
      const double cad2l = bdl * bdl / rl;
      const double cad2r = bdr * bdr / rr;
      const double ssl = a2l + ca2l;
      const double ssr = a2r + ca2r;
      const double discl0 = ssl * ssl - 4.0 * a2l * cad2l;
      const double discr0 = ssr * ssr - 4.0 * a2r * cad2r;
      const double discl = 0.5 * (discl0 + std::fabs(discl0));
      const double discr = 0.5 * (discr0 + std::fabs(discr0));
      const double cfl = std::sqrt(0.5 * (ssl + std::sqrt(discl)));
      const double cfr = std::sqrt(0.5 * (ssr + std::sqrt(discr)));
      // max(|vls - cfl|, |vls + cfl|, |vrs - cfr|, |vrs + cfr|) in the
      // per-face path's association order; non-negative doubles order like
      // their bit patterns, so integer max stays branchless and exact.
      std::uint64_t sb = std::bit_cast<std::uint64_t>(std::fabs(vls - cfl));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vls + cfl)));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vrs - cfr)));
      sb = std::max(sb, std::bit_cast<std::uint64_t>(std::fabs(vrs + cfr)));
      const double s = std::bit_cast<double>(sb);
      Frho[i] = 0.5 * (mLd[i] + mRd[i]) - 0.5 * s * (rr - rl);
      {
        double fl = mL0[i] * vl - bdl * bL0[i];
        double fr = mR0[i] * vr - bdr * bR0[i];
        if constexpr (dirc == 0) {
          fl += ptl;
          fr += ptr;
        }
        Fm0[i] = 0.5 * (fl + fr) - 0.5 * s * (mR0[i] - mL0[i]);
      }
      {
        double fl = mL1[i] * vl - bdl * bL1[i];
        double fr = mR1[i] * vr - bdr * bR1[i];
        if constexpr (dirc == 1) {
          fl += ptl;
          fr += ptr;
        }
        Fm1[i] = 0.5 * (fl + fr) - 0.5 * s * (mR1[i] - mL1[i]);
      }
      {
        double fl = mL2[i] * vl - bdl * bL2[i];
        double fr = mR2[i] * vr - bdr * bR2[i];
        if constexpr (dirc == 2) {
          fl += ptl;
          fr += ptr;
        }
        Fm2[i] = 0.5 * (fl + fr) - 0.5 * s * (mR2[i] - mL2[i]);
      }
      {
        const double fl = dirc == 0 ? 0.0 : bL0[i] * vl - mL0[i] * irl * bdl;
        const double fr = dirc == 0 ? 0.0 : bR0[i] * vr - mR0[i] * irr * bdr;
        Fb0[i] = 0.5 * (fl + fr) - 0.5 * s * (bR0[i] - bL0[i]);
      }
      {
        const double fl = dirc == 1 ? 0.0 : bL1[i] * vl - mL1[i] * irl * bdl;
        const double fr = dirc == 1 ? 0.0 : bR1[i] * vr - mR1[i] * irr * bdr;
        Fb1[i] = 0.5 * (fl + fr) - 0.5 * s * (bR1[i] - bL1[i]);
      }
      {
        const double fl = dirc == 2 ? 0.0 : bL2[i] * vl - mL2[i] * irl * bdl;
        const double fr = dirc == 2 ? 0.0 : bR2[i] * vr - mR2[i] * irr * bdr;
        Fb2[i] = 0.5 * (fl + fr) - 0.5 * s * (bR2[i] - bL2[i]);
      }
      {
        const double fl = (el + ptl) * vl - bdl * vdbl;
        const double fr = (er + ptr) * vr - bdr * vdbr;
        Feng[i] = 0.5 * (fl + fr) - 0.5 * s * (er - el);
      }
    }
  }

  void rusanov_flux_row(int dir, const double* pL, std::int64_t sL,
                        const double* pR, std::int64_t sR, double* F,
                        std::int64_t lane, int nf) const {
    if (dir == 0) {
      rusanov_flux_row_impl<0>(pL, sL, pR, sR, F, lane, nf);
    } else if (dir == 1) {
      rusanov_flux_row_impl<1>(pL, sL, pR, sR, F, lane, nf);
    } else if constexpr (D >= 3) {
      rusanov_flux_row_impl<2>(pL, sL, pR, sR, F, lane, nf);
    }
  }

  /// Powell eight-wave source increment: du += -dt * divB * S8(u), where
  /// S8 = [0, Bx, By, Bz, vx, vy, vz, v.B]. `nbrs[2*d+side]` are the
  /// face-neighbor states used for the central-difference div B.
  void add_source(const State& u, const std::array<State, 2 * D>& nbrs,
                  const RVec<D>& dx, double dt, State& du) const {
    double divb = 0.0;
    for (int d = 0; d < D; ++d) {
      divb += (nbrs[2 * d + 1][imag(d)] - nbrs[2 * d + 0][imag(d)]) /
              (2.0 * dx[d]);
    }
    const double inv_rho = 1.0 / u[irho()];
    double vdotb = 0.0;
    for (int i = 0; i < 3; ++i)
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    const double c = -dt * divb;
    for (int i = 0; i < 3; ++i) {
      du[imom(i)] += c * u[imag(i)];
      du[imag(i)] += c * u[imom(i)] * inv_rho;
    }
    du[ieng()] += c * vdotb;
  }

  /// Row form of add_source over the `n` cells of one dim-0 pencil: cell
  /// i's variable v is read from u[v*fs + i], its face neighbors along d
  /// from u[v*fs + i -+ stride[d]], and its increment is added to
  /// out[v*fs + i]. Evaluates exactly add_source's expressions in the same
  /// order — including the `0.0 +` accumulations into add_source's zeroed
  /// increment and the zero added to density — so the bits match the
  /// per-cell form, which stays the reference.
  void add_source_row(const double* AB_RESTRICT u, std::int64_t fs,
                      const std::array<std::int64_t, D>& stride,
                      const RVec<D>& dx, double dt, double* AB_RESTRICT out,
                      int n) const {
    const double* AB_RESTRICT rho = u + irho() * fs;
    const double* AB_RESTRICT m0 = u + imom(0) * fs;
    const double* AB_RESTRICT m1 = u + imom(1) * fs;
    const double* AB_RESTRICT m2 = u + imom(2) * fs;
    const double* AB_RESTRICT b0 = u + imag(0) * fs;
    const double* AB_RESTRICT b1 = u + imag(1) * fs;
    const double* AB_RESTRICT b2 = u + imag(2) * fs;
    // Central-difference div B: field component d of the two d-neighbors.
    const double* AB_RESTRICT bxm = b0 - stride[0];
    const double* AB_RESTRICT bxp = b0 + stride[0];
    const double* AB_RESTRICT bym = b1 - stride[1];
    const double* AB_RESTRICT byp = b1 + stride[1];
    const double* AB_RESTRICT bzm = D == 3 ? b2 - stride[D - 1] : b2;
    const double* AB_RESTRICT bzp = D == 3 ? b2 + stride[D - 1] : b2;
    double* AB_RESTRICT orho = out + irho() * fs;
    double* AB_RESTRICT om0 = out + imom(0) * fs;
    double* AB_RESTRICT om1 = out + imom(1) * fs;
    double* AB_RESTRICT om2 = out + imom(2) * fs;
    double* AB_RESTRICT ob0 = out + imag(0) * fs;
    double* AB_RESTRICT ob1 = out + imag(1) * fs;
    double* AB_RESTRICT ob2 = out + imag(2) * fs;
    double* AB_RESTRICT oeng = out + ieng() * fs;
    const double w0 = 2.0 * dx[0];
    const double w1 = 2.0 * dx[1];
    const double w2 = 2.0 * dx[D - 1];
    const double mdt = -dt;
    AB_IVDEP
    for (int i = 0; i < n; ++i) {  // must-vectorize
      double divb = 0.0;
      divb += (bxp[i] - bxm[i]) / w0;
      divb += (byp[i] - bym[i]) / w1;
      if constexpr (D == 3) divb += (bzp[i] - bzm[i]) / w2;
      const double inv_rho = 1.0 / rho[i];
      double vdotb = 0.0;
      vdotb += m0[i] * inv_rho * b0[i];
      vdotb += m1[i] * inv_rho * b1[i];
      vdotb += m2[i] * inv_rho * b2[i];
      const double c = mdt * divb;
      orho[i] += 0.0;
      om0[i] += 0.0 + c * b0[i];
      om1[i] += 0.0 + c * b1[i];
      om2[i] += 0.0 + c * b2[i];
      ob0[i] += 0.0 + c * m0[i] * inv_rho;
      ob1[i] += 0.0 + c * m1[i] * inv_rho;
      ob2[i] += 0.0 + c * m2[i] * inv_rho;
      oeng[i] += 0.0 + c * vdotb;
    }
  }

  /// Row form of the CFL scan over `n` cells: cell i's variable v is read
  /// from u[v*fs + i], and out[i] = sum over d of max_speed(u, d) / dx[d],
  /// the per-cell value block_wave_speed_sum folds. Same expressions as
  /// max_speed, made branch-free as in rusanov_flux_row_impl (clamps as
  /// 0.5*(x + |x|), the |lmin|/|lmax| max over bit patterns), so the values
  /// are bitwise equal and a corrupt state still yields a NaN.
  void wave_speed_row(const double* AB_RESTRICT u, std::int64_t fs,
                      const RVec<D>& dx, double* AB_RESTRICT out,
                      int n) const {
    const double* AB_RESTRICT rho = u + irho() * fs;
    const double* AB_RESTRICT eng = u + ieng() * fs;
    const double* AB_RESTRICT m[3] = {u + imom(0) * fs, u + imom(1) * fs,
                                      u + imom(2) * fs};
    const double* AB_RESTRICT b[3] = {u + imag(0) * fs, u + imag(1) * fs,
                                      u + imag(2) * fs};
    // Local copies, as in rusanov_flux_row_impl: `out` could alias *this
    // and `dx`, which would force reloads in the loop.
    const double g = gamma;
    const double gm1 = g - 1.0;
    const RVec<D> h = dx;
    AB_IVDEP
    for (int i = 0; i < n; ++i) {  // must-vectorize
      const double r = rho[i];
      const double mx = m[0][i], my = m[1][i], mz = m[2][i];
      const double bx = b[0][i], by = b[1][i], bz = b[2][i];
      double ke = mx * mx + my * my + mz * mz;
      const double b2 = bx * bx + by * by + bz * bz;
      ke *= 0.5 / r;
      const double p = gm1 * (eng[i] - ke - 0.5 * b2);
      const double pc = 0.5 * (p + std::fabs(p));
      const double a2 = g * pc / r;
      const double ca2 = b2 / r;
      const double ss = a2 + ca2;
      double sum = 0.0;
      for (int d = 0; d < D; ++d) {
        const double bd = b[d][i];
        const double cad2 = bd * bd / r;
        const double disc0 = ss * ss - 4.0 * a2 * cad2;
        const double disc = 0.5 * (disc0 + std::fabs(disc0));
        const double cf = std::sqrt(0.5 * (ss + std::sqrt(disc)));
        const double vd = m[d][i] / r;
        const std::uint64_t sb =
            std::max(std::bit_cast<std::uint64_t>(std::fabs(vd - cf)),
                     std::bit_cast<std::uint64_t>(std::fabs(vd + cf)));
        sum += std::bit_cast<double>(sb) / h[d];
      }
      out[i] = sum;
    }
  }

  /// HLLD approximate Riemann solver (Miyoshi & Kusano, JCP 2005): a
  /// five-wave fan (fast/Alfven/entropy/Alfven/fast) that resolves MHD
  /// contact and rotational discontinuities Rusanov/HLL smear. The normal
  /// field at the interface is taken as the arithmetic mean (the eight-wave
  /// source absorbs the resulting div B, as in the production code).
  /// Selected via FluxScheme::Hlld.
  void hlld_flux(const State& uL, const State& uR, int dir, State& F) const {
    // Primitive decompositions.
    struct Side {
      double rho, u, p, pt, e;  // u = normal velocity, e = total energy
      RVec<3> v, b;
    };
    auto decompose = [&](const State& q) {
      Side s;
      s.rho = q[irho()];
      double b2 = 0.0;
      for (int i = 0; i < 3; ++i) {
        s.v[i] = q[imom(i)] / s.rho;
        s.b[i] = q[imag(i)];
        b2 += s.b[i] * s.b[i];
      }
      s.u = s.v[dir];
      s.p = pressure(q);
      s.pt = s.p + 0.5 * b2;
      s.e = q[ieng()];
      return s;
    };
    const Side l = decompose(uL), r = decompose(uR);
    const double bn = 0.5 * (l.b[dir] + r.b[dir]);

    // Outer signal speeds (Davis-type with the fast speed).
    const double cfl = fast_speed(uL, dir), cfr = fast_speed(uR, dir);
    const double sl = std::min(l.u - cfl, r.u - cfr);
    const double sr = std::max(l.u + cfl, r.u + cfr);

    auto physical_flux = [&](const State& q, State& f) { flux(q, dir, f); };
    if (sl >= 0.0) {
      physical_flux(uL, F);
      return;
    }
    if (sr <= 0.0) {
      physical_flux(uR, F);
      return;
    }

    // Middle (entropy) wave speed and the single star total pressure.
    const double dl = (sl - l.u) * l.rho;
    const double dr = (sr - r.u) * r.rho;
    const double sm = (dr * r.u - dl * l.u - r.pt + l.pt) / (dr - dl);
    const double pts = l.pt + dl * (sm - l.u);

    // Outer star state of one side.
    struct Star {
      double rho, e;
      RVec<3> v, b;
      double vdotb;
    };
    auto make_star = [&](const Side& s, double sk) {
      Star st;
      st.rho = s.rho * (sk - s.u) / (sk - sm);
      const double denom = s.rho * (sk - s.u) * (sk - sm) - bn * bn;
      st.v = s.v;
      st.b = s.b;
      st.v[dir] = sm;
      st.b[dir] = bn;
      if (std::fabs(denom) > 1e-12 * (s.rho * (sk - s.u) * (sk - s.u) +
                                      bn * bn + 1e-300)) {
        const double chi = (sm - s.u) / denom;
        const double psi = (s.rho * (sk - s.u) * (sk - s.u) - bn * bn) / denom;
        for (int i = 0; i < 3; ++i) {
          if (i == dir) continue;
          st.v[i] = s.v[i] - bn * s.b[i] * chi;
          st.b[i] = s.b[i] * psi;
        }
      } else {
        // Degenerate case (Miyoshi-Kusano eq. 44/47): switch off the
        // tangential field in the star region.
        for (int i = 0; i < 3; ++i) {
          if (i == dir) continue;
          st.b[i] = 0.0;
        }
      }
      double vb = 0.0, vbs = 0.0;
      for (int i = 0; i < 3; ++i) {
        vb += s.v[i] * s.b[i];
        vbs += st.v[i] * st.b[i];
      }
      st.vdotb = vbs;
      st.e = ((sk - s.u) * s.e - s.pt * s.u + pts * sm + bn * (vb - vbs)) /
             (sk - sm);
      return st;
    };
    const Star stl = make_star(l, sl), str = make_star(r, sr);

    auto pack = [&](double rho, const RVec<3>& v, const RVec<3>& b,
                    double e) {
      State q{};
      q[irho()] = rho;
      for (int i = 0; i < 3; ++i) {
        q[imom(i)] = rho * v[i];
        q[imag(i)] = b[i];
      }
      q[ieng()] = e;
      return q;
    };

    const double sqrl = std::sqrt(stl.rho), sqrr = std::sqrt(str.rho);
    const double sls = sm - std::fabs(bn) / sqrl;  // left Alfven wave
    const double srs = sm + std::fabs(bn) / sqrr;  // right Alfven wave

    State fk;
    auto flux_star_l = [&] {
      physical_flux(uL, fk);
      const State usl = pack(stl.rho, stl.v, stl.b, stl.e);
      for (int k = 0; k < NVAR; ++k) F[k] = fk[k] + sl * (usl[k] - uL[k]);
    };
    auto flux_star_r = [&] {
      physical_flux(uR, fk);
      const State usr = pack(str.rho, str.v, str.b, str.e);
      for (int k = 0; k < NVAR; ++k) F[k] = fk[k] + sr * (usr[k] - uR[k]);
    };
    if (bn == 0.0) {
      // No rotational layers: the fan is fast/entropy/fast (HLLC-like).
      if (sm >= 0.0)
        flux_star_l();
      else
        flux_star_r();
      return;
    }
    if (sls >= 0.0) {
      flux_star_l();
      return;
    }
    if (srs <= 0.0) {
      flux_star_r();
      return;
    }

    // Inner (double-star) region across the Alfven waves.
    const double s = bn >= 0.0 ? 1.0 : -1.0;
    RVec<3> vss, bss;
    vss[dir] = sm;
    bss[dir] = bn;
    const double denom2 = sqrl + sqrr;
    for (int i = 0; i < 3; ++i) {
      if (i == dir) continue;
      vss[i] = (sqrl * stl.v[i] + sqrr * str.v[i] +
                s * (str.b[i] - stl.b[i])) /
               denom2;
      bss[i] = (sqrl * str.b[i] + sqrr * stl.b[i] +
                s * sqrl * sqrr * (str.v[i] - stl.v[i])) /
               denom2;
    }
    double vbss = 0.0;
    for (int i = 0; i < 3; ++i) vbss += vss[i] * bss[i];

    if (sm >= 0.0) {
      const double ess = stl.e - sqrl * s * (stl.vdotb - vbss);
      const State usl = pack(stl.rho, stl.v, stl.b, stl.e);
      const State ussl = pack(stl.rho, vss, bss, ess);
      physical_flux(uL, fk);
      for (int k = 0; k < NVAR; ++k)
        F[k] = fk[k] + sl * (usl[k] - uL[k]) + sls * (ussl[k] - usl[k]);
    } else {
      const double ess = str.e + sqrr * s * (str.vdotb - vbss);
      const State usr = pack(str.rho, str.v, str.b, str.e);
      const State ussr = pack(str.rho, vss, bss, ess);
      physical_flux(uR, fk);
      for (int k = 0; k < NVAR; ++k)
        F[k] = fk[k] + sr * (usr[k] - uR[k]) + srs * (ussr[k] - usr[k]);
    }
  }

  /// Conserved state from primitives (density, velocity, B, pressure).
  State from_primitive(double rho, const RVec<3>& vel, const RVec<3>& b,
                       double p) const {
    AB_REQUIRE(rho > 0.0 && p > 0.0, "IdealMhd: non-positive primitives");
    State u{};
    u[irho()] = rho;
    double ke = 0.0, b2 = 0.0;
    for (int i = 0; i < 3; ++i) {
      u[imom(i)] = rho * vel[i];
      u[imag(i)] = b[i];
      ke += vel[i] * vel[i];
      b2 += b[i] * b[i];
    }
    u[ieng()] = p / (gamma - 1.0) + 0.5 * rho * ke + 0.5 * b2;
    return u;
  }

  /// Clamp density and pressure to floors (in place); returns true if the
  /// state needed fixing.
  bool fix_state(State& u, double rho_floor = 1e-12,
                 double p_floor = 1e-12) const {
    bool fixed = false;
    if (u[irho()] < rho_floor) {
      u[irho()] = rho_floor;
      fixed = true;
    }
    double p = pressure(u);
    if (p < p_floor) {
      double ke = 0.0, b2 = 0.0;
      for (int i = 0; i < 3; ++i) {
        ke += u[imom(i)] * u[imom(i)];
        b2 += u[imag(i)] * u[imag(i)];
      }
      ke *= 0.5 / u[irho()];
      u[ieng()] = p_floor / (gamma - 1.0) + ke + 0.5 * b2;
      fixed = true;
    }
    return fixed;
  }

  // Rough arithmetic-operation counts per call; the per-cell total for a
  // second-order 3D update (~420 flops) matches the order of magnitude the
  // Michigan MHD code reported on the T3D.
  static constexpr std::uint64_t kFluxFlops = 42;
  static constexpr std::uint64_t kSpeedFlops = 24;
};

}  // namespace ab
