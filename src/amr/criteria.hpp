// Refinement criteria: per-block flags driving adaptation.
//
// The paper leaves the criterion open ("one can vary the refinement/
// coarsening criteria, the extent, the frequency..."); we provide the
// standard undivided-gradient indicator the Michigan MHD code family used,
// plus a geometric criterion for static grids.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "util/vec.hpp"

namespace ab {

/// Adaptation flag for one block.
enum class AdaptFlag : int { Coarsen = -1, Keep = 0, Refine = 1 };

/// Maximum relative undivided jump of variable `var` over the interior of
/// `block`: max over cells and dimensions of |u(p+e) - u(p)| / scale, where
/// scale is the larger of |u| at the two cells and `floor`. This is
/// resolution-independent (no division by dx), so refinement chases
/// discontinuities rather than smooth gradients.
///
/// Runs along interior rows with the strides in locals (a per-cell
/// BlockLayout::offset per read cost more than the arithmetic), visiting
/// cells and dimensions in for_each_cell order, so the fold — and which
/// operand std::max keeps on NaN — is the per-cell form's.
template <int D>
double max_relative_jump(const BlockStore<D>& store, int block, int var,
                         double floor = 1e-12) {
  const BlockLayout<D> lay = store.layout();
  const double* const u = store.view(block).field(var);
  const IVec<D> m = lay.interior;
  std::int64_t st[D];
  for (int d = 0; d < D; ++d) st[d] = lay.stride(d);
  double worst = 0.0;
  for_each_row<D>(lay.interior_box(), [&](IVec<D> q, int n) {
    const double* const row = u + lay.offset(q);
    bool up[D] = {};  // the +1 neighbor along d lies in the interior
    for (int d = 1; d < D; ++d) up[d] = q[d] + 1 < m[d];
    for (int t = 0; t < n; ++t) {
      const double a = row[t];
      for (int d = 0; d < D; ++d) {
        if (d == 0 ? t + 1 >= n : !up[d]) continue;
        const double b = row[t + st[d]];
        const double scale = std::max({std::fabs(a), std::fabs(b), floor});
        worst = std::max(worst, std::fabs(b - a) / scale);
      }
    }
  });
  return worst;
}

/// Gradient-based criterion: refine where the relative jump of `var`
/// exceeds `refine_threshold`, coarsen where it falls below
/// `coarsen_threshold` (hysteresis gap avoids flip-flopping).
template <int D>
struct GradientCriterion {
  int var = 0;
  double refine_threshold = 0.1;
  double coarsen_threshold = 0.02;
  int max_level = 4;

  AdaptFlag operator()(const Forest<D>& forest, const BlockStore<D>& store,
                       int block) const {
    const double j = max_relative_jump<D>(store, block, var);
    if (j > refine_threshold && forest.level(block) < max_level)
      return AdaptFlag::Refine;
    if (j < coarsen_threshold && forest.level(block) > 0)
      return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

/// Löhner's (1987) dimensionless error estimator for variable `var` over
/// the interior of `block`: per cell and dimension, the second difference
/// normalized by the first differences plus a noise filter,
///   |u_{i+1} - 2u_i + u_{i-1}| /
///     (|u_{i+1}-u_i| + |u_i-u_{i-1}| + eps*(|u_{i+1}|+2|u_i|+|u_{i-1}|)).
/// Values near 1 mark discontinuities; smooth ramps score near 0 even when
/// steep — unlike the plain jump indicator, it will not refine a linear
/// gradient. Returns the max over cells/dims (stencils clamp to interior).
/// Row form, same visiting order as max_relative_jump.
template <int D>
double max_lohner_estimate(const BlockStore<D>& store, int block, int var,
                           double eps = 0.02) {
  const BlockLayout<D> lay = store.layout();
  const double* const u = store.view(block).field(var);
  const IVec<D> m = lay.interior;
  std::int64_t st[D];
  for (int d = 0; d < D; ++d) st[d] = lay.stride(d);
  double worst = 0.0;
  for_each_row<D>(lay.interior_box(), [&](IVec<D> q, int n) {
    const double* const row = u + lay.offset(q);
    bool inner[D] = {};  // both neighbors along d lie in the interior
    for (int d = 1; d < D; ++d) inner[d] = q[d] > 0 && q[d] + 1 < m[d];
    for (int t = 0; t < n; ++t) {
      for (int d = 0; d < D; ++d) {
        if (d == 0 ? (t == 0 || t + 1 >= n) : !inner[d]) continue;
        const double um = row[t - st[d]], uc = row[t], up = row[t + st[d]];
        const double num = std::fabs(up - 2.0 * uc + um);
        const double den = std::fabs(up - uc) + std::fabs(uc - um) +
                           eps * (std::fabs(up) + 2.0 * std::fabs(uc) +
                                  std::fabs(um));
        if (den > 0.0) worst = std::max(worst, num / den);
      }
    }
  });
  return worst;
}

/// Criterion built on the Löhner estimator (the indicator family the
/// BATS-R-US lineage converged on): refine above `refine_threshold`,
/// coarsen below `coarsen_threshold`.
template <int D>
struct LohnerCriterion {
  int var = 0;
  double refine_threshold = 0.6;
  double coarsen_threshold = 0.2;
  int max_level = 4;
  double eps = 0.02;

  AdaptFlag operator()(const Forest<D>& forest, const BlockStore<D>& store,
                       int block) const {
    const double e = max_lohner_estimate<D>(store, block, var, eps);
    if (e > refine_threshold && forest.level(block) < max_level)
      return AdaptFlag::Refine;
    if (e < coarsen_threshold && forest.level(block) > 0)
      return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

/// Combines several criteria: refine if ANY wants refinement; coarsen only
/// if ALL agree (the conservative join — a block stays refined as long as
/// one indicator needs it). The production solar-wind code combined
/// density-gradient and current-sheet indicators exactly this way.
template <int D>
struct CombinedCriterion {
  std::vector<std::function<AdaptFlag(const Forest<D>&, const BlockStore<D>&,
                                      int)>>
      parts;

  AdaptFlag operator()(const Forest<D>& forest, const BlockStore<D>& store,
                       int block) const {
    bool all_coarsen = !parts.empty();
    for (const auto& c : parts) {
      const AdaptFlag f = c(forest, store, block);
      if (f == AdaptFlag::Refine) return AdaptFlag::Refine;
      if (f != AdaptFlag::Coarsen) all_coarsen = false;
    }
    return all_coarsen ? AdaptFlag::Coarsen : AdaptFlag::Keep;
  }
};

/// Maximum undivided curl magnitude of the vector field stored in variables
/// [first, first+D) over the block interior (interior-clamped central
/// differences, no ghosts needed). In the MHD production code this flags
/// current sheets (curl B) and shear layers (curl v).
template <int D>
double max_undivided_curl(const BlockStore<D>& store, int block, int first) {
  static_assert(D == 2 || D == 3, "curl needs 2 or 3 dimensions");
  const BlockLayout<D>& lay = store.layout();
  AB_REQUIRE(first >= 0 && first + D <= lay.nvar,
             "max_undivided_curl: variables out of range");
  ConstBlockView<D> v = store.view(block);
  auto dq = [&](int var, IVec<D> p, int d) {
    IVec<D> lo = p, hi = p;
    if (lo[d] > 0) lo[d] -= 1;
    if (hi[d] + 1 < lay.interior[d]) hi[d] += 1;
    const int span = hi[d] - lo[d];
    return span > 0 ? (v.at(var, hi) - v.at(var, lo)) / span : 0.0;
  };
  double worst = 0.0;
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    if constexpr (D == 2) {
      // z-component of curl: d(vy)/dx - d(vx)/dy (undivided).
      worst = std::max(worst,
                       std::fabs(dq(first + 1, p, 0) - dq(first, p, 1)));
    } else {
      double c2 = 0.0;
      for (int d = 0; d < 3; ++d) {
        const int a = (d + 1) % 3, b = (d + 2) % 3;
        const double c = dq(first + b, p, a) - dq(first + a, p, b);
        c2 += c * c;
      }
      worst = std::max(worst, std::sqrt(c2));
    }
  });
  return worst;
}

/// Geometric criterion: refine every block whose region intersects the
/// given predicate region (evaluated on the block's bounding box), up to
/// `max_level`; used to build static test grids and the Figure 2/3
/// decompositions.
template <int D>
struct RegionCriterion {
  std::function<bool(const RVec<D>& lo, const RVec<D>& hi)> intersects;
  int max_level = 2;

  AdaptFlag operator()(const Forest<D>& forest, const BlockStore<D>&,
                       int block) const {
    if (forest.level(block) >= max_level) return AdaptFlag::Keep;
    return intersects(forest.block_lo(block), forest.block_hi(block))
               ? AdaptFlag::Refine
               : AdaptFlag::Keep;
  }
};

}  // namespace ab
