// Reference refinement criteria: the per-cell forms of max_relative_jump
// and max_lohner_estimate (src/amr/criteria.hpp), retained as the oracle
// for the row versions. Each read goes through ConstBlockView::at. Do not
// optimize this file; its value is being the unchanged per-cell semantics.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/block_store.hpp"

namespace ab {

template <int D>
double max_relative_jump_reference(const BlockStore<D>& store, int block,
                                   int var, double floor = 1e-12) {
  const BlockLayout<D>& lay = store.layout();
  ConstBlockView<D> v = store.view(block);
  double worst = 0.0;
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    const double a = v.at(var, p);
    for (int d = 0; d < D; ++d) {
      if (p[d] + 1 >= lay.interior[d]) continue;
      IVec<D> q = p;
      q[d] += 1;
      const double b = v.at(var, q);
      const double scale =
          std::max({std::fabs(a), std::fabs(b), floor});
      worst = std::max(worst, std::fabs(b - a) / scale);
    }
  });
  return worst;
}

template <int D>
double max_lohner_estimate_reference(const BlockStore<D>& store, int block,
                                     int var, double eps = 0.02) {
  const BlockLayout<D>& lay = store.layout();
  ConstBlockView<D> v = store.view(block);
  double worst = 0.0;
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    for (int d = 0; d < D; ++d) {
      if (p[d] == 0 || p[d] + 1 >= lay.interior[d]) continue;
      IVec<D> lo = p, hi = p;
      lo[d] -= 1;
      hi[d] += 1;
      const double um = v.at(var, lo), uc = v.at(var, p),
                   up = v.at(var, hi);
      const double num = std::fabs(up - 2.0 * uc + um);
      const double den = std::fabs(up - uc) + std::fabs(uc - um) +
                         eps * (std::fabs(up) + 2.0 * std::fabs(uc) +
                                std::fabs(um));
      if (den > 0.0) worst = std::max(worst, num / den);
    }
  });
  return worst;
}

}  // namespace ab
