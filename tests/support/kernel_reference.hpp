// Reference scalar finite-volume update: the seed per-cell implementation,
// retained verbatim as the correctness oracle for the pencil-vectorized
// kernel in src/physics/kernel.hpp. It is test support, not library code:
// the equivalence test suite (tests/physics/kernel_equivalence_test.cpp)
// asserts that the production pencil path produces bitwise-identical output
// to this path across all physics, orders, limiters, and flux schemes.
//
// This walks cells one at a time, gathering each State through strided
// load_state calls and recomputing limited slopes at every face — exactly
// the structure the pencil kernel replaces. Do not optimize this file; its
// value is being the unchanged seed semantics.
#pragma once

#include <array>
#include <cstdint>

#include "core/block_store.hpp"
#include "core/face_flux.hpp"
#include "physics/kernel.hpp"
#include "physics/limiter.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

/// Single forward-Euler stage over one block, cell-at-a-time reference
/// implementation. Same contract and return value as fv_block_update.
template <int D, class Phys>
std::uint64_t fv_block_update_reference(
    const BlockLayout<D>& lay, const double* uin, double* uout,
    const Phys& phys, const RVec<D>& dx, double dt, SpatialOrder order,
    LimiterKind lim = LimiterKind::VanLeer,
    FluxScheme scheme = FluxScheme::Rusanov,
    FaceFluxStorage<D>* face_fluxes = nullptr,
    const Box<D>* sub_box = nullptr) {
  static_assert(Phys::NVAR >= 1);
  using State = typename Phys::State;
  AB_REQUIRE(lay.nvar == Phys::NVAR, "fv_block_update: nvar mismatch");
  AB_REQUIRE(lay.ghost >= (order == SpatialOrder::Second ? 2 : 1),
             "fv_block_update: insufficient ghost layers for this order");

  const std::int64_t fs = lay.field_stride();
  const IVec<D> m = lay.interior;
  const Box<D> interior = sub_box != nullptr ? *sub_box : lay.interior_box();
  if (sub_box != nullptr) {
    AB_REQUIRE(lay.interior_box().contains(*sub_box),
               "fv_block_update: sub_box outside the interior");
    AB_REQUIRE(face_fluxes == nullptr,
               "fv_block_update: face-flux recording needs the full block");
  }

  // Start from uout = uin on the interior.
  for (int v = 0; v < Phys::NVAR; ++v) {
    const double* src = uin + v * fs;
    double* dst = uout + v * fs;
    for_each_cell<D>(interior, [&](IVec<D> p) {
      const std::int64_t off = lay.offset(p);
      dst[off] = src[off];
    });
  }

  // Dimension-by-dimension face-flux sweeps.
  for (int dim = 0; dim < D; ++dim) {
    const std::int64_t sd = lay.stride(dim);
    const double lambda = dt / dx[dim];
    Box<D> faces = interior;
    faces.hi[dim] += 1;  // face p sits between cells p-e_dim and p
    for_each_cell<D>(faces, [&](IVec<D> p) {
      const std::int64_t off = lay.offset(p);
      State uR = detail::load_state<Phys>(uin, fs, off);
      State uL = detail::load_state<Phys>(uin, fs, off - sd);
      if (order == SpatialOrder::Second) {
        State uLL = detail::load_state<Phys>(uin, fs, off - 2 * sd);
        State uRR = detail::load_state<Phys>(uin, fs, off + sd);
        for (int v = 0; v < Phys::NVAR; ++v) {
          const double sl =
              limited_slope(lim, uL[v] - uLL[v], uR[v] - uL[v]);
          const double sr =
              limited_slope(lim, uR[v] - uL[v], uRR[v] - uR[v]);
          uL[v] += 0.5 * sl;
          uR[v] -= 0.5 * sr;
        }
      }
      State F;
      detail::numerical_flux<Phys>(phys, scheme, uL, uR, dim, F);
      if (face_fluxes != nullptr) {
        if (p[dim] == 0)
          for (int v = 0; v < Phys::NVAR; ++v)
            face_fluxes->at(dim, 0, p, v) = F[v];
        else if (p[dim] == m[dim])
          for (int v = 0; v < Phys::NVAR; ++v)
            face_fluxes->at(dim, 1, p, v) = F[v];
      }
      if (p[dim] > interior.lo[dim]) {  // left cell is in the update region
        double* dst = uout;
        const std::int64_t offL = off - sd;
        for (int v = 0; v < Phys::NVAR; ++v)
          dst[v * fs + offL] -= lambda * F[v];
      }
      if (p[dim] < interior.hi[dim]) {  // right cell is in the region
        for (int v = 0; v < Phys::NVAR; ++v)
          uout[v * fs + off] += lambda * F[v];
      }
    });
  }

  // Non-conservative source terms (Powell eight-wave for MHD).
  if constexpr (Phys::kHasSource) {
    for_each_cell<D>(interior, [&](IVec<D> p) {
      const std::int64_t off = lay.offset(p);
      const State u = detail::load_state<Phys>(uin, fs, off);
      std::array<State, 2 * D> nbrs;
      for (int d = 0; d < D; ++d) {
        const std::int64_t s = lay.stride(d);
        nbrs[2 * d + 0] = detail::load_state<Phys>(uin, fs, off - s);
        nbrs[2 * d + 1] = detail::load_state<Phys>(uin, fs, off + s);
      }
      State du{};
      phys.add_source(u, nbrs, dx, dt, du);
      for (int v = 0; v < Phys::NVAR; ++v) uout[v * fs + off] += du[v];
    });
  }

  std::uint64_t flops = fv_update_flops<D, Phys>(lay, order);
  if (sub_box != nullptr) {
    // Approximate: scale the whole-block count by the cell fraction.
    flops = flops * static_cast<std::uint64_t>(interior.volume()) /
            static_cast<std::uint64_t>(lay.interior_cells());
  }
  return flops;
}

}  // namespace ab
