#include "core/ghost.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace ab {

template <int D>
GhostExchanger<D>::GhostExchanger(const Forest<D>& forest,
                                  const BlockLayout<D>& layout,
                                  Prolongation prolongation)
    : forest_(&forest), layout_(layout), prolongation_(prolongation) {
  AB_REQUIRE(layout_.ghost >= 1, "GhostExchanger: layout has no ghost cells");
  AB_REQUIRE(forest.config().max_level_diff == 1,
             "GhostExchanger: requires the 2:1 refinement constraint");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(layout_.interior[d] % 2 == 0,
               "GhostExchanger: interior extents must be even so coarse/fine "
               "interfaces are cell-aligned");
  rebuild();
}

template <int D>
void GhostExchanger<D>::plan_face(int id, int dim, int side,
                                  std::vector<GhostOp<D>>& out,
                                  std::uint8_t& bfaces) const {
  const Forest<D>& f = *forest_;
  const IVec<D> m = layout_.interior;
  const int g = layout_.ghost;
  const Box<D> slab = layout_.interior_box().face_ghost_slab(dim, side, g);

  auto nb = f.face_neighbor(id, dim, side);
  if (nb.kind == Forest<D>::NeighborKind::Boundary) {
    bfaces = static_cast<std::uint8_t>(bfaces | (1u << (2 * dim + side)));
    return;
  }

  const IVec<D> c = f.coords(id);
  IVec<D> lo_dst;  // global cell-index low corner of dst at its level
  for (int d = 0; d < D; ++d) lo_dst[d] = c[d] * m[d];
  const IVec<D> n_u = c + unit<D>(dim, side ? 1 : -1);  // unwrapped

  if (nb.kind == Forest<D>::NeighborKind::Same) {
    GhostOp<D> op;
    op.kind = GhostOpKind::SameCopy;
    op.src = nb.ids[0];
    op.dst = id;
    op.face_dim = static_cast<std::int8_t>(dim);
    op.face_side = static_cast<std::int8_t>(side);
    op.dst_box = slab;
    op.a = IVec<D>{};
    op.a[dim] = side ? -m[dim] : m[dim];
    out.push_back(op);
    return;
  }

  if (nb.kind == Forest<D>::NeighborKind::Finer) {
    // Wrap displacement between the unwrapped neighbor location and the
    // stored (wrapped) node, expressed at the finer level.
    IVec<D> n_w = n_u;
    bool ok = f.wrap_coords(f.level(id), n_w);
    AB_ASSERT(ok);
    (void)ok;
    const IVec<D> wrap_fine = (n_u - n_w).shifted_left(1);
    for (int i = 0; i < Forest<D>::kFaceChildren; ++i) {
      const int src = nb.ids[i];
      const IVec<D> fu = f.coords(src) + wrap_fine;  // unwrapped fine coords
      GhostOp<D> op;
      op.kind = GhostOpKind::Restrict;
      op.src = src;
      op.dst = id;
      op.face_dim = static_cast<std::int8_t>(dim);
      op.face_side = static_cast<std::int8_t>(side);
      // fine src corner = 2*dst_local + a
      for (int d = 0; d < D; ++d) op.a[d] = 2 * lo_dst[d] - fu[d] * m[d];
      // dst cells covered by this fine block, in dst-local coarse indices.
      Box<D> cover;
      for (int d = 0; d < D; ++d) {
        cover.lo[d] = ((fu[d] * m[d]) >> 1) - lo_dst[d];
        cover.hi[d] = (((fu[d] + 1) * m[d]) >> 1) - lo_dst[d];
      }
      op.dst_box = intersect(slab, cover);
      AB_ASSERT(!op.dst_box.empty());
      out.push_back(op);
    }
    return;
  }

  // Coarser neighbor: prolongation.
  const IVec<D> n_cu = n_u.shifted_right(1);  // unwrapped coarse coords
  GhostOp<D> op;
  op.kind = GhostOpKind::Prolong;
  op.src = nb.ids[0];
  op.dst = id;
  op.face_dim = static_cast<std::int8_t>(dim);
  op.face_side = static_cast<std::int8_t>(side);
  op.a = lo_dst;
  for (int d = 0; d < D; ++d) op.b[d] = n_cu[d] * m[d];
  // Slope-stencil validity: the source interior, extended one cell into
  // every source ghost slab that fill()'s first phase populates. The slab
  // facing the destination is always restriction-filled (by the destination
  // itself); other slabs qualify when the source's neighbor there is Same
  // or Finer. Coarser (phase 2) and Boundary (filled later, by BCs) do not.
  op.valid = layout_.interior_box();
  for (int d = 0; d < D; ++d) {
    for (int s = 0; s < 2; ++s) {
      bool extend;
      if (d == dim) {
        // The face toward dst is (dim, 1-side) as seen from the source.
        extend = (s == 1 - side);
      } else {
        const auto k = f.face_neighbor(op.src, d, s).kind;
        extend = (k == Forest<D>::NeighborKind::Same ||
                  k == Forest<D>::NeighborKind::Finer);
      }
      if (!extend) continue;
      if (s == 0)
        op.valid.lo[d] -= 1;
      else
        op.valid.hi[d] += 1;
    }
  }
  Box<D> cover;  // src's region in dst-local fine indices
  for (int d = 0; d < D; ++d) {
    cover.lo[d] = 2 * n_cu[d] * m[d] - lo_dst[d];
    cover.hi[d] = 2 * (n_cu[d] + 1) * m[d] - lo_dst[d];
  }
  op.dst_box = intersect(slab, cover);
  AB_ASSERT(op.dst_box == slab);  // under 2:1, the coarse block spans the face
  out.push_back(op);
}

template <int D>
void GhostExchanger<D>::rebuild() {
  const Forest<D>& f = *forest_;
  const auto cap = static_cast<std::size_t>(f.node_capacity());
  std::vector<int> touched;
  if (!f.changes_since(cursor_, touched)) {
    // A history this plan has not followed: every node counts as touched,
    // and nothing of the old plan (node ids of another topology) is kept.
    touched.resize(cap);
    std::iota(touched.begin(), touched.end(), 0);
    ops_.clear();
    dst_ops_.clear();
    dst_bfaces_.clear();
    prolong_srcs_.clear();
    plan_stats_ = GhostPlanStats{};
  }
  dst_ops_.resize(cap);
  dst_bfaces_.resize(cap, 0);
  prolong_srcs_.resize(cap);
  fresh_at_.resize(cap, -1);

  // The re-planned destinations: their fresh ops, and where each one's sit.
  struct FreshPlan {
    int id;
    OpRange ops;  // in `fresh`
    std::uint8_t bfaces;
  };
  std::vector<GhostOp<D>> fresh;
  std::vector<FreshPlan> plans;

  // plan_stats_ follows the plan: a destination's ops leave it when the
  // destination loses its plan, and its fresh ops join it.
  auto count = [this](const GhostOp<D>& op, int sign) {
    const int kind = static_cast<int>(op.kind);
    plan_stats_.ops[kind] += sign;
    plan_stats_.cells[kind] += sign * op.cells();
  };
  auto drop = [&](int id) {
    const auto u = static_cast<std::size_t>(id);
    const OpRange r = dst_ops_[u];
    for (int k = r.first; k < r.first + r.count; ++k)
      count(ops_[static_cast<std::size_t>(k)], -1);
    dst_ops_[u] = OpRange{};
    dst_bfaces_[u] = 0;
    prolong_srcs_[u].clear();
  };
  auto replan = [&](int id) {
    if (fresh_at_[static_cast<std::size_t>(id)] >= 0) return;
    drop(id);
    fresh_at_[static_cast<std::size_t>(id)] = static_cast<int>(plans.size());
    FreshPlan p{id, {static_cast<int>(fresh.size()), 0}, 0};
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side)
        plan_face(id, dim, side, fresh, p.bfaces);
    p.ops.count = static_cast<int>(fresh.size()) - p.ops.first;
    auto& srcs = prolong_srcs_[static_cast<std::size_t>(id)];
    for (int k = p.ops.first; k < p.ops.first + p.ops.count; ++k) {
      const GhostOp<D>& op = fresh[static_cast<std::size_t>(k)];
      count(op, +1);
      if (op.kind == GhostOpKind::Prolong &&
          std::find(srcs.begin(), srcs.end(), op.src) == srcs.end())
        srcs.push_back(op.src);
    }
    plans.push_back(p);
  };
  // Sources of the fresh ops of plans[0, n) that pass `want`, re-planned.
  auto replan_sources = [&](std::size_t n, auto want) {
    for (std::size_t i = 0; i < n; ++i) {
      const OpRange r = plans[i].ops;
      for (int k = r.first; k < r.first + r.count; ++k) {
        const GhostOp<D>& op = fresh[static_cast<std::size_t>(k)];
        if (want(op)) replan(op.src);  // by value: `fresh` may grow
      }
    }
  };

  // 1. Touched nodes lose their plan; those that are leaves now re-plan.
  for (int id : touched) {
    if (fresh_at_[static_cast<std::size_t>(id)] >= 0) continue;  // repeat
    if (f.is_live(id) && f.is_leaf(id))
      replan(id);
    else
      drop(id);
  }
  // 2. Their face neighbors (the sources of their ops: every leaf across a
  //    touched leaf's face) see a changed face. A region keeps its cover
  //    through refine/coarsen, so every leaf that bordered a removed node
  //    borders a touched leaf now.
  replan_sources(plans.size(), [](const GhostOp<D>&) { return true; });
  // 3. A Prolong op's `valid` box depends on the coarse source's other
  //    faces, so every finer neighbor of a leaf with a changed face — the
  //    source of one of its Restrict ops — re-plans too.
  replan_sources(plans.size(), [](const GhostOp<D>& op) {
    return op.kind == GhostOpKind::Restrict;
  });

  // Reassemble ops_ in leaf order, in place. Kept destinations keep their
  // relative order, so their ops move as runs (adjacent before and after).
  // A run moving left never lands on a source still to be read, nor does
  // a run moving right once every run to its right has moved: left movers
  // go first, front to back, then right movers back to front. Fresh plans
  // fill the gaps last.
  struct Move {
    int from, to, count;
  };
  std::vector<Move> runs;    // kept ops, within ops_
  std::vector<Move> placed;  // fresh plans, from `fresh` into ops_
  boundary_faces_.clear();
  int size = 0;
  for (int id : f.leaves()) {
    const auto u = static_cast<std::size_t>(id);
    const int at = fresh_at_[u];
    if (at >= 0) {
      const FreshPlan& p = plans[static_cast<std::size_t>(at)];
      placed.push_back({p.ops.first, size, p.ops.count});
      dst_ops_[u] = OpRange{size, p.ops.count};
      dst_bfaces_[u] = p.bfaces;
    } else {
      const OpRange r = dst_ops_[u];
      if (!runs.empty() && runs.back().from + runs.back().count == r.first &&
          runs.back().to + runs.back().count == size)
        runs.back().count += r.count;
      else
        runs.push_back({r.first, size, r.count});
      dst_ops_[u] = OpRange{size, r.count};
    }
    size += dst_ops_[u].count;
    for (int bit = 0; bit < 2 * D; ++bit)
      if ((dst_bfaces_[u] >> bit) & 1)
        boundary_faces_.push_back(BoundaryFace{id, bit >> 1, bit & 1});
  }
  for (const FreshPlan& p : plans)
    fresh_at_[static_cast<std::size_t>(p.id)] = -1;
  if (size > static_cast<int>(ops_.size()))
    ops_.resize(static_cast<std::size_t>(size));
  const auto op_at = [this](int k) { return ops_.begin() + k; };
  for (const Move& m : runs)
    if (m.to < m.from)
      std::copy(op_at(m.from), op_at(m.from + m.count), op_at(m.to));
  for (auto m = runs.rbegin(); m != runs.rend(); ++m)
    if (m->to > m->from)
      std::copy_backward(op_at(m->from), op_at(m->from + m->count),
                         op_at(m->to + m->count));
  for (const Move& m : placed)
    std::copy(fresh.begin() + m.from, fresh.begin() + m.from + m.count,
              op_at(m.to));
  ops_.resize(static_cast<std::size_t>(size));

  // Batched execution order: group by kind (SameCopy, Restrict, Prolong),
  // then by destination id, ops of one destination in plan order — so
  // fill() runs each kind's tight loop back to back and writes each
  // destination's ghost ring in one burst. One pass over destination ids
  // places every op at its kind's next slot. ops_ itself stays in planning
  // order (the parallel-machine simulator walks it).
  int slot[3] = {0, static_cast<int>(plan_stats_.ops[0]),
                 static_cast<int>(plan_stats_.ops[0] + plan_stats_.ops[1])};
  phase1_count_ = slot[2];
  exec_order_.resize(ops_.size());
  for (const OpRange& r : dst_ops_)
    for (int k = r.first; k < r.first + r.count; ++k)
      exec_order_[static_cast<std::size_t>(
          slot[static_cast<int>(ops_[static_cast<std::size_t>(k)].kind)]++)] =
          k;

  is_prolong_src_.assign(cap, 0);
  for (const auto& srcs : prolong_srcs_)
    for (int s : srcs) is_prolong_src_[static_cast<std::size_t>(s)] = 1;
}

namespace {

// The batched executor: each op runs as rows along the unit-stride axis,
// variables outer, rows in for_each_row (= for_each_cell) order. SameCopy
// rows are memcpy; Restrict rows average 2^D stride-2 source streams;
// Prolong rows hoist the transverse parities and slope-validity flags.
// `row_dst(v, q, n)` is where the n values of the row starting at dst-local
// cell q of variable v go: the destination's ghost row for a local fill,
// the next n message doubles for a pack. The arithmetic is restrict_value/
// prolong_value's, value for value (tests/support/ghost_reference.hpp).
// The layout, the functor and the op's fields are locals: row stores may
// alias anything reached through a pointer, so values read through one
// are reloaded after every row (BM_GhostFillUniform/8 then ran at ~0.6x).
template <int D, class RowDst>
void run_op_rows(const BlockLayout<D> lay, Prolongation kind,
                 const double* src, const GhostOp<D>& op, RowDst row_dst) {
  const Box<D> b = op.dst_box;
  if (b.empty()) return;
  const std::int64_t fs = lay.field_stride();
  const IVec<D> a = op.a;

  switch (op.kind) {
    case GhostOpKind::SameCopy: {
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          std::memcpy(row_dst(v, q, n), s + lay.offset(q + a),
                      sizeof(double) * static_cast<std::size_t>(n));
        });
      }
      break;
    }
    case GhostOpKind::Restrict: {
      constexpr int kChildren = 1 << D;
      std::int64_t child[kChildren];
      for (int mask = 0; mask < kChildren; ++mask) {
        std::int64_t off = 0;
        for (int d = 0; d < D; ++d)
          if ((mask >> d) & 1) off += lay.stride(d);
        child[mask] = off;
      }
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          double* AB_RESTRICT dp = row_dst(v, q, n);
          const double* AB_RESTRICT sp = s + lay.offset(q.shifted_left(1) + a);
          for (int t = 0; t < n; ++t) {
            double sum = 0.0;
            for (int mask = 0; mask < kChildren; ++mask)
              sum += sp[2 * t + child[mask]];
            dp[t] = sum / kChildren;
          }
        });
      }
      break;
    }
    case GhostOpKind::Prolong: {
      const IVec<D> ob = op.b;
      const Box<D> valid = op.valid;
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          double* AB_RESTRICT dp = row_dst(v, q, n);
          // Transverse coordinates are fixed along the row: precompute the
          // coarse cell, parity factor, and slope-validity per dimension.
          IVec<D> cc{};
          double fac[D > 1 ? D : 1];
          bool use[D > 1 ? D : 1];
          for (int dd = 1; dd < D; ++dd) {
            const int gf = q[dd] + a[dd];
            cc[dd] = (gf >> 1) - ob[dd];
            fac[dd] = (gf & 1) ? 0.25 : -0.25;
            use[dd] = cc[dd] - 1 >= valid.lo[dd] && cc[dd] + 1 < valid.hi[dd];
          }
          cc[0] = 0;
          const std::int64_t cbase = lay.offset(cc);
          const int gf0 = q[0] + a[0];
          if (kind == Prolongation::Constant) {
            for (int t = 0; t < n; ++t) {
              const std::int64_t c0 = ((gf0 + t) >> 1) - ob[0];
              dp[t] = s[cbase + c0];
            }
            return;
          }
          const bool linear = kind == Prolongation::Linear;
          for (int t = 0; t < n; ++t) {
            const int g0 = gf0 + t;
            const std::int64_t c0 = (g0 >> 1) - ob[0];
            const std::int64_t off = cbase + c0;
            const double c = s[off];
            double val = c;
            if (c0 - 1 >= valid.lo[0] && c0 + 1 < valid.hi[0]) {
              const double sl = linear
                                    ? 0.5 * (s[off + 1] - s[off - 1])
                                    : minmod(s[off + 1] - c, c - s[off - 1]);
              val += ((g0 & 1) ? 0.25 : -0.25) * sl;
            }
            for (int dd = 1; dd < D; ++dd) {
              if (!use[dd]) continue;
              const std::int64_t st = lay.stride(dd);
              const double sl = linear
                                    ? 0.5 * (s[off + st] - s[off - st])
                                    : minmod(s[off + st] - c, c - s[off - st]);
              val += fac[dd] * sl;
            }
            dp[t] = val;
          }
        });
      }
      break;
    }
  }
}

}  // namespace

template <int D>
void run_ghost_op(const BlockLayout<D>& layout, Prolongation prolongation,
                  const double* src, const GhostOp<D>& op, double* dst) {
  run_op_rows<D>(layout, prolongation, src, op,
                 [dst, fs = layout.field_stride(),
                  lay = layout](int v, IVec<D> q, int) {
                   return dst + v * fs + lay.offset(q);
                 });
}

template <int D>
void GhostExchanger<D>::apply(BlockStore<D>& store,
                              const GhostOp<D>& op) const {
  run_ghost_op<D>(layout_, prolongation_,
                  std::as_const(store).view(op.src).base, op,
                  store.view(op.dst).base);
}

template <int D>
void GhostExchanger<D>::pack_op(const BlockStore<D>& store,
                                const GhostOp<D>& op, double* buf) const {
  run_op_rows<D>(layout_, prolongation_, store.view(op.src).base, op,
                 [cursor = buf](int, IVec<D>, int n) mutable {
                   double* row = cursor;
                   cursor += n;
                   return row;
                 });
}

template <int D>
void GhostExchanger<D>::unpack_op(BlockStore<D>& store, const GhostOp<D>& op,
                                  const double* buf) const {
  const BlockLayout<D> lay = layout_;  // a local, as in run_op_rows
  const std::int64_t fs = lay.field_stride();
  const Box<D> b = op.dst_box;
  double* const dst = store.view(op.dst).base;
  const double* cursor = buf;
  for (int v = 0; v < lay.nvar; ++v)
    for_each_row<D>(b, [&](IVec<D> q, int n) {
      std::memcpy(dst + v * fs + lay.offset(q), cursor,
                  sizeof(double) * static_cast<std::size_t>(n));
      cursor += n;
    });
}

template <int D>
void GhostExchanger<D>::fill(BlockStore<D>& store, ThreadPool* pool) const {
  // Phase 1: same-level copies and restrictions read only source interiors.
  // Phase 2: prolongations, whose slope stencils may read the ghost cells
  // phase 1 just filled on their coarse sources. Ops within a phase write
  // disjoint regions, so each phase is a parallel_for over a contiguous
  // range of the kind/destination-sorted exec_order_.
  auto run_range = [&](int lo, int hi) {
    if (pool != nullptr) {
      pool->parallel_for(static_cast<std::int64_t>(hi - lo),
                         [&](std::int64_t i) {
                           apply(store, ops_[static_cast<std::size_t>(
                                            exec_order_[lo + i])]);
                         });
    } else {
      for (int i = lo; i < hi; ++i)
        apply(store, ops_[static_cast<std::size_t>(exec_order_[i])]);
    }
  };
  run_range(0, phase1_count_);
  run_range(phase1_count_, static_cast<int>(exec_order_.size()));
}

template <int D>
void GhostExchanger<D>::fill_block_phase1(BlockStore<D>& store,
                                          int dst) const {
  // fill()'s relative order: the destination's SameCopy ops, then its
  // Restrict ops, each in plan order.
  const OpRange r = dst_ops_[static_cast<std::size_t>(dst)];
  for (GhostOpKind kind : {GhostOpKind::SameCopy, GhostOpKind::Restrict})
    for (int k = r.first; k < r.first + r.count; ++k)
      if (ops_[static_cast<std::size_t>(k)].kind == kind)
        apply(store, ops_[static_cast<std::size_t>(k)]);
}

template <int D>
void GhostExchanger<D>::fill_block_prolong(BlockStore<D>& store,
                                           int dst) const {
  const OpRange r = dst_ops_[static_cast<std::size_t>(dst)];
  for (int k = r.first; k < r.first + r.count; ++k)
    if (ops_[static_cast<std::size_t>(k)].kind == GhostOpKind::Prolong)
      apply(store, ops_[static_cast<std::size_t>(k)]);
}

template <int D>
std::int64_t GhostExchanger<D>::total_cells() const {
  std::int64_t n = 0;
  for (const auto& op : ops_) n += op.cells();
  return n;
}

template class GhostExchanger<1>;
template class GhostExchanger<2>;
template class GhostExchanger<3>;
template void run_ghost_op<1>(const BlockLayout<1>&, Prolongation,
                              const double*, const GhostOp<1>&, double*);
template void run_ghost_op<2>(const BlockLayout<2>&, Prolongation,
                              const double*, const GhostOp<2>&, double*);
template void run_ghost_op<3>(const BlockLayout<3>&, Prolongation,
                              const double*, const GhostOp<3>&, double*);

}  // namespace ab
