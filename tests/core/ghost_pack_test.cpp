// The cross-rank message path: GhostExchanger::pack_op runs the batched row
// executor into a message buffer and unpack_op copies the buffer back row
// by row. The payload must be bitwise the sequence the seed per-cell path
// (support/ghost_reference.hpp) emitted — var-major, dst_box cells in
// for_each_cell order — and unpacking must write exactly dst_box.
#include "core/ghost.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "support/ghost_reference.hpp"

namespace ab {
namespace {

constexpr Prolongation kProlongations[] = {Prolongation::Constant,
                                           Prolongation::Linear,
                                           Prolongation::LimitedLinear};

/// Distinct values in every allocated double of every leaf (ghosts and
/// padding included), so a row read from the wrong place shows.
template <int D>
void seed_raw(const Forest<D>& forest, BlockStore<D>& store) {
  const std::int64_t n = store.layout().block_doubles();
  for (int id : forest.leaves()) {
    store.ensure(id);
    double* base = store.view(id).base;
    for (std::int64_t i = 0; i < n; ++i)
      base[i] = 0.001 * static_cast<double>(i) + 17.0 * id +
                0.5 * static_cast<double>((i * 7919) % 13);
  }
}

template <int D>
Forest<D> mixed_forest(IVec<D> roots) {
  typename Forest<D>::Config cfg;
  cfg.root_blocks = roots;
  cfg.max_level = 2;
  for (int d = 0; d < D; ++d) cfg.periodic[d] = true;
  Forest<D> forest(cfg);
  forest.refine(forest.find(0, IVec<D>(0)));
  forest.refine(forest.find(1, IVec<D>(1)));
  return forest;
}

template <int D>
void check_pack_unpack(const Forest<D>& forest, const BlockLayout<D>& lay,
                       Prolongation prolongation) {
  GhostExchanger<D> gx(forest, lay, prolongation);
  BlockStore<D> store(lay);
  seed_raw(forest, store);
  // Prolong stencils read phase-1 ghosts; fill them so the payloads see
  // realistic source slabs (both paths read the same bytes either way).
  gx.fill(store);

  int kinds[3] = {0, 0, 0};
  const std::size_t block_bytes =
      static_cast<std::size_t>(lay.block_doubles()) * sizeof(double);
  constexpr double kGuard = -7.25e300;
  for (const auto& op : gx.ops()) {
    ++kinds[static_cast<int>(op.kind)];
    const std::vector<double> want = pack_ghost_reference(gx, store, op);
    const std::size_t n = static_cast<std::size_t>(gx.op_payload_doubles(op));
    ASSERT_EQ(want.size(), n);
    // One guard double past the payload catches an overrunning pack.
    std::vector<double> buf(n + 1, kGuard);
    gx.pack_op(store, op, buf.data());
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(buf[k]),
                std::bit_cast<std::uint64_t>(want[k]))
          << "op kind " << static_cast<int>(op.kind) << " dst " << op.dst
          << " payload index " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(buf[n]),
              std::bit_cast<std::uint64_t>(kGuard))
        << "pack wrote past its payload";

    // Unpack into a sentinel-filled copy of the destination block: the
    // payload lands cell by cell in dst_box, every other double stays.
    BlockStore<D> target(lay);
    target.ensure(op.dst);
    BlockView<D> tv = target.view(op.dst);
    for (std::int64_t i = 0; i < lay.block_doubles(); ++i)
      tv.base[i] = -1000.0 - static_cast<double>(i);
    std::vector<double> expect(tv.base, tv.base + lay.block_doubles());
    std::size_t k = 0;
    for (int v = 0; v < lay.nvar; ++v)
      for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
        expect[static_cast<std::size_t>(v * lay.field_stride() +
                                        lay.offset(q))] = want[k++];
      });
    gx.unpack_op(target, op, buf.data());
    ASSERT_EQ(0, std::memcmp(tv.base, expect.data(), block_bytes))
        << "unpack_op wrote outside dst_box or out of order (op kind "
        << static_cast<int>(op.kind) << ", dst " << op.dst << ")";
  }
  // The mixed forest exercises every op kind.
  for (int c : kinds) EXPECT_GT(c, 0);
}

template <int D>
void check_all(IVec<D> roots, IVec<D> interior, int nvar) {
  const Forest<D> forest = mixed_forest<D>(roots);
  for (int pad0 : {0, 1})
    for (Prolongation p : kProlongations) {
      SCOPED_TRACE(::testing::Message()
                   << "D=" << D << " pad0=" << pad0
                   << " prolongation=" << static_cast<int>(p));
      check_pack_unpack<D>(forest, BlockLayout<D>(interior, 2, nvar, pad0),
                           p);
    }
}

TEST(GhostPack, PackOpMatchesReferencePayload) {
  check_all<1>(IVec<1>(4), IVec<1>(8), 2);
  check_all<2>(IVec<2>{2, 2}, IVec<2>{8, 6}, 3);
  check_all<3>(IVec<3>{2, 2, 2}, IVec<3>{6, 4, 4}, 2);
}

}  // namespace
}  // namespace ab
