// Block payloads (migration, coarsen gather, checkpoint restore) pack a
// block's interior row by row and unpack it back. The round trip must be
// the identity on the interior, in for_each_cell order per variable, and
// must leave ghosts and pad0 cells of the receiving block untouched.
#include "parsim/block_migration.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/block_store.hpp"

namespace ab {
namespace {

template <int D>
void check_round_trip(const BlockLayout<D>& lay) {
  SCOPED_TRACE(::testing::Message() << "D=" << D << " " << lay.describe()
                                    << " ghost=" << lay.ghost);
  const std::int64_t nd = lay.block_doubles();
  BlockStore<D> from(lay), to(lay);
  from.ensure(3);
  to.ensure(3);
  double* src = from.view(3).base;
  double* dst = to.view(3).base;
  for (std::int64_t i = 0; i < nd; ++i) {
    src[i] = 0.25 + 1.5 * static_cast<double>(i);
    dst[i] = -1.0 - static_cast<double>(i);
  }

  const std::int64_t n = block_payload_doubles(lay);
  std::vector<double> buf(static_cast<std::size_t>(n));
  pack_block_payload<D>(from, 3, buf.data());
  // Payload order: variables outer, interior cells in for_each_cell order.
  std::vector<double> expect(dst, dst + nd);
  std::size_t k = 0;
  for (int v = 0; v < lay.nvar; ++v)
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
      const std::size_t at =
          static_cast<std::size_t>(v * lay.field_stride() + lay.offset(p));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(buf[k]),
                std::bit_cast<std::uint64_t>(src[at]))
          << "payload index " << k;
      expect[at] = src[at];
      ++k;
    });
  ASSERT_EQ(static_cast<std::int64_t>(k), n);

  unpack_block_payload<D>(to, 3, buf.data());
  EXPECT_EQ(0, std::memcmp(dst, expect.data(),
                           static_cast<std::size_t>(nd) * sizeof(double)))
      << "unpack changed a ghost or pad cell, or misplaced an interior one";
}

TEST(BlockMigration, PayloadRoundTripPaddedLayouts) {
  for (int pad0 : {0, 1, 3})
    for (int g : {1, 2}) {
      check_round_trip<1>(BlockLayout<1>(IVec<1>(6), g, 2, pad0));
      check_round_trip<2>(BlockLayout<2>(IVec<2>{6, 4}, g, 3, pad0));
      check_round_trip<3>(BlockLayout<3>(IVec<3>{4, 2, 6}, g, 2, pad0));
    }
}

}  // namespace
}  // namespace ab
