// Block migration between simulated ranks.
//
// The paper's load re-balancing ("whenever refinement or coarsening occurs,
// load re-balancing should be performed") moves whole blocks between
// processors. A block's wire payload is its interior cell data, variable by
// variable in for_each_cell order — ghost cells are never shipped because
// every consumer of a migrated block refills its face ghosts before reading
// them (the exchange plan is rebuilt after each regrid, and stale corner
// ghosts are never read by the dimension-split kernels).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/block_store.hpp"
#include "parsim/buffered_exchange.hpp"
#include "util/error.hpp"

namespace ab {

/// Doubles one migrated block carries on the wire.
template <int D>
std::int64_t block_payload_doubles(const BlockLayout<D>& lay) {
  return lay.interior_cells() * lay.nvar;
}

/// Visit a block payload's rows in wire order — variables outer, interior
/// rows in for_each_row (= for_each_cell) order: f(field offset, length).
template <int D, class F>
void for_each_payload_row(const BlockLayout<D>& lay, F&& f) {
  const std::int64_t fs = lay.field_stride();
  for (int var = 0; var < lay.nvar; ++var)
    for_each_row<D>(lay.interior_box(), [&](IVec<D> p, int n) {
      f(var * fs + lay.offset(p), static_cast<std::size_t>(n));
    });
}

/// Serialize block `id`'s interior into `buf` (block_payload_doubles
/// entries), one memcpy per row.
template <int D>
void pack_block_payload(const BlockStore<D>& store, int id, double* buf) {
  const double* src = store.view(id).base;
  for_each_payload_row(store.layout(), [&](std::int64_t off, std::size_t n) {
    std::memcpy(buf, src + off, sizeof(double) * n);
    buf += n;
  });
}

/// Allocate block `id` in `store` (if absent) and write a packed payload
/// into its interior; ghosts and padding are left as they are.
template <int D>
void unpack_block_payload(BlockStore<D>& store, int id, const double* buf) {
  store.ensure(id);
  double* dst = store.view(id).base;
  for_each_payload_row(store.layout(), [&](std::int64_t off, std::size_t n) {
    std::memcpy(dst + off, buf, sizeof(double) * n);
    buf += n;
  });
}

struct MigrationStats {
  std::int64_t blocks = 0;    ///< blocks that changed owner
  std::int64_t messages = 0;  ///< pair-aggregated messages shipped
  std::int64_t bytes = 0;     ///< wire bytes shipped
};

/// One bulk-synchronous migration round: every leaf whose owner differs
/// between `from` and `to` (both indexed by node id) is packed on its old
/// owner, shipped through `board`, and unpacked on its new owner; the old
/// copy is released. `stores[pe]` is PE pe's private store.
template <int D>
MigrationStats migrate_blocks(const std::vector<int>& leaves,
                              const std::vector<int>& from,
                              const std::vector<int>& to,
                              std::vector<BlockStore<D>>& stores,
                              MessageBoard& board) {
  AB_REQUIRE(!stores.empty(), "migrate_blocks: no stores");
  MigrationStats st;
  const BlockLayout<D>& lay = stores.front().layout();
  const std::int64_t n = block_payload_doubles(lay);
  std::vector<double> buf(static_cast<std::size_t>(n));
  board.clear();
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    AB_REQUIRE(a >= 0 && b >= 0, "migrate_blocks: leaf without an owner");
    if (a == b) continue;
    pack_block_payload<D>(stores[static_cast<std::size_t>(a)], id,
                          buf.data());
    board.send(a, b, buf.data(), n);
    stores[static_cast<std::size_t>(a)].release(id);
    ++st.blocks;
  }
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    if (a == b) continue;
    unpack_block_payload<D>(stores[static_cast<std::size_t>(b)], id,
                            board.receive(a, b, n));
  }
  st.messages = board.messages();
  st.bytes = board.bytes();
  return st;
}

}  // namespace ab
