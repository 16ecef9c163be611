// Message-buffer realization of the ghost exchange.
//
// The cost model (simulate.hpp) only *prices* communication; this class
// *performs* it the way a distributed-memory code would: each fill packs,
// per destination processor, one message buffer per source processor
// containing the sender-side-evaluated ghost values (restriction and
// prolongation are computed on the owning PE — the original production
// code's choice, minimizing wire bytes), then unpacks on the receiver.
// Local ops are applied directly.
//
// Two forms of fill are provided: the single-store form (every PE's blocks
// in one address space, used by the accounting tests) and the multi-store
// form used by RankSolver, where each simulated rank owns a private
// BlockStore holding only its blocks — packing reads the source rank's
// store, unpacking writes the destination rank's, and nothing else crosses
// the rank boundary.
//
// The result is bit-identical to GhostExchanger::fill, and the message
// counts/bytes match simulate_step's accounting exactly — tying the cost
// model to real traffic (tests/parsim/buffered_exchange_test.cpp).
//
// MessageBoard below carries the non-ghost traffic of a distributed run —
// flux-register correction payloads, coarsen gathers and prolongation
// traffic at regrids, and block migration after re-partitioning — through
// the same pack-all/unpack-all bulk-synchronous discipline.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/ghost.hpp"
#include "obs/msg_trace.hpp"
#include "parsim/fault.hpp"
#include "parsim/rank_accounting.hpp"
#include "parsim/wire/hub.hpp"
#include "util/error.hpp"

namespace ab {

/// (src_pe, dst_pe)-keyed message buffers for traffic that is not a ghost
/// fill: flux-register corrections, regrid gathers/prolongations, block
/// migration. Senders append doubles to a channel; receivers read them back
/// in the same order (each channel is a FIFO). One round = clear(), all
/// sends, all receives — the bulk-synchronous exchange a distributed code
/// performs; messages()/bytes() give the pair-aggregated traffic of the
/// round for the cost model.
class MessageBoard {
 public:
  /// Start a new round: empty every channel but keep its storage, so a
  /// round that repeats the last one's traffic allocates nothing.
  void clear() {
    flush_trace();
    for (auto& [key, ch] : channels_) {
      ch.data.clear();
      ch.read = 0;
      ch.span = obs::MsgSpanState{};
    }
  }

  /// Route every subsequent send through `plan`'s lossy wire (nullptr
  /// restores the perfect wire). Faults are injected and recovered at
  /// send time — what lands in the channel is always the clean payload.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }

  /// Attach the causal message-trace hook (nullptr detaches). The span
  /// context rides next to each channel, never inside the double payload,
  /// so fault-injection RNG draws and CRCs are unchanged.
  void set_trace(obs::MsgTrace* mt) { trace_ = mt; }

  /// Route every channel payload through a real wire (nullptr detaches):
  /// sends frame the packed doubles onto `hub`'s transport under `cls`,
  /// and receives overwrite the channel bytes with what arrived off the
  /// wire before the caller reads them — making the wire copy the one a
  /// receiver consumes.
  void set_wire(wire::WireHub* hub, wire::PayloadClass cls) {
    wire_ = hub;
    wire_cls_ = cls;
  }

  /// Emit one send/receive span pair per channel that saw traffic since
  /// the last flush. The board has no intrinsic round-end signal, so the
  /// owner calls this once per exchange round (clear() also flushes, as a
  /// backstop) — keeping span counts equal to the pair-aggregated message
  /// counts add_per_pe_traffic reports.
  void flush_trace() {
    if (trace_ == nullptr || !trace_->active()) return;
    for (auto& [key, ch] : channels_)
      if (ch.span.sent) trace_->finish(ch.span, key.second);
  }

  /// Append `n` doubles to the (src, dst) channel.
  void send(int src, int dst, const double* data, std::int64_t n) {
    AB_REQUIRE(src != dst, "MessageBoard: no self-messages");
    obs::MsgTrace* mt =
        (trace_ != nullptr && n > 0 && trace_->active()) ? trace_ : nullptr;
    const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
    const std::int64_t r0 =
        (mt != nullptr && faults_ != nullptr) ? faults_->stats().retries : 0;
    Channel& ch = channels_[{src, dst}];
    const std::size_t at = ch.data.size();
    ch.data.insert(ch.data.end(), data, data + n);
    WireFaults wf;
    if (faults_ != nullptr)
      wf = faults_->transmit(src, dst, ch.data.data() + at,
                             static_cast<std::size_t>(n));
    if (wire_ != nullptr && n > 0)
      wire_->send(wire_cls_, src, dst, ch.data.data() + at,
                  static_cast<std::size_t>(n), wf);
    if (mt != nullptr) {
      const std::int64_t t1 = mt->now();
      mt->add_send(ch.span, src, t0, t1);
      if (faults_ != nullptr) {
        const std::int64_t dr = faults_->stats().retries - r0;
        if (dr > 0) mt->add_retries(ch.span, dr, t0, t1);
      }
    }
  }

  /// Sequential read of `n` doubles from the (src, dst) channel; reads must
  /// mirror the send order.
  const double* receive(int src, int dst, std::int64_t n) {
    obs::MsgTrace* mt =
        (trace_ != nullptr && n > 0 && trace_->active()) ? trace_ : nullptr;
    const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
    auto it = channels_.find({src, dst});
    AB_REQUIRE(it != channels_.end(), "MessageBoard: no such channel");
    Channel& ch = it->second;
    AB_REQUIRE(ch.read + static_cast<std::size_t>(n) <= ch.data.size(),
               "MessageBoard: read past end of channel");
    // The wire bytes are authoritative: overwrite the staging bytes with
    // what physically arrived before the caller reads them.
    if (wire_ != nullptr && n > 0)
      wire_->recv(wire_cls_, src, dst, ch.data.data() + ch.read,
                  static_cast<std::size_t>(n));
    const double* p = ch.data.data() + ch.read;
    ch.read += static_cast<std::size_t>(n);
    if (mt != nullptr) mt->add_recv(ch.span, t0, mt->now());
    return p;
  }

  /// Credit this round's traffic to its endpoints: each non-empty (src,
  /// dst) channel counts one sent message for src and one received for dst,
  /// with the channel's wire bytes on both sides. `t` must be sized to the
  /// PE count; out-of-range endpoints are ignored.
  void add_per_pe_traffic(std::vector<PeTraffic>& t) const {
    for (const auto& [key, ch] : channels_) {
      if (ch.data.empty()) continue;
      const std::int64_t bytes =
          static_cast<std::int64_t>(ch.data.size() * sizeof(double));
      const auto [src, dst] = key;
      if (src >= 0 && src < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(src)].add_sent(bytes);
      if (dst >= 0 && dst < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(dst)].add_recv(bytes);
    }
  }

  /// Non-empty channels this round (pair-aggregated message count).
  std::int64_t messages() const {
    std::int64_t n = 0;
    for (const auto& [key, ch] : channels_)
      if (!ch.data.empty()) ++n;
    return n;
  }
  /// Total wire bytes this round.
  std::int64_t bytes() const {
    std::int64_t n = 0;
    for (const auto& [key, ch] : channels_)
      n += static_cast<std::int64_t>(ch.data.size() * sizeof(double));
    return n;
  }

 private:
  struct Channel {
    std::vector<double> data;
    std::size_t read = 0;
    obs::MsgSpanState span;
  };
  std::map<std::pair<int, int>, Channel> channels_;
  FaultPlan* faults_ = nullptr;
  obs::MsgTrace* trace_ = nullptr;
  wire::WireHub* wire_ = nullptr;
  wire::PayloadClass wire_cls_ = wire::PayloadClass::Board;
};

template <int D>
class BufferedExchange {
 public:
  /// `owner` maps node id -> PE (see partition_blocks).
  BufferedExchange(const GhostExchanger<D>& exchanger,
                   std::vector<int> owner, int npes)
      : exchanger_(&exchanger), owner_(std::move(owner)), npes_(npes) {
    AB_REQUIRE(npes_ >= 1, "BufferedExchange: npes must be >= 1");
    rebuild();
  }

  /// Rebind to a new block-to-PE map (after a regrid + re-partition) and
  /// recompute the message layouts.
  void set_owner(std::vector<int> owner, int npes) {
    AB_REQUIRE(npes >= 1, "BufferedExchange: npes must be >= 1");
    owner_ = std::move(owner);
    npes_ = npes;
    rebuild();
  }

  /// Route every cross-PE fill payload through `plan`'s lossy wire
  /// (nullptr restores the perfect wire).
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }

  /// Attach the causal message-trace hook (nullptr detaches). Every
  /// cross-PE message of a traced fill becomes one send span (packing +
  /// wire transmission, retries attributed) and one receive span (unpack)
  /// parent-linked to it — the same pair aggregation messages_per_fill
  /// counts. Context bytes never enter the double payload.
  void set_trace(obs::MsgTrace* mt) { trace_ = mt; }

  /// Route every cross-PE fill payload through a real wire (nullptr
  /// detaches): each phase's packed buffer is framed onto `hub`'s
  /// transport and the receiver overwrites the buffer with the wire bytes
  /// before unpacking.
  void set_wire(wire::WireHub* hub) { wire_ = hub; }

  /// Recompute message layouts after the exchanger was rebuilt or the
  /// partition changed.
  void rebuild() {
    local_phase_[0].clear();
    local_phase_[1].clear();
    messages_.clear();
    std::map<std::pair<int, int>, int> index;  // (src_pe, dst_pe) -> msg
    const auto& ops = exchanger_->ops();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
      const auto& op = ops[i];
      const int phase = (op.kind == GhostOpKind::Prolong) ? 1 : 0;
      const int ps = owner_at(op.src);
      const int pd = owner_at(op.dst);
      if (ps == pd) {
        local_phase_[phase].push_back(i);
        continue;
      }
      auto key = std::make_pair(ps, pd);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, static_cast<int>(messages_.size())).first;
        Message msg;
        msg.src_pe = ps;
        msg.dst_pe = pd;
        messages_.push_back(std::move(msg));
      }
      Message& msg = messages_[static_cast<std::size_t>(it->second)];
      msg.phase_ops[phase].push_back(i);
      msg.phase_doubles[phase] += exchanger_->op_payload_doubles(op);
      msg.doubles += exchanger_->op_payload_doubles(op);
    }
    for (auto& msg : messages_)
      msg.buffer.assign(static_cast<std::size_t>(msg.doubles), 0.0);
  }

  /// Perform the exchange through the message buffers. Bit-identical to
  /// exchanger.fill(store).
  void fill(BlockStore<D>& store) {
    fill_on([&store](int) -> BlockStore<D>& { return store; });
  }

  /// Rank-parallel form: `store_of(pe)` yields PE `pe`'s private store.
  /// Local ops apply entirely within the owner's store; every cross-PE op
  /// packs from the source PE's store and unpacks into the destination
  /// PE's — the only data that crosses a rank boundary is message payload.
  /// Phase structure matters: all phase-1 traffic (copies/restrictions,
  /// which also fill the ghost slabs prolongation stencils may read) is
  /// delivered before any prolongation is evaluated on its sender.
  template <class StoreOf>
  void fill_on(const StoreOf& store_of) {
    obs::MsgTrace* mt =
        (trace_ != nullptr && trace_->active()) ? trace_ : nullptr;
    for (int phase = 0; phase < 2; ++phase) {
      // Local ops (src and dst on the same PE by construction).
      for (int i : local_phase_[phase]) {
        const auto& op = exchanger_->ops()[i];
        exchanger_->apply(store_of(owner_at(op.src)), op);
      }
      // Pack every cross-PE message for this phase...
      for (auto& msg : messages_) {
        const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
        const std::int64_t r0 = (mt != nullptr && faults_ != nullptr)
                                    ? faults_->stats().retries
                                    : 0;
        double* cursor = msg.buffer.data();
        BlockStore<D>& src_store = store_of(msg.src_pe);
        for (int i : msg.phase_ops[phase]) {
          const auto& op = exchanger_->ops()[i];
          exchanger_->pack_op(src_store, op, cursor);
          cursor += exchanger_->op_payload_doubles(op);
        }
        // ...push each packed buffer through the (possibly lossy) wire.
        // Faults are injected, detected, and retransmitted here, so the
        // buffer a receiver unpacks is always the clean payload; the wire
        // realizes the drawn faults as actual frames.
        const std::size_t nsend =
            static_cast<std::size_t>(cursor - msg.buffer.data());
        WireFaults wf;
        if (faults_ != nullptr && nsend > 0)
          wf = faults_->transmit(msg.src_pe, msg.dst_pe, msg.buffer.data(),
                                 nsend);
        if (wire_ != nullptr && nsend > 0)
          wire_->send(wire::PayloadClass::Ghost, msg.src_pe, msg.dst_pe,
                      msg.buffer.data(), nsend, wf);
        if (mt != nullptr && cursor != msg.buffer.data()) {
          const std::int64_t t1 = mt->now();
          mt->add_send(msg.span, msg.src_pe, t0, t1);
          if (faults_ != nullptr) {
            const std::int64_t dr = faults_->stats().retries - r0;
            if (dr > 0) mt->add_retries(msg.span, dr, t0, t1);
          }
        }
      }
      // ...then deliver (unpack). The strict pack-all/unpack-all order is
      // what a bulk-synchronous exchange round does.
      for (auto& msg : messages_) {
        const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
        // Pull the phase's payload off the wire into the staging buffer
        // before unpacking — the wire copy is the one consumed.
        if (wire_ != nullptr && msg.phase_doubles[phase] > 0)
          wire_->recv(wire::PayloadClass::Ghost, msg.src_pe, msg.dst_pe,
                      msg.buffer.data(),
                      static_cast<std::size_t>(msg.phase_doubles[phase]));
        const double* cursor = msg.buffer.data();
        BlockStore<D>& dst_store = store_of(msg.dst_pe);
        for (int i : msg.phase_ops[phase]) {
          const auto& op = exchanger_->ops()[i];
          exchanger_->unpack_op(dst_store, op, cursor);
          cursor += exchanger_->op_payload_doubles(op);
        }
        if (mt != nullptr && cursor != msg.buffer.data())
          mt->add_recv(msg.span, t0, mt->now());
      }
    }
    // A message's round spans both phases; emit once per fill — the same
    // granularity messages_per_fill/add_per_pe_traffic count at.
    if (mt != nullptr)
      for (auto& msg : messages_) mt->finish(msg.span, msg.dst_pe);
  }

  /// Messages per fill under pair aggregation (both phases of a pair ride
  /// in that pair's buffer; a pair with traffic counts once).
  std::int64_t messages_per_fill() const {
    return static_cast<std::int64_t>(messages_.size());
  }
  /// Total wire bytes per fill.
  std::int64_t bytes_per_fill() const {
    std::int64_t n = 0;
    for (const auto& msg : messages_)
      n += msg.doubles * static_cast<std::int64_t>(sizeof(double));
    return n;
  }

  /// Credit one fill's traffic to its endpoints (same aggregation as
  /// messages_per_fill/bytes_per_fill). `t` must be sized to the PE count.
  void add_per_pe_traffic(std::vector<PeTraffic>& t) const {
    for (const auto& msg : messages_) {
      const std::int64_t bytes =
          msg.doubles * static_cast<std::int64_t>(sizeof(double));
      if (msg.src_pe >= 0 && msg.src_pe < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(msg.src_pe)].add_sent(bytes);
      if (msg.dst_pe >= 0 && msg.dst_pe < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(msg.dst_pe)].add_recv(bytes);
    }
  }

 private:
  struct Message {
    int src_pe = -1;
    int dst_pe = -1;
    std::vector<int> phase_ops[2];
    std::int64_t phase_doubles[2] = {0, 0};
    std::vector<double> buffer;
    std::int64_t doubles = 0;
    obs::MsgSpanState span;
  };

  int owner_at(int id) const {
    AB_REQUIRE(id >= 0 && id < static_cast<int>(owner_.size()) &&
                   owner_[id] >= 0 && owner_[id] < npes_,
               "BufferedExchange: block without a valid owner");
    return owner_[id];
  }

  const GhostExchanger<D>* exchanger_;
  std::vector<int> owner_;
  int npes_;
  std::vector<int> local_phase_[2];
  std::vector<Message> messages_;
  FaultPlan* faults_ = nullptr;
  obs::MsgTrace* trace_ = nullptr;
  wire::WireHub* wire_ = nullptr;
};

}  // namespace ab
