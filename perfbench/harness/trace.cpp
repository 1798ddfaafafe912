#include "trace.hpp"

#include "txpool/transaction.hpp"

namespace perfbench {

DeliverTrace::DeliverTrace(std::uint32_t nodes, const BenchClock& clock)
    : clock_(clock), tables_(nodes) {}

void DeliverTrace::reserve(std::uint64_t seq) {
  const std::size_t chunk = seq >> kChunkBits;
  if (chunk >= kMaxChunks) return;  // beyond capacity: delivery is a stray
  while (chunks_ready_ <= chunk) {
    for (NodeTable& t : tables_) {
      storage_.push_back(std::make_unique<std::uint32_t[]>(kChunkSize));
      t.chunks[chunks_ready_].store(storage_.back().get(),
                                    std::memory_order_release);
    }
    ++chunks_ready_;
  }
}

void DeliverTrace::on_deliver(std::uint32_t node, dr::BytesView block) {
  // Stamp first: the block's decode is tracing cost, not delivery time.
  const std::uint32_t stamp = clock_.now_us() + 1;
  NodeTable& t = tables_[node];
  const auto txs = dr::txpool::decode_block(block);
  if (!txs.ok()) return;  // an empty filler block carries no txs
  for (const dr::txpool::Transaction& tx : txs.value()) {
    std::uint64_t seq = 0;
    const std::size_t chunk =
        payload_seq(dr::BytesView(tx.payload), seq) ? seq >> kChunkBits
                                                    : kMaxChunks;
    std::uint32_t* slots =
        chunk < kMaxChunks ? t.chunks[chunk].load(std::memory_order_acquire)
                           : nullptr;
    if (slots == nullptr) {
      t.strays.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::uint32_t& slot = slots[seq & (kChunkSize - 1)];
    if (slot != 0) {
      t.duplicates.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot = stamp;
    }
  }
}

std::uint32_t DeliverTrace::stamp(std::uint32_t node,
                                  std::uint64_t seq) const {
  const std::size_t chunk = seq >> kChunkBits;
  if (chunk >= kMaxChunks) return 0;
  const std::uint32_t* slots =
      tables_[node].chunks[chunk].load(std::memory_order_acquire);
  return slots == nullptr ? 0 : slots[seq & (kChunkSize - 1)];
}

}  // namespace perfbench
