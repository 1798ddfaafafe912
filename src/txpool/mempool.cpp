#include "txpool/mempool.hpp"

namespace dr::txpool {

namespace {
constexpr std::uint32_t kBlockMagic = 0x7B10C35;
}  // namespace

Bytes encode_block(const std::vector<Transaction>& txs) {
  std::size_t size = 8;
  for (const Transaction& tx : txs) size += tx.wire_size();
  ByteWriter w(size);
  w.u32(kBlockMagic);
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const Transaction& tx : txs) tx.serialize_into(w);
  return std::move(w).take();
}

Expected<BlockTxs> BlockTxs::parse(BytesView block) {
  ByteReader in(block);
  if (in.u32() != kBlockMagic) {
    return Expected<BlockTxs>::failure("not a tx block");
  }
  const std::uint32_t count = in.u32();
  if (!in.ok() || count > 1u << 22) {
    return Expected<BlockTxs>::failure("absurd tx count");
  }
  const BytesView txs = block.subspan(8);
  std::size_t pos = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (txs.size() - pos < kTxHeaderBytes) {
      return Expected<BlockTxs>::failure("truncated tx");
    }
    const std::size_t len = load_le<std::uint32_t>(txs.data() + pos + 16);
    pos += kTxHeaderBytes;
    if (txs.size() - pos < len) {
      return Expected<BlockTxs>::failure("truncated tx");
    }
    pos += len;
  }
  if (pos != txs.size()) {
    return Expected<BlockTxs>::failure("trailing bytes");
  }
  return BlockTxs(txs, count);
}

Expected<std::vector<Transaction>> decode_block(BytesView block) {
  auto walk = BlockTxs::parse(block);
  if (!walk) return Expected<std::vector<Transaction>>::failure(walk.error());
  std::vector<Transaction> txs;
  txs.reserve(walk.value().size());
  for (const TxView& tx : walk.value()) {
    txs.push_back(Transaction{tx.id, tx.submit_time,
                              Bytes(tx.payload.begin(), tx.payload.end())});
  }
  return txs;
}

bool Mempool::submit(Transaction tx) {
  if (seen_.count(tx.id) > 0 || delivered_.count(tx.id) > 0) {
    ++dup_rejects_;
    return false;
  }
  if (queue_.size() >= max_pending_) {
    ++overflow_rejects_;
    return false;
  }
  seen_.insert(tx.id);
  queue_.push_back(std::move(tx));
  ++accepted_;
  return true;
}

Bytes Mempool::next_block(std::size_t max_txs) {
  if (queue_.empty()) return {};
  std::vector<Transaction> batch;
  batch.reserve(std::min(max_txs, queue_.size()));
  while (!queue_.empty() && batch.size() < max_txs) {
    // Skip transactions that got ordered via someone else's block while
    // they waited here.
    Transaction tx = std::move(queue_.front());
    queue_.pop_front();
    if (delivered_.count(tx.id) > 0) continue;
    batch.push_back(std::move(tx));
  }
  if (batch.empty()) return {};
  return encode_block(batch);
}

std::size_t Mempool::observe_delivered(const std::vector<Transaction>& txs) {
  std::size_t newly = 0;
  for (const Transaction& tx : txs) {
    if (delivered_.insert(tx.id).second) ++newly;
  }
  return newly;
}

}  // namespace dr::txpool
