// Client transactions and the block (batch) wire format. The BAB layer
// treats blocks as opaque bytes; this is the application-side contract that
// turns "blocks of transactions" (Alg. 1's v.block) into measurable
// per-transaction throughput and latency.
//
// Block layout: le32 magic, le32 count, then `count` txs of
// le64 id | le64 submit_time | le32 len | len payload bytes.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/expected.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace dr::txpool {

struct Transaction {
  std::uint64_t id = 0;            ///< client-assigned, globally unique
  sim::SimTime submit_time = 0;    ///< for end-to-end latency accounting
  Bytes payload;

  void serialize_into(ByteWriter& w) const {
    w.u64(id);
    w.u64(submit_time);
    w.blob(payload);
  }
  std::size_t wire_size() const { return 16 + 4 + payload.size(); }
};

/// One transaction read in place from a block. `payload` aliases the block
/// bytes, so a view lives only as long as the block does.
struct TxView {
  std::uint64_t id = 0;
  sim::SimTime submit_time = 0;
  BytesView payload;
};

/// The block format's one parser: a validating in-place walk. parse()
/// checks the whole block up front (magic, count, every tx's framing, no
/// trailing bytes), so iterating a parsed block cannot fail halfway and a
/// caller never acts on part of a block that is then rejected. Iteration
/// copies nothing; decode_block is a copy over this walk.
class BlockTxs {
 public:
  /// Forward walk for range-for; only valid over a parsed block.
  class Iterator {
   public:
    TxView operator*() const {
      return TxView{load_le<std::uint64_t>(pos_),
                    load_le<std::uint64_t>(pos_ + 8),
                    BytesView{pos_ + kTxHeaderBytes, payload_len()}};
    }
    Iterator& operator++() {
      pos_ += kTxHeaderBytes + payload_len();
      return *this;
    }
    bool operator==(const Iterator& o) const { return pos_ == o.pos_; }

   private:
    friend class BlockTxs;
    explicit Iterator(const std::uint8_t* pos) : pos_(pos) {}
    std::size_t payload_len() const { return load_le<std::uint32_t>(pos_ + 16); }
    const std::uint8_t* pos_;
  };

  /// id + submit_time + payload length prefix.
  static constexpr std::size_t kTxHeaderBytes = 20;

  /// Fails (with decode_block's reasons) on anything that is not a
  /// well-formed tx block, e.g. synthetic auto-blocks.
  [[nodiscard]] static Expected<BlockTxs> parse(BytesView block);

  std::uint32_t size() const { return count_; }
  Iterator begin() const { return Iterator(txs_.data()); }
  Iterator end() const { return Iterator(txs_.data() + txs_.size()); }

 private:
  BlockTxs(BytesView txs, std::uint32_t count) : txs_(txs), count_(count) {}

  template <typename T>
  static T load_le(const std::uint8_t* p) {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }

  BytesView txs_;  ///< the tx records, after the 8-byte header
  std::uint32_t count_ = 0;
};

/// Serializes a batch of transactions into one BAB block.
Bytes encode_block(const std::vector<Transaction>& txs);

/// Parses a BAB block back into owned transactions (a copy over
/// BlockTxs::parse). Blocks produced by other components (e.g. synthetic
/// auto-blocks) fail cleanly.
Expected<std::vector<Transaction>> decode_block(BytesView block);

}  // namespace dr::txpool
