// The traced run's per-node a_deliver stamps, kept in memory and read once
// the cluster has stopped. Each node's Node::set_app_deliver hook decodes
// the delivered block with txpool::decode_block and stamps every tx it
// carries; the generator makes room for a tx before sending it, so a node
// thread never allocates. One writer per node table: node i's event loop.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "generator.hpp"

namespace perfbench {

class DeliverTrace {
 public:
  static constexpr std::uint64_t kChunkBits = 16;
  static constexpr std::uint64_t kChunkSize = 1ull << kChunkBits;
  static constexpr std::size_t kMaxChunks = 1024;  ///< 67M txs

  DeliverTrace(std::uint32_t nodes, const BenchClock& clock);

  DeliverTrace(const DeliverTrace&) = delete;
  DeliverTrace& operator=(const DeliverTrace&) = delete;

  /// Generator thread: makes sure `seq` has a stamp slot on every node.
  void reserve(std::uint64_t seq);
  /// Node thread of `node`: stamps every tx of a delivered block.
  void on_deliver(std::uint32_t node, dr::BytesView block);

  /// Read only after every writing node thread has been joined.
  /// Clock reading + 1 of `seq`'s a_deliver at `node`; 0 = never delivered.
  std::uint32_t stamp(std::uint32_t node, std::uint64_t seq) const;
  std::uint64_t duplicates(std::uint32_t node) const {
    return tables_[node].duplicates.load(std::memory_order_relaxed);
  }
  /// Delivered txs the trace could not name (no slot, or no seq prefix).
  std::uint64_t strays(std::uint32_t node) const {
    return tables_[node].strays.load(std::memory_order_relaxed);
  }

 private:
  struct NodeTable {
    std::array<std::atomic<std::uint32_t*>, kMaxChunks> chunks{};
    std::atomic<std::uint64_t> duplicates{0};
    std::atomic<std::uint64_t> strays{0};
  };

  const BenchClock& clock_;
  std::vector<NodeTable> tables_;
  /// Owns the chunk memory; touched by the generator thread only.
  std::vector<std::unique_ptr<std::uint32_t[]>> storage_;
  std::size_t chunks_ready_ = 0;
};

}  // namespace perfbench
