// Isolated per-layer timings: each public entry point the tx path crosses,
// called in a tight loop on inputs shaped like the workload's own (its
// observed txs per block and its payload size), after a warm-up pass.
// Every figure is the median over repetitions of the per-operation time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct IsolatedShape {
  std::size_t txs_per_block = 1;
  std::size_t payload_bytes = 32;
  std::uint32_t n = 4;
  std::string scratch_dir;  ///< VertexStore files go here (removed after)
};

struct IsolatedTimings {
  double encode_block_us = 0;      ///< txpool::encode_block, per block
  double decode_block_us = 0;      ///< txpool::decode_block, per block
  double tx_digest_us = 0;         ///< ingress::tx_digest, per tx
  double submit_us = 0;            ///< ShardedMempool::submit, per tx
  double drain_us_per_block = 0;   ///< ShardedMempool::drain(txs_per_block)
  double mark_committed_us = 0;    ///< ShardedMempool::mark_committed, per tx
  double store_append_us = 0;      ///< VertexStore::append_vertex, per vertex
  double dag_insert_us = 0;        ///< dag::Dag::insert, per vertex

  /// CPU the isolated calls add up to for one committed tx in an n-node
  /// cluster: one admission (submit, which hashes), a share of one drain
  /// and one encode, and at each of the n nodes a share of a decode, a WAL
  /// append and a DAG insert plus one digest and one mark_committed.
  double per_tx_us(const IsolatedShape& shape) const;
};

IsolatedTimings time_isolated(const IsolatedShape& shape);

}  // namespace perfbench
