#include "isolated.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <vector>

#include "dag/dag.hpp"
#include "generator.hpp"
#include "ingress/mempool.hpp"
#include "stats.hpp"
#include "storage/store.hpp"
#include "txpool/transaction.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 15;  ///< timed repetitions per figure

/// Results of the timed calls land here, so the compiler cannot drop them.
std::atomic<std::size_t> g_sink{0};

double us_since(Clock::time_point t0, std::size_t ops) {
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  return us / static_cast<double>(ops);
}

/// Median per-op time over kReps repetitions, the first one discarded as
/// warm-up. `rep` prepares its inputs untimed, then returns the per-op time
/// of the timed part it ran.
template <typename Rep>
double median_of_reps(Rep rep) {
  std::vector<double> samples;
  for (int i = 0; i < kReps + 1; ++i) {
    const double us = rep();
    if (i > 0) samples.push_back(us);
  }
  return median(samples);
}

std::vector<dr::txpool::Transaction> make_txs(std::size_t count,
                                              std::size_t payload_bytes,
                                              std::uint64_t first_seq) {
  std::vector<dr::txpool::Transaction> txs(count);
  for (std::size_t i = 0; i < count; ++i) {
    txs[i].id = first_seq + i;
    txs[i].submit_time = first_seq + i;
    txs[i].payload = make_payload(0x15, first_seq + i, payload_bytes);
  }
  return txs;
}

/// Fully connected rounds 1..rounds of an n-node DAG, every vertex carrying
/// `block`.
std::vector<dr::dag::Vertex> make_rounds(std::uint32_t n, dr::Round rounds,
                                         const dr::Bytes& block) {
  const dr::Committee committee = dr::Committee::for_n(n);
  std::vector<dr::dag::Vertex> out;
  for (dr::Round r = 1; r <= rounds; ++r) {
    // Round 0 is the genesis round of 2f+1 vertices; later rounds are full.
    const std::uint32_t prev = r == 1 ? committee.quorum() : n;
    for (dr::ProcessId p = 0; p < n; ++p) {
      dr::dag::Vertex v;
      v.source = p;
      v.round = r;
      v.block = block;
      for (dr::ProcessId q = 0; q < prev; ++q) v.strong_edges.push_back(q);
      out.push_back(std::move(v));
    }
  }
  return out;
}

}  // namespace

double IsolatedTimings::per_tx_us(const IsolatedShape& shape) const {
  const auto tpb = static_cast<double>(shape.txs_per_block);
  const auto n = static_cast<double>(shape.n);
  return submit_us + (drain_us_per_block + encode_block_us) / tpb +
         n * ((decode_block_us + store_append_us + dag_insert_us) / tpb +
              tx_digest_us + mark_committed_us);
}

IsolatedTimings time_isolated(const IsolatedShape& shape) {
  IsolatedTimings out;
  const std::size_t tpb = std::max<std::size_t>(1, shape.txs_per_block);
  const auto block_txs = make_txs(tpb, shape.payload_bytes, 0);
  const dr::Bytes block = dr::txpool::encode_block(block_txs);
  std::size_t sink = 0;  // keeps results observable

  out.encode_block_us = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < 64; ++i) {
      sink += dr::txpool::encode_block(block_txs).size();
    }
    return us_since(t0, 64);
  });
  out.decode_block_us = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < 64; ++i) {
      sink += dr::txpool::decode_block(dr::BytesView(block)).value().size();
    }
    return us_since(t0, 64);
  });
  out.tx_digest_us = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (const auto& tx : block_txs) {
      sink += dr::ingress::tx_digest(tx)[0];
    }
    return us_since(t0, block_txs.size());
  });

  // Mempool: admit 16 blocks' worth, drain them block by block, then mark
  // every tx committed, on a fresh pool with the node's default options.
  const std::size_t pool_txs = 16 * tpb;
  const auto pool_src = make_txs(pool_txs, shape.payload_bytes, 1u << 20);
  std::vector<dr::crypto::Digest> digests;
  for (const auto& tx : pool_src) digests.push_back(dr::ingress::tx_digest(tx));
  std::vector<double> submit, drain, mark;
  for (int rep = 0; rep < kReps + 1; ++rep) {
    dr::ingress::ShardedMempool pool{dr::ingress::MempoolOptions{}};
    auto txs = pool_src;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < txs.size(); ++i) {
      sink += static_cast<std::size_t>(pool.submit(
          std::move(txs[i]), dr::ingress::TxOrigin{1, 1, i, 0}));
    }
    const double s = us_since(t0, txs.size());
    t0 = Clock::now();
    std::size_t blocks = 0;
    while (!pool.drain(tpb).empty()) ++blocks;
    const double d = us_since(t0, std::max<std::size_t>(1, blocks));
    t0 = Clock::now();
    for (const auto& dg : digests) sink += pool.mark_committed(dg) ? 1 : 0;
    const double m = us_since(t0, digests.size());
    if (rep == 0) continue;
    submit.push_back(s);
    drain.push_back(d);
    mark.push_back(m);
  }
  out.submit_us = median(submit);
  out.drain_us_per_block = median(drain);
  out.mark_committed_us = median(mark);

  // WAL appends of vertices carrying the workload's block, on the same
  // filesystem the cluster's WAL uses.
  constexpr dr::Round kRounds = 16;
  const auto store_dir = std::filesystem::path(shape.scratch_dir) / "iso-store";
  std::vector<dr::dag::Vertex> vertices = make_rounds(shape.n, kRounds, block);
  for (auto& v : vertices) v.wire = dr::net::Payload(v.serialize());
  out.store_append_us = median_of_reps([&] {
    std::filesystem::remove_all(store_dir);
    dr::storage::VertexStore store(dr::Committee::for_n(shape.n), 0,
                                   dr::storage::StoreOptions{
                                       store_dir.string(), false});
    (void)store.recover();
    const auto t0 = Clock::now();
    for (const auto& v : vertices) store.append_vertex(v);
    return us_since(t0, vertices.size());
  });
  std::filesystem::remove_all(store_dir);

  out.dag_insert_us = median_of_reps([&] {
    auto batch = make_rounds(shape.n, kRounds, block);
    dr::dag::Dag dag(dr::Committee::for_n(shape.n));
    const auto t0 = Clock::now();
    for (auto& v : batch) dag.insert(std::move(v));
    const double us = us_since(t0, batch.size());
    sink += dag.vertex_count();
    return us;
  });

  g_sink.store(sink, std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
