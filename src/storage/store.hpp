// File layer of the durable vertex store: owns the WAL file and the snapshot
// file inside one data directory, and is the ONLY place in src/ that touches
// the filesystem (enforced by tools/daglint's file-io rule — protocol layers
// stay I/O-free and deterministic).
//
// Layout: <dir>/wal.bin (header + append-only records, see wal.hpp) and
// <dir>/snapshot.bin (atomic temp+rename, see snapshot.hpp). Appends go
// through stdio with an fflush per record; opts.fsync additionally fsyncs,
// trading throughput for power-failure durability (the bench's --wal mode
// measures exactly this trade).
//
// Compaction contract: compact(snapshot, dag) first persists the snapshot,
// then rewrites the WAL from the live DAG keeping rounds >= snapshot
// gc_floor (in ascending round order — a valid causal order, since strong
// edges point one round down and weak edges further down). A crash between
// the two renames is safe: recovery takes the floor from the snapshot and
// drops WAL records below it, so the stale longer WAL replays identically.
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dag/dag.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace dr::storage {

struct StoreOptions {
  std::string dir;
  /// fsync after every append (power-failure durability); default off —
  /// process-crash durability only, matching the crash model of the tests.
  bool fsync = false;
};

/// Monotonic counters, surfaced through node::Node::counters().
struct StoreStats {
  std::uint64_t vertices_appended = 0;
  std::uint64_t proposals_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t recovered_vertices = 0;
  std::uint64_t recovered_proposals = 0;
  std::uint64_t recovered_truncated_bytes = 0;  ///< torn/corrupt tail dropped
  bool snapshot_loaded = false;
};

struct RecoverResult {
  std::optional<Snapshot> snapshot;
  /// Vertex and proposal records in WAL order (a valid causal order).
  std::vector<WalRecord> records;
  /// False when recovery stopped early at a corrupt or torn region.
  bool wal_clean = true;
  std::string wal_error;
};

class VertexStore {
 public:
  /// Creates `opts.dir` if needed. Call recover() once before any append.
  VertexStore(Committee committee, ProcessId pid, StoreOptions opts);
  ~VertexStore();

  VertexStore(const VertexStore&) = delete;
  VertexStore& operator=(const VertexStore&) = delete;

  /// Reads snapshot + WAL, truncates any torn WAL tail, and opens the WAL
  /// for appending. A snapshot or WAL header that fails validation (foreign
  /// committee/pid, corrupt) is discarded wholesale — the store restarts
  /// empty rather than replaying another process's history.
  RecoverResult recover();

  /// Logs a vertex accepted into the local DAG (crash durability for the
  /// r_delivered prefix). Called on the node thread only.
  void append_vertex(const dag::Vertex& v);
  /// Logs this process's own proposal BEFORE it is broadcast, so a restart
  /// can re-send the identical bytes instead of equivocating.
  void append_proposal(Round r, BytesView payload);

  /// Persists `snap` atomically, then rewrites the WAL from `dag` keeping
  /// rounds >= snap.gc_floor plus still-pending own proposals.
  void compact(const Snapshot& snap, const dag::Dag& dag);

  const StoreStats& stats() const { return stats_; }
  /// Own proposals mirrored in memory: those whose vertex is not yet in the
  /// WAL. Bounded by the proposals in flight, not by history.
  std::size_t pending_proposals() const { return pending_proposals_.size(); }
  std::string wal_path() const;
  std::string snapshot_path() const;

 private:
  void append_record(const WalRecord& rec);
  void open_wal_for_append(bool write_header);

  Committee committee_;
  ProcessId pid_;
  StoreOptions opts_;
  std::FILE* wal_ = nullptr;
  /// Own proposals whose vertex record is not yet in the WAL — the
  /// in-memory mirror of the kProposal records that must survive a WAL
  /// rewrite. An entry goes when the own vertex is appended or read back.
  std::map<Round, Bytes> pending_proposals_;
  StoreStats stats_;
  bool recovered_ = false;
};

}  // namespace dr::storage
