// Client-side accounting of every transaction the benchmark generates: when
// it was due, sent, answered and acknowledged, and whether the ingress
// contract held for it (each accepted tx acked exactly once, no ack for a tx
// that was never sent or was refused). Single-threaded: only the generator
// thread touches a Ledger.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ingress/wire.hpp"

namespace perfbench {

enum class TxState : std::uint8_t {
  kDue,       ///< created (its arrival came due) but not handed to a client
  kSent,      ///< queued on a connection, no SubmitReply yet
  kAccepted,  ///< SubmitReply kAccepted: an ack is owed
  kRejected,  ///< SubmitReply with any other status: no ack may follow
  kRefused,   ///< the client refused it locally (out-queue full / closed)
};

/// Times are microseconds since the generator's epoch (Generator::now_us).
struct TxRecord {
  /// When the tx came due: its scheduled arrival (open loop) or the moment
  /// its window slot freed up (closed loop).
  std::uint32_t due_us = 0;
  std::uint32_t sent_us = 0;
  std::uint32_t reply_us = 0;
  std::uint32_t ack_us = 0;
  std::uint8_t conn = 0;
  TxState state = TxState::kDue;
  std::uint8_t acks = 0;
  bool in_window = false;  ///< counted in the measured window's figures
};

/// Outcome of one measured window plus the run-wide correctness gate.
struct LedgerSummary {
  // Window accounting (txs whose arrival came due inside the window).
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  std::uint64_t rejected = 0;  ///< Busy, ShardFull, TooLarge, duplicates
  std::uint64_t refused = 0;   ///< refused locally by the client
  std::uint64_t unacked = 0;   ///< accepted or sent, no ack after the drain
  std::uint64_t dup_acks = 0;  ///< second and later acks of one tx
  /// fail_ratio's numerator: every rejected, refused, unacked tx and every
  /// duplicate ack.
  std::uint64_t failed() const {
    return rejected + refused + unacked + dup_acks;
  }

  // Run-wide gate (every tx, warm-up and drain included).
  std::uint64_t gate_dup_acks = 0;
  std::uint64_t gate_unknown_acks = 0;   ///< ack for a tx never sent
  std::uint64_t gate_bad_acks = 0;       ///< ack for a rejected/refused tx
  std::uint64_t gate_bad_replies = 0;    ///< reply for an unknown/answered tx
  bool gate_ok() const {
    return gate_dup_acks == 0 && gate_unknown_acks == 0 &&
           gate_bad_acks == 0 && gate_bad_replies == 0;
  }
  std::string gate_report() const;
};

class Ledger {
 public:
  /// An open-loop ledger times each tx from its due time; a closed-loop one
  /// from its send time (a closed-loop client never falls behind a
  /// schedule, it only waits for a free slot).
  explicit Ledger(bool open_loop) : open_loop_(open_loop) {}

  /// Registers a tx that came due at `due_us`; returns its sequence number
  /// (dense, from 0).
  std::uint64_t create(std::uint32_t due_us, std::uint8_t conn,
                       bool in_window);
  void on_sent(std::uint64_t seq, std::uint32_t sent_us);
  void on_refused(std::uint64_t seq);
  void on_reply(std::uint64_t seq, dr::ingress::SubmitStatus status,
                std::uint32_t now_us);
  void on_ack(std::uint64_t seq, std::uint32_t now_us);

  std::uint64_t size() const { return txs_.size(); }
  const TxRecord& at(std::uint64_t seq) const { return txs_[seq]; }

  /// Submit-to-ack latency (ms) of every acked in-window tx, measured from
  /// latency_origin(): in an open loop the due time, so a stalled
  /// generator's delay is charged to the txs it held back.
  std::vector<double> window_latencies_ms() const;
  /// How late each in-window tx was sent relative to when it came due (ms).
  std::vector<double> window_send_lag_ms() const;

  LedgerSummary summarize() const;

  std::uint32_t latency_origin(const TxRecord& r) const {
    return open_loop_ ? r.due_us : r.sent_us;
  }

 private:
  bool open_loop_;
  std::deque<TxRecord> txs_;
  // Gate violations are recorded as they happen; unknown sequence numbers
  // have no record to hang them on.
  std::uint64_t unknown_acks_ = 0;
  std::uint64_t bad_replies_ = 0;
  std::uint64_t bad_acks_ = 0;
};

}  // namespace perfbench
