#include "ledger.hpp"

namespace perfbench {

using dr::ingress::SubmitStatus;

std::string LedgerSummary::gate_report() const {
  return "duplicate acks " + std::to_string(gate_dup_acks) +
         ", acks for unsent txs " + std::to_string(gate_unknown_acks) +
         ", acks for rejected/refused txs " + std::to_string(gate_bad_acks) +
         ", unexpected replies " + std::to_string(gate_bad_replies);
}

std::uint64_t Ledger::create(std::uint32_t due_us, std::uint8_t conn,
                             bool in_window) {
  TxRecord r;
  r.due_us = due_us;
  r.conn = conn;
  r.in_window = in_window;
  txs_.push_back(r);
  return txs_.size() - 1;
}

void Ledger::on_sent(std::uint64_t seq, std::uint32_t sent_us) {
  TxRecord& r = txs_[seq];
  r.sent_us = sent_us;
  r.state = TxState::kSent;
}

void Ledger::on_refused(std::uint64_t seq) {
  txs_[seq].state = TxState::kRefused;
}

void Ledger::on_reply(std::uint64_t seq, SubmitStatus status,
                      std::uint32_t now_us) {
  if (seq >= txs_.size() || txs_[seq].state != TxState::kSent) {
    ++bad_replies_;
    return;
  }
  TxRecord& r = txs_[seq];
  r.reply_us = now_us;
  r.state = status == SubmitStatus::kAccepted ? TxState::kAccepted
                                              : TxState::kRejected;
}

void Ledger::on_ack(std::uint64_t seq, std::uint32_t now_us) {
  if (seq >= txs_.size() || txs_[seq].state == TxState::kDue) {
    ++unknown_acks_;
    return;
  }
  TxRecord& r = txs_[seq];
  // The server queues a tx's SubmitReply before its ack can exist, and one
  // session's frames arrive in order, so an ack is only valid once the tx
  // was accepted.
  if (r.state != TxState::kAccepted) {
    ++bad_acks_;
    return;
  }
  if (r.acks < 255) ++r.acks;
  if (r.acks == 1) r.ack_us = now_us;
}

std::vector<double> Ledger::window_latencies_ms() const {
  std::vector<double> out;
  for (const TxRecord& r : txs_) {
    if (!r.in_window || r.acks == 0) continue;
    out.push_back(static_cast<double>(r.ack_us - latency_origin(r)) / 1000.0);
  }
  return out;
}

std::vector<double> Ledger::window_send_lag_ms() const {
  std::vector<double> out;
  for (const TxRecord& r : txs_) {
    if (!r.in_window || r.state == TxState::kDue) continue;
    if (r.state == TxState::kRefused) continue;
    out.push_back(static_cast<double>(r.sent_us - r.due_us) / 1000.0);
  }
  return out;
}

LedgerSummary Ledger::summarize() const {
  LedgerSummary s;
  s.gate_unknown_acks = unknown_acks_;
  s.gate_bad_replies = bad_replies_;
  s.gate_bad_acks = bad_acks_;
  for (const TxRecord& r : txs_) {
    const std::uint64_t extra = r.acks > 1 ? r.acks - 1u : 0u;
    s.gate_dup_acks += extra;
    if (!r.in_window) continue;
    ++s.attempted;
    s.dup_acks += extra;
    switch (r.state) {
      case TxState::kRejected:
        ++s.rejected;
        break;
      case TxState::kRefused:
      case TxState::kDue:  // shed: came due but never handed to a client
        ++s.refused;
        break;
      case TxState::kSent:
      case TxState::kAccepted:
        if (r.acks == 0) {
          ++s.unacked;
        } else {
          ++s.acked;
        }
        break;
    }
  }
  return s;
}

}  // namespace perfbench
