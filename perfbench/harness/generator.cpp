#include "generator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>

namespace perfbench {

using dr::ingress::SubmitStatus;

namespace {

/// Bounds on one poll's sleep. The upper bound caps how late the generator
/// notices an arrival that came due while it waited; the lower bound
/// batches arrivals closer together than that into one send, so the
/// generator does not spin a core the cluster needs.
constexpr int kMinTickUs = 100;
constexpr int kMaxTickUs = 250;

}  // namespace

double ArrivalSchedule::pop() {
  const double due = next_us_;
  const double u = std::max(rng_.uniform(), 1e-12);
  next_us_ += -std::log(u) * mean_gap_us_;
  return due;
}

dr::Bytes make_payload(std::uint64_t seed, std::uint64_t seq,
                       std::size_t bytes) {
  const std::size_t size = std::max<std::size_t>(8, bytes);
  dr::ByteWriter w(size);
  w.u64(seq);
  dr::SplitMix64 fill(seed ^ (seq * 0x9e3779b97f4a7c15ULL));
  std::size_t left = size - 8;
  while (left >= 8) {
    w.u64(fill.next());
    left -= 8;
  }
  std::uint64_t last = fill.next();
  for (; left > 0; --left, last >>= 8) {
    w.u8(static_cast<std::uint8_t>(last & 0xff));
  }
  return std::move(w).take();
}

bool payload_seq(dr::BytesView payload, std::uint64_t& seq) {
  if (payload.size() < 8) return false;
  seq = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    seq |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return true;
}

Generator::Generator(GeneratorOptions opts, const BenchClock& clock,
                     CreateHook on_create)
    : opts_(std::move(opts)),
      clock_(clock),
      on_create_(std::move(on_create)),
      ledger_(opts_.open_loop),
      conn_rng_(opts_.seed ^ 0xC0FFEEULL),
      pending_(opts_.ports.size()),
      free_slots_(opts_.ports.size()) {}

bool Generator::connect(int timeout_ms) {
  for (std::size_t i = 0; i < opts_.ports.size(); ++i) {
    conns_.push_back(std::make_unique<dr::ingress::Client>(
        dr::ingress::Client::Options{"127.0.0.1", opts_.ports[i], 1 << 14}));
    wire(i);
    if (!conns_.back()->connect(timeout_ms)) return false;
    pending_[i].client_id = i + 1;
  }
  return true;
}

void Generator::close() {
  for (auto& c : conns_) c->close();
}

void Generator::wire(std::size_t conn) {
  dr::ingress::Client& c = *conns_[conn];
  c.on_reply = [this, conn](std::uint64_t, std::uint64_t seq,
                            SubmitStatus status) {
    const bool valid =
        seq < ledger_.size() && ledger_.at(seq).state == TxState::kSent;
    ledger_.on_reply(seq, status, tick_us_);
    if (valid && status != SubmitStatus::kAccepted) {
      --open_txs_;
      free_slot(conn, tick_us_);
    }
  };
  c.on_ack = [this, conn](std::uint64_t, std::uint64_t seq, std::uint64_t) {
    const bool first = seq < ledger_.size() &&
                       ledger_.at(seq).state == TxState::kAccepted &&
                       ledger_.at(seq).acks == 0;
    ledger_.on_ack(seq, tick_us_);
    if (!first) return;
    ++acks_total_;
    --open_txs_;
    free_slot(conn, tick_us_);
  };
}

void Generator::free_slot(std::size_t conn, std::uint32_t at_us) {
  if (!opts_.open_loop) free_slots_[conn].push_back(at_us);
}

void Generator::create_tx(std::size_t conn, std::uint32_t due_us,
                          bool in_window) {
  const std::uint64_t seq =
      ledger_.create(due_us, static_cast<std::uint8_t>(conn), in_window);
  if (on_create_) on_create_(seq);
  pending_[conn].txs.push_back(dr::ingress::TxSubmit{
      seq, make_payload(opts_.seed, seq, opts_.payload_bytes)});
}

void Generator::flush() {
  for (std::size_t conn = 0; conn < conns_.size(); ++conn) {
    dr::ingress::SubmitBatch& batch = pending_[conn];
    if (batch.txs.empty()) continue;
    // A SubmitBatch carries at most kMaxBatchTxs txs.
    for (std::size_t base = 0; base < batch.txs.size();
         base += dr::ingress::kMaxBatchTxs) {
      dr::ingress::SubmitBatch chunk;
      chunk.client_id = batch.client_id;
      const std::size_t end =
          std::min(batch.txs.size(), base + dr::ingress::kMaxBatchTxs);
      chunk.txs.assign(
          std::make_move_iterator(batch.txs.begin() +
                                  static_cast<std::ptrdiff_t>(base)),
          std::make_move_iterator(batch.txs.begin() +
                                  static_cast<std::ptrdiff_t>(end)));
      const bool ok = conns_[conn]->submit_batch(chunk);
      const std::uint32_t now = clock_.now_us();
      for (const dr::ingress::TxSubmit& tx : chunk.txs) {
        if (ok) {
          ledger_.on_sent(tx.tx_id, now);
          ++open_txs_;
        } else {
          ledger_.on_refused(tx.tx_id);
          free_slot(conn, now);
        }
      }
    }
    batch.txs.clear();
  }
}

bool Generator::pump(int timeout_us) {
  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size());
  for (const auto& c : conns_) {
    if (c->fd() < 0) return false;
    const auto events =
        static_cast<short>(c->has_backlog() ? (POLLIN | POLLOUT) : POLLIN);
    pfds.push_back(pollfd{c->fd(), events, 0});
  }
  const timespec ts{0, static_cast<long>(std::max(0, timeout_us)) * 1000L};
  if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
    return false;
  }
  tick_us_ = clock_.now_us();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    if (!conns_[i]->process(0)) return false;
  }
  return true;
}

bool Generator::probe(int timeout_ms) {
  const std::uint64_t before = acks_total_;
  tick_us_ = clock_.now_us();
  create_tx(0, tick_us_, /*in_window=*/false);
  flush();
  const std::uint32_t deadline =
      tick_us_ + static_cast<std::uint32_t>(timeout_ms) * 1000u;
  while (acks_total_ == before) {
    if (clock_.now_us() >= deadline || !pump(1000)) return false;
  }
  return true;
}

bool Generator::drive(std::uint32_t until_us, bool in_window) {
  tick_us_ = clock_.now_us();
  if (opts_.open_loop && arrivals_ == nullptr) {
    arrivals_ = std::make_unique<ArrivalSchedule>(
        opts_.seed, opts_.rate_tps, static_cast<double>(tick_us_));
  }
  if (!opts_.open_loop && !windows_open_) {
    // First closed-loop call: every slot of every window is free now.
    windows_open_ = true;
    for (auto& slots : free_slots_) {
      slots.assign(opts_.window_per_conn, tick_us_);
    }
  }
  while (tick_us_ < until_us) {
    const double now = static_cast<double>(tick_us_);
    if (opts_.open_loop) {
      while (arrivals_->peek() <= now) {
        const auto due = static_cast<std::uint32_t>(arrivals_->pop());
        const auto conn =
            static_cast<std::size_t>(conn_rng_.below(conns_.size()));
        create_tx(conn, due, in_window);
      }
    } else {
      for (std::size_t conn = 0; conn < conns_.size(); ++conn) {
        for (const std::uint32_t due : free_slots_[conn]) {
          create_tx(conn, due, in_window);
        }
        free_slots_[conn].clear();
      }
    }
    flush();
    int wait_us = kMaxTickUs;
    if (opts_.open_loop) {
      const double gap = arrivals_->peek() - static_cast<double>(
                                                 clock_.now_us());
      wait_us = std::clamp(static_cast<int>(gap), kMinTickUs, kMaxTickUs);
    }
    if (!pump(wait_us)) return false;
  }
  return true;
}

bool Generator::drain(int timeout_ms) {
  const std::uint32_t deadline =
      clock_.now_us() + static_cast<std::uint32_t>(timeout_ms) * 1000u;
  while (open_txs_ > 0) {
    if (clock_.now_us() >= deadline || !pump(1000)) return false;
  }
  return true;
}

}  // namespace perfbench
