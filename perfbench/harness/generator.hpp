// The benchmark's load generator: one thread, one ingress::Client connection
// per target node, all polled from the calling thread.
//
//   open loop   seeded Poisson arrivals at a fixed rate; each tx is timed
//               from its due time, so a generator that falls behind charges
//               the delay to the txs it held back (and reports how late it
//               ran). Nothing is shed: every due arrival is sent.
//   closed loop each connection keeps a fixed window of txs outstanding; a
//               slot frees on the tx's ack (or rejection) and the
//               replacement is timed from when it is sent.
//
// Every tx carries its sequence number in the first 8 payload bytes, so the
// a_deliver trace can name it without a lookup table.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ingress/client.hpp"
#include "ledger.hpp"

namespace perfbench {

/// Microsecond clock shared by the generator and the a_deliver trace.
class BenchClock {
 public:
  std::uint32_t now_us() const {
    return static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Seeded Poisson arrival times (exponential gaps at `rate_tps`).
class ArrivalSchedule {
 public:
  ArrivalSchedule(std::uint64_t seed, double rate_tps, double start_us)
      : rng_(seed), mean_gap_us_(1e6 / rate_tps), next_us_(start_us) {}

  double peek() const { return next_us_; }
  /// Returns the current arrival time and advances to the next one.
  double pop();

 private:
  dr::Xoshiro256 rng_;
  double mean_gap_us_;
  double next_us_;
};

/// Deterministic tx payload: le64(seq) followed by seed-derived filler.
dr::Bytes make_payload(std::uint64_t seed, std::uint64_t seq,
                       std::size_t bytes);
/// Inverse of make_payload's prefix; false if the payload is too short.
bool payload_seq(dr::BytesView payload, std::uint64_t& seq);

struct GeneratorOptions {
  std::vector<std::uint16_t> ports;  ///< one connection per port
  bool open_loop = true;
  double rate_tps = 0.0;             ///< open loop
  std::size_t window_per_conn = 0;   ///< closed loop
  std::size_t payload_bytes = 32;
  std::uint64_t seed = 1;
};

class Generator {
 public:
  /// `on_create` (may be empty) runs for every tx before it is sent — the
  /// trace uses it to make room for the tx's delivery stamps.
  using CreateHook = std::function<void(std::uint64_t seq)>;

  Generator(GeneratorOptions opts, const BenchClock& clock,
            CreateHook on_create = {});

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(int timeout_ms);
  void close();

  /// Sends one tx on the first connection and pumps until it is acked.
  bool probe(int timeout_ms);
  /// Generates load until the clock reads `until_us`. Txs that come due now
  /// are flagged in_window. False if a connection died.
  bool drive(std::uint32_t until_us, bool in_window);
  /// Stops generating and pumps until every sent tx is answered and every
  /// accepted tx acked, or the timeout passes. False on timeout.
  bool drain(int timeout_ms);

  Ledger& ledger() { return ledger_; }
  const Ledger& ledger() const { return ledger_; }
  /// First acks received so far (duplicates excluded).
  std::uint64_t acks_total() const { return acks_total_; }

 private:
  void wire(std::size_t conn);
  void create_tx(std::size_t conn, std::uint32_t due_us, bool in_window);
  void flush();
  bool pump(int timeout_us);
  void free_slot(std::size_t conn, std::uint32_t at_us);

  GeneratorOptions opts_;
  const BenchClock& clock_;
  CreateHook on_create_;
  Ledger ledger_;
  dr::Xoshiro256 conn_rng_;
  std::unique_ptr<ArrivalSchedule> arrivals_;  ///< open loop, from drive()
  std::vector<std::unique_ptr<dr::ingress::Client>> conns_;
  /// Per-connection txs built this tick, sent as one SubmitBatch.
  std::vector<dr::ingress::SubmitBatch> pending_;
  /// Closed loop: free slots per connection, as the times they freed up.
  std::vector<std::deque<std::uint32_t>> free_slots_;
  std::uint32_t tick_us_ = 0;     ///< clock read once per pump cycle
  std::uint64_t open_txs_ = 0;    ///< sent, not yet rejected or acked
  std::uint64_t acks_total_ = 0;
  bool windows_open_ = false;  ///< closed loop: initial window issued
};

}  // namespace perfbench
