// Unit tests of the benchmark's own code: the percentile picker, the
// fail_ratio / exactly-once ack accounting, and open-loop due-time stamping
// through a generator stall. Run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "generator.hpp"
#include "ingress/mempool.hpp"
#include "ingress/server.hpp"
#include "ledger.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using dr::ingress::SubmitStatus;

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 99.5), 100);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile(v, 1.01), 2);
}

TEST(Percentile, SmallAndEmptySets) {
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
  std::vector<double> one{7.5};
  EXPECT_EQ(percentile(one, 0), 7.5);
  EXPECT_EQ(percentile(one, 99), 7.5);
  std::vector<double> three{3, 1, 2};
  EXPECT_EQ(percentile(three, 33), 1);  // rank ceil(0.99) = 1
  EXPECT_EQ(percentile(three, 34), 2);  // rank ceil(1.02) = 2
  EXPECT_EQ(median({4, 1, 3, 2}), 2);   // lower middle of an even count
}

TEST(LedgerAccounting, CleanStreamPassesTheGate) {
  Ledger ledger(/*open_loop=*/true);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto seq = ledger.create(10 * i, 0, true);
    ledger.on_sent(seq, 10 * i + 1);
    ledger.on_reply(seq, SubmitStatus::kAccepted, 10 * i + 2);
    ledger.on_ack(seq, 10 * i + 50);
  }
  const LedgerSummary s = ledger.summarize();
  EXPECT_TRUE(s.gate_ok()) << s.gate_report();
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.acked, 3u);
  EXPECT_EQ(s.failed(), 0u);
}

TEST(LedgerAccounting, DuplicateAndUnackedCountAsFailures) {
  Ledger ledger(/*open_loop=*/true);
  const auto ok = ledger.create(0, 0, true);
  const auto dup = ledger.create(1, 0, true);
  const auto lost = ledger.create(2, 0, true);
  const auto busy = ledger.create(3, 0, true);
  const auto refused = ledger.create(4, 0, true);
  const auto warmup = ledger.create(5, 0, /*in_window=*/false);
  for (auto seq : {ok, dup, lost, busy, warmup}) ledger.on_sent(seq, 10);
  ledger.on_refused(refused);
  for (auto seq : {ok, dup, lost, warmup}) {
    ledger.on_reply(seq, SubmitStatus::kAccepted, 11);
  }
  ledger.on_reply(busy, SubmitStatus::kBusy, 11);
  ledger.on_ack(ok, 20);
  ledger.on_ack(dup, 20);
  ledger.on_ack(dup, 21);  // the corrupted part of the stream
  ledger.on_ack(warmup, 22);

  const LedgerSummary s = ledger.summarize();
  EXPECT_EQ(s.attempted, 5u);  // the warm-up tx is outside the window
  EXPECT_EQ(s.acked, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.refused, 1u);
  EXPECT_EQ(s.unacked, 1u);
  EXPECT_EQ(s.dup_acks, 1u);
  EXPECT_EQ(s.failed(), 4u);  // fail_ratio = 4 / 5
  EXPECT_FALSE(s.gate_ok());
  EXPECT_EQ(s.gate_dup_acks, 1u);
  // Latency is taken from the first ack only.
  const auto lat = ledger.window_latencies_ms();
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 0.020);
  EXPECT_DOUBLE_EQ(lat[1], 0.019);
}

TEST(LedgerAccounting, AckNamingAnUnsentOrRejectedTxFailsTheGate) {
  Ledger ledger(/*open_loop=*/false);
  const auto due_only = ledger.create(0, 0, true);
  const auto busy = ledger.create(0, 0, true);
  ledger.on_sent(busy, 1);
  ledger.on_reply(busy, SubmitStatus::kShardFull, 2);

  ledger.on_ack(99, 5);        // never created
  ledger.on_ack(due_only, 5);  // created but never sent
  ledger.on_ack(busy, 5);      // rejected: no ack may follow
  ledger.on_reply(busy, SubmitStatus::kAccepted, 6);  // answered twice

  const LedgerSummary s = ledger.summarize();
  EXPECT_EQ(s.gate_unknown_acks, 2u);
  EXPECT_EQ(s.gate_bad_acks, 1u);
  EXPECT_EQ(s.gate_bad_replies, 1u);
  EXPECT_FALSE(s.gate_ok());
}

TEST(LedgerAccounting, ClosedLoopTimesFromSendOpenLoopFromDue) {
  for (const bool open : {true, false}) {
    Ledger ledger(open);
    const auto seq = ledger.create(1'000, 0, true);
    ledger.on_sent(seq, 31'000);  // sent 30 ms late
    ledger.on_reply(seq, SubmitStatus::kAccepted, 31'100);
    ledger.on_ack(seq, 41'000);
    EXPECT_DOUBLE_EQ(ledger.window_latencies_ms().at(0), open ? 40.0 : 10.0);
    EXPECT_DOUBLE_EQ(ledger.window_send_lag_ms().at(0), 30.0);
  }
}

TEST(Payload, CarriesItsSequenceNumber) {
  for (const std::size_t bytes : {8u, 32u, 1024u, 1031u}) {
    const dr::Bytes p = make_payload(9, 123456789, bytes);
    ASSERT_EQ(p.size(), bytes);
    std::uint64_t seq = 0;
    ASSERT_TRUE(payload_seq(dr::BytesView(p), seq));
    EXPECT_EQ(seq, 123456789u);
    EXPECT_EQ(p, make_payload(9, 123456789, bytes));  // deterministic
    if (bytes > 8) {
      EXPECT_NE(p, make_payload(10, 123456789, bytes)) << "seed-dependent";
    }
  }
}

/// Commits everything the pool holds and routes the acks, as a node would.
void commit_all(dr::ingress::ShardedMempool& pool,
                dr::ingress::IngressServer& server) {
  for (;;) {
    const auto txs = pool.drain(1024);
    if (txs.empty()) return;
    for (const auto& tx : txs) {
      if (auto origin = pool.mark_committed(dr::ingress::tx_digest(tx))) {
        server.complete(*origin);
      }
    }
  }
}

// The generator stalls for 30 ms on its first arrival (a stand-in for a
// descheduled client thread). Arrivals that came due meanwhile must keep
// their scheduled due times, all of them must still be sent, and their
// latency must include the stall.
TEST(GeneratorTiming, StalledOpenLoopChargesLatencyFromDueTime) {
  dr::ingress::ShardedMempool pool{dr::ingress::MempoolOptions{}};
  dr::ingress::IngressServer server(pool, dr::ingress::ServerOptions{});
  ASSERT_TRUE(server.start());

  constexpr auto kStall = std::chrono::milliseconds(30);
  BenchClock clock;
  GeneratorOptions opts;
  opts.ports = {server.port()};
  opts.open_loop = true;
  opts.rate_tps = 2'000;
  opts.payload_bytes = 32;
  opts.seed = 7;
  Generator gen(opts, clock, [&](std::uint64_t seq) {
    if (seq == 0) std::this_thread::sleep_for(kStall);
  });
  ASSERT_TRUE(gen.connect(2'000));
  ASSERT_TRUE(gen.drive(clock.now_us() + 60'000, /*in_window=*/true));
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    commit_all(pool, server);
    drained = gen.drain(10);
  }
  ASSERT_TRUE(drained);
  server.stop();

  const Ledger& ledger = gen.ledger();
  ASSERT_GT(ledger.size(), 60u);
  // Due times are exactly the seeded schedule, none skipped.
  ArrivalSchedule replay(opts.seed, opts.rate_tps, ledger.at(0).due_us);
  const std::uint32_t stall_end = ledger.at(0).due_us + 30'000;
  std::size_t held_back = 0;
  for (std::uint64_t seq = 0; seq < ledger.size(); ++seq) {
    const TxRecord& tx = ledger.at(seq);
    EXPECT_EQ(tx.due_us, static_cast<std::uint32_t>(replay.pop()));
    EXPECT_EQ(tx.acks, 1);
    if (tx.due_us < stall_end) {
      ++held_back;
      EXPECT_GE(tx.sent_us, stall_end) << "sent before the stall ended";
    }
  }
  EXPECT_GE(held_back, 20u);  // ~60 arrivals expected during the stall
  const auto lat = ledger.window_latencies_ms();
  const auto lag = ledger.window_send_lag_ms();
  ASSERT_EQ(lat.size(), ledger.size());
  EXPECT_GE(lat[0], 30.0);
  EXPECT_GE(lag[0], 30.0);
  for (std::size_t i = 0; i < lat.size(); ++i) {
    EXPECT_GE(lat[i], lag[i]);
  }
  EXPECT_EQ(ledger.summarize().failed(), 0u);
}

}  // namespace
}  // namespace perfbench
