// End-to-end benchmark of the client ingress path: an n=4 node::Cluster
// (DAG-Rider ordering, Bracha RBC, piggyback coin, WAL without fsync,
// in-process node-to-node links, ingress over loopback TCP) driven by the
// single-threaded Generator over one connection per node.
//
//   perfbench_dagbench --workload <steady|saturate|bulk|restart> --seed <n>
//                      --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// reference phase and a traced phase (seconds/5 each) and prints the
// per-layer metrics. Every run passes the correctness gate (BAB log audit,
// client-side exactly-once ack accounting, and in the traced phase
// exactly-once a_deliver of every acked tx at every node) or prints no
// result and exits 1. The last stdout line is the result JSON.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "counting_transport.hpp"
#include "generator.hpp"
#include "isolated.hpp"
#include "ledger.hpp"
#include "node/cluster.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dr::ProcessId;

constexpr std::uint32_t kNodes = 4;
constexpr ProcessId kVictim = kNodes - 1;  ///< node crashed and restarted
constexpr std::uint32_t kWarmupUs = 1'000'000;
constexpr int kSetupReps = 3;  ///< set-ups per sub-run
constexpr int kSubRuns = 5;    ///< fresh clusters per untraced run
constexpr auto kDowntime = std::chrono::milliseconds(500);
constexpr int kDrainTimeoutMs = 30'000;
constexpr auto kRejoinTimeout = std::chrono::seconds(30);
/// Nice value of every cluster thread. The generator keeps the default (0),
/// so a client that would have its own machine is not starved of CPU by the
/// servers it measures; the cluster's threads stay equal among themselves.
constexpr int kClusterNice = 5;

struct Workload {
  const char* name;
  bool open_loop;
  double rate_tps;          ///< open loop
  std::size_t window;       ///< closed loop, per connection
  std::size_t payload_bytes;
  /// The victim crashes and restarts inside every measured window; the
  /// clients talk only to the nodes that stay up.
  bool crash_in_window = false;
};

constexpr Workload kWorkloads[] = {
    {"steady", true, 40'000.0, 0, 32},
    {"saturate", false, 0.0, 4096, 32},
    {"bulk", false, 0.0, 512, 1024},
    {"restart", true, 20'000.0, 0, 32, true},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_dagbench: %s\nusage: perfbench_dagbench --workload "
               "<steady|saturate|bulk|restart> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.workdir.empty()) usage("--workdir is required");
  return a;
}

std::uint64_t counter(const dr::metrics::Counters& cs, const char* name) {
  for (const auto& [k, v] : cs) {
    if (k == name) return v;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs `fn` on a helper thread at kClusterNice: threads it spawns (node
/// event loops, ingress I/O threads) inherit that nice value.
template <typename Fn>
void spawn_niced(Fn fn) {
  std::thread helper([&fn] {
    (void)setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                      kClusterNice);
    fn();
  });
  helper.join();
}

/// Cluster-side readings taken at a window boundary. Everything here is
/// safe to read while the nodes run (atomics and mutex-guarded logs).
struct LiveSample {
  ProcSample proc;
  TrafficTally::Snapshot traffic;
  std::uint64_t acks = 0;
  std::uint64_t mempool_drained = 0;
  std::uint64_t mempool_rejected = 0;
  std::uint64_t ingress_batches = 0;
  std::uint64_t ingress_acks_dropped = 0;
  std::uint64_t node0_us = 0;  ///< node 0's clock (its log timestamps)
};

/// Counters of one node incarnation, read while it is stopped.
struct NodeReadout {
  dr::metrics::Counters counters;
  std::uint64_t inbox_overflows = 0;
};

NodeReadout read_stopped(dr::node::Node& node) {
  return NodeReadout{node.counters(), node.inbox_overflows()};
}

/// Everything one phase (one cluster's life) measured.
struct PhaseResult {
  std::string error;  ///< non-empty: the phase or its gate failed
  std::vector<double> setup_s;
  double window_s = 0;
  LiveSample t0, t1;
  LedgerSummary summary;
  std::vector<double> latencies_ms;
  std::vector<double> send_lag_ms;
  std::optional<double> rejoin_s;
  bool rejoin_timed_out = false;  ///< victim still behind after the timeout
  std::uint64_t acks_total = 0;  ///< whole phase, setup probe included
  std::vector<NodeReadout> final_nodes;  ///< every node, after stop
  std::optional<NodeReadout> victim_before_crash;
  std::vector<dr::core::DeliveredRecord> node0_delivered;
  std::vector<dr::core::CommitRecord> node0_commits;
  TrafficTally::Snapshot traffic_total;
  // Traced phase only: per-tx slices of acked in-window txs (ms).
  std::vector<double> admit_ms, order_ms, ack_tail_ms, spread_ms;
};

class PhaseRunner {
 public:
  /// One sub-run: a measured window of seconds/kSubRuns. A traced sub-run
  /// also counts traffic, stamps every a_deliver, and crash-restarts a node
  /// after its drain.
  PhaseRunner(const Args& args, bool traced, std::string dir)
      : args_(args), traced_(traced), dir_(std::move(dir)) {}

  PhaseResult run();

 private:
  dr::node::NodeOptions node_options(const std::string& wal) const;
  GeneratorOptions generator_options() const;
  bool set_up(PhaseResult& r);
  void tear_down();
  LiveSample sample_live();
  bool drive_window(std::uint32_t end, PhaseResult& r);
  bool crash_and_restart(PhaseResult& r);
  void crash_victim(PhaseResult& r);
  void restart_victim();
  void note_rejoin(PhaseResult& r);
  void wait_rejoin(PhaseResult& r);
  void check_trace(PhaseResult& r);

  const Args& args_;
  bool traced_;
  std::string dir_;
  BenchClock clock_;
  TrafficTally tally_;
  // Destroyed bottom-up: the generator (its sockets end at the cluster),
  // then the cluster (its hooks point into trace_ and tally_), then trace_.
  std::unique_ptr<DeliverTrace> trace_;
  std::unique_ptr<dr::node::Cluster> cluster_;
  std::unique_ptr<Generator> gen_;
  std::uint64_t rejoin_target_ = 0;
  std::chrono::steady_clock::time_point restart_at_;
};

dr::node::NodeOptions PhaseRunner::node_options(const std::string& wal) const {
  dr::node::NodeOptions o;
  o.rbc_kind = dr::rbc::RbcKind::kBracha;
  o.coin_mode = dr::node::CoinMode::kPiggyback;
  o.ordering = dr::core::OrderingKind::kDagRider;
  o.block_max_txs = 256;
  o.wal_dir = wal;
  o.wal_fsync = false;
  o.ingress_enable = true;
  o.seed = args_.seed * 0x9E3779B97F4A7C15ULL + 1;
  return o;
}

GeneratorOptions PhaseRunner::generator_options() const {
  GeneratorOptions g;
  for (ProcessId p = 0; p < kNodes; ++p) {
    if (p == kVictim && args_.workload->crash_in_window) continue;
    g.ports.push_back(cluster_->ingress_port(p));
  }
  g.open_loop = args_.workload->open_loop;
  g.rate_tps = args_.workload->rate_tps;
  g.window_per_conn = args_.workload->window;
  g.payload_bytes = args_.workload->payload_bytes;
  g.seed = args_.seed;
  return g;
}

void PhaseRunner::tear_down() {
  if (gen_) gen_->close();
  if (cluster_) cluster_->stop();
}

bool PhaseRunner::set_up(PhaseResult& r) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (cluster_) {
      tear_down();
      gen_.reset();
      cluster_.reset();
      trace_.reset();
    }
    const std::string wal = dir_ + "/wal";
    fs::remove_all(wal);
    const auto t0 = std::chrono::steady_clock::now();
    dr::node::ClusterTweaks tweaks;
    if (traced_) {
      tweaks.transport_wrap = [this](ProcessId,
                                     std::unique_ptr<dr::net::Transport> in) {
        return std::make_unique<CountingTransport>(std::move(in), tally_);
      };
    }
    cluster_ = std::make_unique<dr::node::Cluster>(
        dr::Committee::for_n(kNodes), node_options(wal), std::move(tweaks));
    Generator::CreateHook reserve;
    if (traced_) {
      trace_ = std::make_unique<DeliverTrace>(kNodes, clock_);
      for (ProcessId p = 0; p < kNodes; ++p) {
        cluster_->node(p).set_app_deliver(
            [t = trace_.get(), p](const dr::Bytes& block, dr::Round,
                                  ProcessId, std::uint64_t) {
              t->on_deliver(p, dr::BytesView(block));
            });
      }
      reserve = [t = trace_.get()](std::uint64_t seq) { t->reserve(seq); };
    }
    spawn_niced([this] { cluster_->start(); });
    gen_ = std::make_unique<Generator>(generator_options(), clock_,
                                       std::move(reserve));
    if (!gen_->connect(5'000)) {
      r.error = "could not connect to the ingress endpoints";
      return false;
    }
    if (!gen_->probe(30'000)) {
      r.error = "set-up probe tx was not acked";
      return false;
    }
    r.setup_s.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  }
  return true;
}

LiveSample PhaseRunner::sample_live() {
  LiveSample s;
  s.proc = sample_process();
  s.traffic = tally_.snapshot();
  s.acks = gen_->acks_total();
  for (ProcessId p = 0; p < kNodes; ++p) {
    dr::node::Node& node = cluster_->node(p);
    const dr::ingress::MempoolStats m = node.mempool().stats();
    s.mempool_drained += m.drained;
    s.mempool_rejected += m.rejected_busy + m.rejected_dup_pending +
                          m.rejected_dup_committed + m.rejected_overflow +
                          m.rejected_too_large;
    if (dr::ingress::IngressServer* in = node.ingress()) {
      const auto c = in->counters();
      s.ingress_batches += counter(c, "batches_rx");
      s.ingress_acks_dropped += counter(c, "acks_dropped");
    }
  }
  s.node0_us = cluster_->node(0).now_us();
  return s;
}

void PhaseRunner::crash_victim(PhaseResult& r) {
  cluster_->stop_node(kVictim);
  r.victim_before_crash = read_stopped(cluster_->node(kVictim));
}

/// Restarts the victim from its WAL. It has rejoined once it a_delivered as
/// many blocks as the most advanced survivor had at this moment.
void PhaseRunner::restart_victim() {
  rejoin_target_ = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    if (p == kVictim) continue;
    rejoin_target_ =
        std::max(rejoin_target_, cluster_->node(p).delivered_count());
  }
  restart_at_ = std::chrono::steady_clock::now();
  dr::node::Cluster& c = *cluster_;
  spawn_niced([&c] { c.restart_node(kVictim); });
}

void PhaseRunner::note_rejoin(PhaseResult& r) {
  if (r.rejoin_s ||
      cluster_->node(kVictim).delivered_count() < rejoin_target_) {
    return;
  }
  r.rejoin_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             restart_at_)
                   .count();
}

/// A victim that has not rejoined after kRejoinTimeout is a liveness finding,
/// not a safety violation: it is counted, and rejoin_s reads the time waited.
void PhaseRunner::wait_rejoin(PhaseResult& r) {
  for (note_rejoin(r); !r.rejoin_s; note_rejoin(r)) {
    const auto waited = std::chrono::steady_clock::now() - restart_at_;
    if (waited >= kRejoinTimeout) {
      r.rejoin_timed_out = true;
      r.rejoin_s = std::chrono::duration<double>(waited).count();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool PhaseRunner::crash_and_restart(PhaseResult& r) {
  // Let the victim reach everyone's frontier first, so every acked tx was
  // a_delivered at it before the crash.
  std::uint64_t frontier = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    frontier = std::max(frontier, cluster_->node(p).delivered_count());
  }
  const auto deadline = std::chrono::steady_clock::now() + kRejoinTimeout;
  while (cluster_->node(kVictim).delivered_count() < frontier) {
    if (std::chrono::steady_clock::now() >= deadline) {
      r.error = "victim never reached the frontier before the crash";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  crash_victim(r);
  std::this_thread::sleep_for(kDowntime);
  restart_victim();
  wait_rejoin(r);
  return true;
}

/// Drives the measured window. For a crash-in-window workload the victim
/// stops a fifth of the way in, stays down kDowntime while the load goes on
/// against the survivors, then restarts; its rejoin is timed from the
/// generator's own loop (it may finish after the window, during the drain).
bool PhaseRunner::drive_window(std::uint32_t end, PhaseResult& r) {
  if (!args_.workload->crash_in_window) return gen_->drive(end, true);
  const std::uint32_t now = clock_.now_us();
  if (!gen_->drive(now + (end - now) / 5, true)) return false;
  // Stopping joins the victim's threads; a helper does it so the load keeps
  // its schedule. Nothing else touches the victim until the join.
  std::thread stopper([this, &r] { crash_victim(r); });
  const auto down_us = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(kDowntime)
          .count());
  const bool ok = gen_->drive(clock_.now_us() + down_us, true);
  stopper.join();
  if (!ok) return false;
  restart_victim();
  while (clock_.now_us() < end) {
    if (!gen_->drive(std::min(end, clock_.now_us() + 20'000), true)) {
      return false;
    }
    note_rejoin(r);
  }
  return true;
}

void PhaseRunner::check_trace(PhaseResult& r) {
  const auto ms = [](std::int64_t us) {
    return static_cast<double>(us) / 1000.0;
  };
  const Ledger& ledger = gen_->ledger();
  std::uint64_t missing = 0;
  std::uint64_t unexpected = 0;
  for (std::uint64_t seq = 0; seq < ledger.size(); ++seq) {
    const TxRecord& tx = ledger.at(seq);
    std::uint32_t last = 0;
    for (ProcessId p = 0; p < kNodes; ++p) {
      // A victim that crashed mid-window lost its hook with its first
      // incarnation; the total-order audit covers its log instead.
      if (p == kVictim && args_.workload->crash_in_window) continue;
      const std::uint32_t s = trace_->stamp(p, seq);
      if (tx.acks > 0 && s == 0) ++missing;
      if (tx.state != TxState::kAccepted && s != 0) ++unexpected;
      if (s != 0) last = std::max(last, s - 1);
    }
    if (!tx.in_window || tx.acks == 0) continue;
    const std::uint32_t origin_stamp = trace_->stamp(tx.conn, seq);
    if (origin_stamp == 0) continue;  // counted as missing above
    const std::int64_t start = ledger.latency_origin(tx);
    const std::int64_t origin = origin_stamp - 1;
    // admit + order + ack_tail tile [start, ack] exactly: the commit ack
    // leaves the origin node at its a_deliver. deliver_spread is a side
    // branch from the same point (the other nodes' a_deliver).
    r.admit_ms.push_back(ms(std::int64_t{tx.reply_us} - start));
    r.order_ms.push_back(ms(origin - tx.reply_us));
    r.ack_tail_ms.push_back(ms(std::int64_t{tx.ack_us} - origin));
    r.spread_ms.push_back(ms(std::int64_t{last} - origin));
  }
  std::uint64_t dups = 0;
  std::uint64_t strays = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    dups += trace_->duplicates(p);
    strays += trace_->strays(p);
  }
  if (missing + unexpected + dups + strays > 0) {
    r.error = "a_deliver trace: " + std::to_string(missing) +
              " acked txs missing at some node, " +
              std::to_string(unexpected) + " unaccepted txs delivered, " +
              std::to_string(dups) + " duplicate deliveries, " +
              std::to_string(strays) + " unnamed txs";
  }
}

PhaseResult PhaseRunner::run() {
  PhaseResult r;
  fs::create_directories(dir_);
  if (!set_up(r)) {
    tear_down();
    return r;
  }
  r.window_s = args_.seconds / kSubRuns;
  const auto window_us = static_cast<std::uint32_t>(r.window_s * 1e6);
  bool ok = gen_->drive(clock_.now_us() + kWarmupUs, /*in_window=*/false);
  if (ok) {
    r.t0 = sample_live();
    ok = drive_window(clock_.now_us() + window_us, r);
    r.t1 = sample_live();
  }
  if (!ok) {
    r.error = "an ingress connection died during the run";
    tear_down();
    return r;
  }
  (void)gen_->drain(kDrainTimeoutMs);  // leftovers count as unacked
  gen_->close();
  r.acks_total = gen_->acks_total();
  r.summary = gen_->ledger().summarize();
  r.latencies_ms = gen_->ledger().window_latencies_ms();
  r.send_lag_ms = gen_->ledger().window_send_lag_ms();
  // Traced sub-runs time a rejoin: after the drain, or (crash-in-window
  // workloads) the one the window started.
  if (traced_ && args_.workload->crash_in_window) {
    wait_rejoin(r);
  } else if (traced_ && !crash_and_restart(r)) {
    tear_down();
    return r;
  }
  cluster_->stop();
  r.traffic_total = tally_.snapshot();
  for (ProcessId p = 0; p < kNodes; ++p) {
    r.final_nodes.push_back(read_stopped(cluster_->node(p)));
  }
  r.node0_delivered = cluster_->node(0).delivered_snapshot();
  r.node0_commits = cluster_->node(0).commits_snapshot();

  if (const auto violation = dr::core::audit_logs(cluster_->delivered_logs(),
                                                  cluster_->commit_logs())) {
    r.error = "BAB audit: " + *violation;
  } else if (!r.summary.gate_ok()) {
    r.error = "ingress ack accounting: " + r.summary.gate_report();
  } else if (traced_) {
    check_trace(r);
  }
  gen_.reset();
  cluster_.reset();
  trace_.reset();
  fs::remove_all(dir_);
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double window_acks(const PhaseResult& r) {
  return static_cast<double>(r.t1.acks - r.t0.acks);
}

/// Process CPU over the window, minus the generator thread's own.
double window_cpu_us(const PhaseResult& r) {
  return 1e6 * ((r.t1.proc.cpu_s - r.t0.proc.cpu_s) -
                (r.t1.proc.thread_cpu_s - r.t0.proc.thread_cpu_s));
}

double cpu_us_per_tx(const PhaseResult& r) {
  return ratio(window_cpu_us(r), window_acks(r));
}

double p(std::vector<double> v, double pct) { return percentile(v, pct); }

/// The sub-runs' windows are measured as one: latency percentiles over
/// every window's txs, goodput and CPU over the summed windows and acks.
/// setup_s is the median over every set-up of every sub-run.
std::vector<Metric> end_to_end(const std::vector<PhaseResult>& subs) {
  std::vector<double> latencies;
  std::vector<double> setup;
  double acks = 0;
  double window_s = 0;
  double cpu_us = 0;
  for (const PhaseResult& r : subs) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    acks += window_acks(r);
    window_s += r.window_s;
    cpu_us += window_cpu_us(r);
  }
  return {
      {"commit_p50_ms", p(latencies, 50), "ms"},
      {"commit_p90_ms", p(latencies, 90), "ms"},
      {"goodput_tps", ratio(acks, window_s), "tx/s"},
      {"cpu_us_per_tx", ratio(cpu_us, acks), "us"},
      {"setup_s", median(setup), "s"},
  };
}

/// Sum of one counter over every node incarnation of the phase.
double sum_counter(const PhaseResult& r, const char* name) {
  double total = 0;
  for (const NodeReadout& n : r.final_nodes) {
    total += static_cast<double>(counter(n.counters, name));
  }
  if (r.victim_before_crash) {
    total += static_cast<double>(
        counter(r.victim_before_crash->counters, name));
  }
  return total;
}

std::vector<Metric> per_layer(const PhaseResult& ref, const PhaseResult& r,
                              std::size_t payload_bytes,
                              const std::string& scratch) {
  const double acks = window_acks(r);
  const double ktx = acks / 1000.0;
  const TrafficTally::Snapshot traffic = r.t1.traffic - r.t0.traffic;
  const auto bracha = static_cast<std::size_t>(dr::net::Channel::kBracha);
  const auto sync = static_cast<std::size_t>(dr::net::Channel::kSync);

  // Node 0's log, cut at the window's edges on node 0's own clock.
  double blocks = 0;
  dr::Round round_t0 = 0;
  dr::Round round_t1 = 0;
  for (const auto& d : r.node0_delivered) {
    if (d.time < r.t0.node0_us) round_t0 = std::max(round_t0, d.round);
    if (d.time < r.t1.node0_us) round_t1 = std::max(round_t1, d.round);
    // A block with txs is longer than the 8-byte empty-block header.
    if (d.time >= r.t0.node0_us && d.time < r.t1.node0_us &&
        d.block_size > 8) {
      blocks += 1;
    }
  }
  double commits = 0;
  for (const auto& c : r.node0_commits) {
    if (c.time >= r.t0.node0_us && c.time < r.t1.node0_us) commits += 1;
  }
  const double txs_per_block = ratio(
      static_cast<double>(r.t1.mempool_drained - r.t0.mempool_drained),
      blocks);

  const dr::metrics::Counters& n0 = r.final_nodes[0].counters;
  const auto waves =
      static_cast<double>(counter(n0, "ordering.waves_evaluated"));
  const double direct =
      waves -
      static_cast<double>(counter(n0, "ordering.waves_without_direct_commit"));
  const dr::metrics::Counters& victim = r.final_nodes[kVictim].counters;
  const double rejoin_s = r.rejoin_s.value_or(0.0);

  IsolatedShape shape;
  shape.txs_per_block =
      static_cast<std::size_t>(std::max(1.0, std::round(txs_per_block)));
  shape.payload_bytes = payload_bytes;
  shape.n = kNodes;
  shape.scratch_dir = scratch;
  const IsolatedTimings iso = time_isolated(shape);

  const double traced_p50 = p(r.latencies_ms, 50);
  const double ref_p50 = p(ref.latencies_ms, 50);
  const double order_p50 = p(r.order_ms, 50);
  const double all_acks = static_cast<double>(r.acks_total);

  return {
      {"ingress.admit_p50_ms", p(r.admit_ms, 50), "ms"},
      {"ingress.ack_tail_p50_ms", p(r.ack_tail_ms, 50), "ms"},
      {"ingress.batches_per_ktx",
       ratio(static_cast<double>(r.t1.ingress_batches - r.t0.ingress_batches),
             ktx),
       "count/ktx"},
      {"ingress.acks_dropped_per_ktx",
       ratio(static_cast<double>(r.t1.ingress_acks_dropped -
                                 r.t0.ingress_acks_dropped),
             ktx),
       "count/ktx"},
      {"mempool.rejected_per_ktx",
       ratio(static_cast<double>(r.t1.mempool_rejected - r.t0.mempool_rejected),
             ktx),
       "count/ktx"},
      {"mempool.submit_us", iso.submit_us, "us"},
      {"mempool.drain_us_per_block", iso.drain_us_per_block, "us"},
      {"mempool.mark_committed_us", iso.mark_committed_us, "us"},
      {"mempool.tx_digest_us", iso.tx_digest_us, "us"},
      {"txpool.encode_block_us", iso.encode_block_us, "us"},
      {"txpool.decode_block_us", iso.decode_block_us, "us"},
      {"node.order_p50_ms", order_p50, "ms"},
      {"node.deliver_spread_p50_ms", p(r.spread_ms, 50), "ms"},
      {"node.txs_per_block", txs_per_block, "count"},
      {"node.blocks_per_s", ratio(blocks, r.window_s), "1/s"},
      {"node.inbox_overflows",
       [&] {
         double total = 0;
         for (const NodeReadout& n : r.final_nodes) {
           total += static_cast<double>(n.inbox_overflows);
         }
         if (r.victim_before_crash) {
           total += static_cast<double>(r.victim_before_crash->inbox_overflows);
         }
         return total;
       }(),
       "count"},
      {"dag.rounds_per_s",
       ratio(static_cast<double>(round_t1 - round_t0), r.window_s), "1/s"},
      {"dag.insert_us", iso.dag_insert_us, "us"},
      {"ordering.waves_per_direct_commit", ratio(waves, direct), "count"},
      {"ordering.commits_per_s", ratio(commits, r.window_s), "1/s"},
      {"net.msgs_per_tx",
       ratio(static_cast<double>(traffic.total_msgs()), acks),
       "count/tx"},
      {"net.bytes_per_tx",
       ratio(static_cast<double>(traffic.total_bytes()), acks), "B/tx"},
      {"rbc.bytes_per_tx",
       ratio(static_cast<double>(traffic.bytes[bracha]), acks), "B/tx"},
      {"rbc.amplification",
       ratio(static_cast<double>(traffic.bytes[bracha]),
             acks * static_cast<double>(payload_bytes)),
       "ratio"},
      {"sync.bytes", static_cast<double>(r.traffic_total.bytes[sync]), "B"},
      {"store.bytes_per_tx",
       ratio(sum_counter(r, "store.bytes_appended"), all_acks), "B/tx"},
      {"store.records_per_tx",
       ratio(sum_counter(r, "store.vertices_appended") +
                 sum_counter(r, "store.proposals_appended"),
             all_acks),
       "count/tx"},
      {"store.append_us", iso.store_append_us, "us"},
      {"store.recovered_vertices",
       static_cast<double>(counter(victim, "store.recovered_vertices")),
       "count"},
      {"catchup.rejoin_s", rejoin_s, "s"},
      {"catchup.rejoin_timeouts", r.rejoin_timed_out ? 1.0 : 0.0, "count"},
      {"catchup.vertices_per_s",
       ratio(static_cast<double>(counter(victim, "catchup.vertices_accepted")),
             rejoin_s),
       "1/s"},
      {"catchup.requests_sent",
       static_cast<double>(counter(victim, "catchup.requests_sent")), "count"},
      {"catchup.retries",
       static_cast<double>(counter(victim, "catchup.retries")), "count"},
      {"proc.write_syscalls_per_tx",
       ratio(static_cast<double>(r.t1.proc.write_syscalls -
                                 r.t0.proc.write_syscalls),
             acks),
       "count/tx"},
      {"proc.ctx_switches_per_tx",
       ratio(static_cast<double>(r.t1.proc.ctx_switches -
                                 r.t0.proc.ctx_switches),
             acks),
       "count/tx"},
      {"proc.rss_peak_mb", peak_rss_mb(), "MB"},
      {"bench.commit_p99_ms", p(ref.latencies_ms, 99), "ms"},
      {"bench.gen_lag_p99_ms", p(r.send_lag_ms, 99), "ms"},
      {"bench.trace_overhead_pct", 100.0 * ratio(traced_p50 - ref_p50, ref_p50),
       "%"},
      {"bench.order_share_pct", 100.0 * ratio(order_p50, traced_p50), "%"},
      {"bench.isolated_cpu_share_pct",
       100.0 * ratio(iso.per_tx_us(shape), cpu_us_per_tx(ref)), "%"},
  };
}

int run(const Args& args) {
  const std::string root =
      args.workdir + "/run-" + std::to_string(static_cast<long>(getpid()));
  const auto fail = [&](const PhaseResult& r) {
    std::fprintf(stderr, "perfbench_dagbench: %s: %s\n", args.workload->name,
                 r.error.c_str());
    fs::remove_all(root);
    return 1;
  };
  if (!args.trace) {
    // kSubRuns fresh clusters in a row, each measuring seconds/kSubRuns.
    std::vector<PhaseResult> subs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (int k = 0; k < kSubRuns; ++k) {
      subs.push_back(
          PhaseRunner(args, false, root + "/sub-" + std::to_string(k)).run());
      if (!subs.back().error.empty()) return fail(subs.back());
      attempted += subs.back().summary.attempted;
      failed += subs.back().summary.failed();
    }
    print_result(attempted, failed, end_to_end(subs));
    fs::remove_all(root);
    return 0;
  }
  const PhaseResult ref = PhaseRunner(args, false, root + "/ref").run();
  if (!ref.error.empty()) return fail(ref);
  const PhaseResult traced = PhaseRunner(args, true, root + "/traced").run();
  if (!traced.error.empty()) return fail(traced);
  fs::create_directories(root);
  const auto metrics =
      per_layer(ref, traced, args.workload->payload_bytes, root);
  fs::remove_all(root);
  print_result(traced.summary.attempted, traced.summary.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
