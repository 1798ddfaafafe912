// Outside-in traffic counter: a net::Transport decorator, installed through
// node::ClusterTweaks::transport_wrap, that counts the messages and payload
// bytes each node sends to its peers, per net::Channel. Self-sends (a node's
// own broadcast looping back, a_bcast frames) never leave the process and
// are not counted. The counters are shared by every node of a cluster and
// survive a node's restart, because the tally object outlives the cluster.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "net/channel.hpp"
#include "net/transport.hpp"

namespace perfbench {

struct ChannelTally {
  std::atomic<std::uint64_t> msgs{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// Cluster-wide per-channel send counts. Thread-safe: every node's sending
/// thread adds to it.
class TrafficTally {
 public:
  void add(dr::net::Channel channel, std::size_t bytes) {
    ChannelTally& t = per_channel_[static_cast<std::uint32_t>(channel)];
    t.msgs.fetch_add(1, std::memory_order_relaxed);
    t.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, dr::net::kChannelCount> msgs{};
    std::array<std::uint64_t, dr::net::kChannelCount> bytes{};
    std::uint64_t total_msgs() const;
    std::uint64_t total_bytes() const;
    Snapshot operator-(const Snapshot& earlier) const;
  };
  Snapshot snapshot() const;

 private:
  std::array<ChannelTally, dr::net::kChannelCount> per_channel_{};
};

class CountingTransport final : public dr::net::Transport {
 public:
  CountingTransport(std::unique_ptr<dr::net::Transport> inner,
                    TrafficTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  dr::ProcessId pid() const override { return inner_->pid(); }
  const dr::Committee& committee() const override {
    return inner_->committee();
  }
  void start(RecvFn recv) override { inner_->start(std::move(recv)); }
  void send(dr::ProcessId to, dr::net::Channel channel,
            dr::net::Payload payload) override {
    if (to != inner_->pid()) tally_.add(channel, payload.size());
    inner_->send(to, channel, std::move(payload));
  }
  void stop() override { inner_->stop(); }
  std::uint64_t backpressure_overflows() const override {
    return inner_->backpressure_overflows();
  }
  dr::net::TransportCounters counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<dr::net::Transport> inner_;
  TrafficTally& tally_;
};

}  // namespace perfbench
