#include "counting_transport.hpp"

#include <numeric>

namespace perfbench {

std::uint64_t TrafficTally::Snapshot::total_msgs() const {
  return std::accumulate(msgs.begin(), msgs.end(), std::uint64_t{0});
}

std::uint64_t TrafficTally::Snapshot::total_bytes() const {
  return std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
}

TrafficTally::Snapshot TrafficTally::Snapshot::operator-(
    const Snapshot& earlier) const {
  Snapshot d;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    d.msgs[i] = msgs[i] - earlier.msgs[i];
    d.bytes[i] = bytes[i] - earlier.bytes[i];
  }
  return d;
}

TrafficTally::Snapshot TrafficTally::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < per_channel_.size(); ++i) {
    s.msgs[i] = per_channel_[i].msgs.load(std::memory_order_relaxed);
    s.bytes[i] = per_channel_[i].bytes.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace perfbench
