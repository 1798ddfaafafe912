// Order statistics for the benchmark's reports: one nearest-rank percentile
// picker shared by every latency and timing figure the benchmark prints.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (p in [0, 100]; p = 0 gives the minimum). Reorders
/// `samples` in place (nth_element). Returns 0 for an empty set.
double percentile(std::vector<double>& samples, double p);

/// percentile(samples, 50) on a copy, for callers that keep their order.
double median(std::vector<double> samples);

}  // namespace perfbench
