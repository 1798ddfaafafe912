// Process-level probes read from outside the program: CPU time, context
// switches and peak memory from getrusage, write syscalls from /proc/self/io.
#pragma once

#include <cstdint>

namespace perfbench {

struct ProcSample {
  double cpu_s = 0.0;         ///< user + system, whole process
  double thread_cpu_s = 0.0;  ///< user + system, calling thread only
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, process
  std::uint64_t write_syscalls = 0;  ///< syscw from /proc/self/io
};

/// Samples the process; thread_cpu_s is the calling thread's own time.
ProcSample sample_process();

/// Peak resident set of the process so far (getrusage ru_maxrss), in MB.
double peak_rss_mb();

}  // namespace perfbench
