#include "probes.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

std::uint64_t read_syscw() {
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return 0;
  char line[128];
  std::uint64_t value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long v = 0;
    if (std::sscanf(line, "syscw: %llu", &v) == 1) {
      value = v;
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

ProcSample sample_process() {
  ProcSample s;
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  rusage thread{};
  getrusage(RUSAGE_THREAD, &thread);
  s.cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime);
  s.thread_cpu_s = seconds(thread.ru_utime) + seconds(thread.ru_stime);
  s.ctx_switches = static_cast<std::uint64_t>(self.ru_nvcsw) +
                   static_cast<std::uint64_t>(self.ru_nivcsw);
  s.write_syscalls = read_syscw();
  return s;
}

double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
