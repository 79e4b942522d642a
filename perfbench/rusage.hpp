// rusage.hpp — CPU time and peak memory of this process and its children.
#pragma once

#include <sys/resource.h>

namespace perfbench {

/// User + system seconds of `who` (RUSAGE_SELF covers every thread of
/// this process; RUSAGE_CHILDREN every child that has been waited for).
inline double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Self plus children: what a repetition that spawns workers costs.
inline double TotalCpuSeconds() {
  return CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
}

/// Peak resident set in MiB: this process's high-water mark plus that of
/// its largest waited-for child.
inline double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
