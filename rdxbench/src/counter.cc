#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/strings.h"
#include "bench.h"

namespace rdxbench {

InstructionCounter::~InstructionCounter() {
  if (fd_ >= 0) close(fd_);
}

rdx::Status InstructionCounter::Open(long pid, bool from_exec) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;  // threads started later count too
  attr.disabled = from_exec ? 1 : 0;
  attr.enable_on_exec = from_exec ? 1 : 0;
  const long fd = syscall(SYS_perf_event_open, &attr, static_cast<pid_t>(pid),
                          -1, -1, 0);
  if (fd < 0) {
    return rdx::Status::Internal(rdx::StrCat(
        "perf_event_open(instructions, pid ", pid, "): ", strerror(errno),
        " (the benchmark counts retired instructions with the CPU's "
        "performance counters)"));
  }
  fd_ = static_cast<int>(fd);
  return rdx::Status::OK();
}

double InstructionCounter::Read() const {
  uint64_t v[3] = {0, 0, 0};  // value, time enabled, time running
  if (fd_ < 0 || read(fd_, v, sizeof(v)) != sizeof(v)) return 0;
  // Scaled up if the counter shared the PMU with others for a while.
  if (v[2] == 0) return 0;
  return static_cast<double>(v[0]) * (static_cast<double>(v[1]) /
                                      static_cast<double>(v[2]));
}

InstructionCounter& SelfInstructions() {
  static InstructionCounter counter;
  return counter;
}

}  // namespace rdxbench
