// rdxbench — end-to-end benchmark of RDX: served reverse exchange over
// rdx_serve, decision checks on instances with labeled nulls, and
// bounded-universe analysis. See rdxbench/README.md.
#ifndef RDXBENCH_BENCH_H_
#define RDXBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/status.h"

namespace rdxbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      // tiny inputs, all checks on
  std::string root;        // RDX source tree (data/serve.catalog, mappings)
  std::string serve_bin;   // rdx_serve built from that tree
  std::string prof_bin;    // rdx_prof, for --check-chrome on the trace
};

class Layers;

/// Outcome of one measured operation. `latency_us` and `instructions`
/// cover only the work the system under test does for the op; checks run
/// outside them.
struct OpOutcome {
  double latency_us = 0;
  /// User-space instructions retired for the op, by every process doing
  /// its work (the daemon and this client, or this process).
  double instructions = 0;
  /// Op kind (request type or mapping), for per-kind trace overhead.
  int kind = 0;
  /// False when a step cap cut the op short (null_checks only): the op
  /// was attempted but not answered. Not a failure.
  bool answered = true;
  /// A rejection, an engine error, or an answer that differs from the
  /// reference. Any failure makes the run incorrect.
  bool failed = false;
  std::string error;
};

/// One workload: Setup() does everything setup_s counts (catalog load,
/// plan compilation, input generation, server start, warm-up); then
/// PrepareChecks(), untimed, readies what only the checks and the traced
/// run use. RunOp(k) runs and checks op k. With `layers` non-null the op
/// also records the per-layer metrics and spans (the traced run).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual rdx::Status Setup() = 0;
  virtual rdx::Status PrepareChecks() { return rdx::Status::OK(); }
  virtual OpOutcome RunOp(uint64_t k, Layers* layers) = 0;
  /// Ops k run over a pool of inputs in passes of this many (k = 0 starts
  /// one). A timed run ends at a pass boundary, so every input of the
  /// pool weighs alike in the percentiles whatever the host's speed.
  virtual uint64_t PassOps() const { return 1; }
  /// Peak resident set of the process doing the work, in KiB: the
  /// daemon for served workloads, this process otherwise.
  virtual uint64_t PeakRssKb() = 0;
};

std::unique_ptr<Workload> MakeReverseExchange(const Config& config);
std::unique_ptr<Workload> MakeNullChecks(const Config& config);
std::unique_ptr<Workload> MakeAnalyzeUniverse(const Config& config);

/// Steady-clock time in nanoseconds, and microseconds elapsed since such
/// a reading.
uint64_t NowNs();
inline double MicrosSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1000.0;
}

/// VmHWM of /proc/<pid>/status in KiB (0 when unreadable).
uint64_t ReadVmHwmKb(long pid);

/// User-space instructions retired by a process and by every thread it
/// starts after Open(), from the CPU's performance counters
/// (perf_event_open). Unlike time, the count does not move when other
/// tenants of a shared host contend for its caches and cores.
class InstructionCounter {
 public:
  InstructionCounter() = default;
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  /// Counts process `pid` (0: this one); with `from_exec`, from its next
  /// exec on.
  rdx::Status Open(long pid, bool from_exec);
  /// The count so far (0 before Open()).
  double Read() const;

 private:
  int fd_ = -1;
};

/// This process's counter; Main() opens it before any workload runs.
InstructionCounter& SelfInstructions();

}  // namespace rdxbench

#endif  // RDXBENCH_BENCH_H_
