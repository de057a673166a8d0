// rdxbench: set-up (several times, median reported), a closed
// loop of ops for --seconds, correctness checks on every op, and one
// JSON result line. Usage:
//
//   rdxbench --workload NAME --seed N --seconds S --trace 0|1
//            --root SRC --serve-bin BIN --prof-bin BIN [--commit SHA]
//   rdxbench --smoke --root SRC --serve-bin BIN --prof-bin BIN
//            [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs plain ops, ops
// that record spans into a Chrome trace (checked with rdx_prof
// --check-chrome), and ops that record the per-layer metrics, and prints
// those. Exit code 0 only when every op was correct.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/strings.h"
#include "base/trace.h"
#include "bench.h"
#include "layers.h"

namespace rdxbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ReadVmHwmKb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

namespace {

using rdx::StrCat;

/// The workloads, in BENCHMARK.json order.
constexpr struct {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Config&);
} kWorkloads[] = {
    {"reverse_exchange", MakeReverseExchange},
    {"null_checks", MakeNullChecks},
    {"analyze_universe", MakeAnalyzeUniverse},
};

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  for (const auto& w : kWorkloads) {
    if (config.workload == w.name) return w.make(config);
  }
  return nullptr;
}

/// Each end-to-end percentile needs >= 10 samples beyond p90.
constexpr uint64_t kMinOps = 100;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 9;
/// The traced run stops recording the Chrome trace past this size.
constexpr uintmax_t kTraceCapBytes = 48u << 20;

struct Phase {
  std::vector<OpOutcome> ops;
  uint64_t failed = 0;
  uint64_t answered = 0;
  std::string first_error;
};

bool AlwaysGo() { return true; }

// Runs ops k = first, first+1, ... until `seconds` have passed, at least
// `min_ops` ran and (with `whole_passes`) k starts a pass, but never past
// `deadline_ns` (a NowNs() time). `keep_going` may end the phase early by
// returning false.
Phase RunPhase(Workload& w, uint64_t first, double seconds, uint64_t min_ops,
               bool whole_passes, uint64_t deadline_ns, Layers* layers,
               const std::function<bool()>& keep_going = AlwaysGo) {
  Phase phase;
  const uint64_t start = NowNs();
  const uint64_t pass = whole_passes ? w.PassOps() : 1;
  for (uint64_t k = first;; ++k) {
    const double elapsed = MicrosSince(start) / 1e6;
    if ((elapsed >= seconds && phase.ops.size() >= min_ops &&
         k % pass == 0) ||
        NowNs() >= deadline_ns || !keep_going()) {
      break;
    }
    OpOutcome op = w.RunOp(k, layers);
    if (op.failed) {
      if (phase.failed++ == 0) phase.first_error = op.error;
    }
    if (op.answered) ++phase.answered;
    phase.ops.push_back(std::move(op));
  }
  return phase;
}

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> Latencies(const std::vector<OpOutcome>& ops) {
  std::vector<double> out;
  for (const OpOutcome& op : ops) out.push_back(op.latency_us);
  return out;
}

std::vector<double> Instructions(const std::vector<OpOutcome>& ops) {
  std::vector<double> out;
  for (const OpOutcome& op : ops) out.push_back(op.instructions);
  return out;
}

double Mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0 : total / static_cast<double>(v.size());
}

// Wall-clock latency and throughput of untraced ops. On a shared host
// they move with other tenants' load, so they are per-layer readings,
// not end-to-end metrics.
std::vector<Metric> WallClock(const std::vector<OpOutcome>& ops) {
  const std::vector<double> lat = Latencies(ops);
  const double mean_us = Mean(lat);
  return {
      {"base.latency_p50_ms", Percentile(lat, 0.5) / 1000, "ms"},
      {"base.latency_p90_ms", Percentile(lat, 0.9) / 1000, "ms"},
      {"base.ops_per_s", mean_us > 0 ? 1e6 / mean_us : 0, "1/s"},
  };
}

// Median over traced ops of (latency / untraced median of the same op
// kind), as a percentage above 1. Per kind, so a mix of cheap and dear
// ops cannot bias it.
double TraceOverheadPct(const std::vector<OpOutcome>& plain,
                        const std::vector<OpOutcome>& traced) {
  std::map<int, std::vector<double>> by_kind;
  for (const OpOutcome& op : plain) by_kind[op.kind].push_back(op.latency_us);
  std::map<int, double> median;
  for (auto& [kind, v] : by_kind) median[kind] = Percentile(v, 0.5);
  std::vector<double> ratios;
  for (const OpOutcome& op : traced) {
    auto it = median.find(op.kind);
    if (it != median.end() && it->second > 0) {
      ratios.push_back(op.latency_us / it->second);
    }
  }
  return ratios.empty() ? 0 : 100 * (Percentile(ratios, 0.5) - 1);
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrCat("{\"correct\": ", correct ? "true" : "false",
                           ", \"attempted\": ", attempted,
                           ", \"failed\": ", failed, ", \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += StrCat(i == 0 ? "" : ", ", JsonString(metrics[i].name),
                  ": {\"value\": ", Num(metrics[i].value),
                  ", \"unit\": ", JsonString(metrics[i].unit), "}");
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// Runs `argv` to completion; returns its exit code (-1 if it could not
// run or died by signal).
int RunChild(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    dup2(STDERR_FILENO, STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

struct Args {
  Config config;
  std::string commit = "unknown";
  std::string work_dir = ".";
};

int Usage() {
  std::fprintf(stderr,
               "usage: rdxbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --root SRC --serve-bin BIN --prof-bin BIN "
               "[--commit SHA] [--work-dir DIR] | --smoke ...\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  Config& c = args->config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      c.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--seed" && rdx::ParseUint64(value, &n)) {
      c.seed = n;
    } else if (flag == "--seconds" && rdx::ParseUint64(value, &n) && n > 0) {
      c.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      c.trace = value == "1";
    } else if (flag == "--root") {
      c.root = value;
    } else if (flag == "--serve-bin") {
      c.serve_bin = value;
    } else if (flag == "--prof-bin") {
      c.prof_bin = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !c.root.empty() && !c.serve_bin.empty() && !c.prof_bin.empty() &&
         (c.smoke || MakeWorkload(c) != nullptr);
}

// Paths handed to children and the daemon must survive the chdir into
// the work directory.
std::string Absolute(const std::string& path) {
  return std::filesystem::absolute(path).lexically_normal().string();
}

void PrintStamp(const Args& args) {
  const Config& c = args.config;
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s}}\n",
      JsonString(c.workload).c_str(), static_cast<unsigned long long>(c.seed),
      Num(c.seconds).c_str(), c.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(StrCat(RDXBENCH_COMPILER, " (", __VERSION__, ")")).c_str(),
      JsonString(RDXBENCH_BUILD_TYPE).c_str(), JsonString(args.commit).c_str());
}

// Sets the workload up `times` times (all but the last torn down),
// timing each, then readies the checks of the last one.
std::unique_ptr<Workload> SetUp(const Config& config, int times,
                                std::vector<double>* seconds) {
  std::unique_ptr<Workload> w;
  rdx::Status status;
  for (int r = 0; r < times && status.ok(); ++r) {
    w.reset();
    const uint64_t start = NowNs();
    w = MakeWorkload(config);
    status = w->Setup();
    seconds->push_back(MicrosSince(start) / 1e6);
  }
  if (status.ok()) status = w->PrepareChecks();
  if (!status.ok()) {
    std::fprintf(stderr, "rdxbench: %s set-up failed: %s\n",
                 config.workload.c_str(), status.ToString().c_str());
    return nullptr;
  }
  return w;
}

// Appends `more`'s ops and counts to `into`.
void Append(Phase* into, const Phase& more) {
  into->ops.insert(into->ops.end(), more.ops.begin(), more.ops.end());
  into->answered += more.answered;
  if (into->failed == 0) into->first_error = more.first_error;
  into->failed += more.failed;
}

struct TracedResult {
  Phase plain, traced, measured;
  std::vector<Metric> layer_metrics;
  bool trace_ok = false;
};

// The traced run, in three phases: plain ops for 30% of the time (the
// untraced baseline); ops recorded into a Chrome trace for up to 20%,
// ending early when the file reaches kTraceCapBytes; and ops with
// per-layer accounting and no trace sink for the rest. The per-layer
// metrics come from the last phase alone: the engines' own spans cost
// from <10% to >1000% per op while a sink is installed.
TracedResult RunTraced(Workload& w, const Config& config,
                       const std::string& trace_path, uint64_t deadline_ns) {
  TracedResult r;
  const uint64_t min_ops = config.smoke ? 2 : 20;
  const uint64_t start = NowNs();
  r.plain = RunPhase(w, 0, 0.3 * config.seconds, min_ops, false, deadline_ns,
                     nullptr);
  rdx::obs::SetTraceProcessName("rdxbench");
  if (!rdx::obs::InstallChromeTraceFile(trace_path).ok()) return r;
  Layers spans_only;
  r.traced = RunPhase(w, r.plain.ops.size(), 0.2 * config.seconds, 1, false,
                      deadline_ns, &spans_only, [&] {
                        std::error_code ec;
                        return std::filesystem::file_size(trace_path, ec) <=
                               kTraceCapBytes;
                      });
  rdx::obs::UninstallTraceSink();
  Layers layers;
  r.measured = RunPhase(w, r.plain.ops.size() + r.traced.ops.size(),
                        config.seconds - MicrosSince(start) / 1e6, min_ops,
                        false, deadline_ns, &layers);
  r.layer_metrics = layers.Finish(r.measured.ops.size(),
                                  TraceOverheadPct(r.plain.ops, r.traced.ops));
  for (Metric& m : WallClock(r.plain.ops)) {
    r.layer_metrics.push_back(std::move(m));
  }
  r.trace_ok = RunChild({config.prof_bin, "--check-chrome", trace_path}) == 0;
  if (!r.trace_ok) {
    std::fprintf(stderr, "rdxbench: rdx_prof --check-chrome rejected %s\n",
                 trace_path.c_str());
  }
  return r;
}

uint64_t DeadlineAfter(double seconds) {
  return NowNs() + static_cast<uint64_t>(seconds * 1e9);
}

int RunSmoke(const Config& base) {
  int ok = 0;
  for (const auto& entry : kWorkloads) {
    const std::string name = entry.name;
    Config config = base;
    config.workload = name;
    config.seconds = 0.01;
    std::vector<double> setup;
    std::unique_ptr<Workload> w = SetUp(config, 1, &setup);
    if (w == nullptr) continue;
    const uint64_t deadline = DeadlineAfter(60);
    Phase all = RunPhase(*w, 0, 0, 3, false, deadline, nullptr);
    TracedResult traced =
        RunTraced(*w, config, StrCat("smoke-", name, ".json"), deadline);
    Append(&all, traced.plain);
    Append(&all, traced.traced);
    Append(&all, traced.measured);
    std::printf("smoke %s: %zu op(s), %llu failed, trace %s%s%s\n",
                name.c_str(), all.ops.size(),
                static_cast<unsigned long long>(all.failed),
                traced.trace_ok ? "ok" : "REJECTED",
                all.first_error.empty() ? "" : ": ", all.first_error.c_str());
    if (all.failed == 0 && traced.trace_ok) ++ok;
  }
  std::printf("smoke: %d workload(s) ok of %zu\n", ok, std::size(kWorkloads));
  return ok == static_cast<int>(std::size(kWorkloads)) ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  Config& config = args.config;
  config.root = Absolute(config.root);
  config.serve_bin = Absolute(config.serve_bin);
  config.prof_bin = Absolute(config.prof_bin);
  std::filesystem::create_directories(args.work_dir);
  if (chdir(args.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "rdxbench: cannot enter %s\n", args.work_dir.c_str());
    return 1;
  }
  if (rdx::Status counted = SelfInstructions().Open(0, false); !counted.ok()) {
    std::fprintf(stderr, "rdxbench: %s\n", counted.ToString().c_str());
    return 1;
  }
  if (config.smoke) return RunSmoke(config);

  PrintStamp(args);
  // Ops stop here even if fewer than kMinOps ran, so a run ends well
  // within 180 s on any machine.
  const uint64_t deadline = DeadlineAfter(std::max(config.seconds, 120.0));
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> w = SetUp(config, kSetups, &setup_seconds);
  if (w == nullptr) return 1;

  std::vector<Metric> metrics;
  Phase all;
  bool trace_ok = true;
  if (!config.trace) {
    // Peak RSS is read after exactly kMinOps ops: fresh nulls and
    // interned values grow with the ops served, so a reading at the end
    // would grow with throughput.
    const uint64_t start = NowNs();
    all = RunPhase(*w, 0, 0, kMinOps, false, deadline, nullptr);
    const uint64_t peak_rss_kb = w->PeakRssKb();
    Append(&all, RunPhase(*w, all.ops.size(),
                          config.seconds - MicrosSince(start) / 1e6, 0, true,
                          deadline, nullptr));
    // Work per op is counted in retired instructions, in millions.
    std::vector<double> minstr = Instructions(all.ops);
    for (double& v : minstr) v /= 1e6;
    const double ops = static_cast<double>(all.ops.size());
    metrics = {
        {"op_minstr_p50", Percentile(minstr, 0.5), "Minstr"},
        {"op_minstr_p90", Percentile(minstr, 0.9), "Minstr"},
        {"op_minstr_mean", Mean(minstr), "Minstr"},
        {"answered_pct", ops > 0 ? 100.0 * all.answered / ops : 0, "%"},
        {"setup_s", Percentile(setup_seconds, 0.5), "s"},
        {"peak_rss_mb", peak_rss_kb / 1024.0, "MB"},
    };
  } else {
    TracedResult r = RunTraced(
        *w, config, StrCat("trace-", config.workload, ".json"), deadline);
    Append(&all, r.plain);
    Append(&all, r.traced);
    Append(&all, r.measured);
    trace_ok = r.trace_ok;
    metrics = std::move(r.layer_metrics);
  }
  w.reset();  // stops the daemon before the result line
  if (all.failed > 0) {
    std::fprintf(stderr, "rdxbench: %llu of %zu op(s) failed; first: %s\n",
                 static_cast<unsigned long long>(all.failed), all.ops.size(),
                 all.first_error.c_str());
  }
  const bool correct = all.failed == 0 && trace_ok && !all.ops.empty();
  PrintResult(correct, all.ops.size(), all.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rdxbench

int main(int argc, char** argv) { return rdxbench::Main(argc, argv); }
