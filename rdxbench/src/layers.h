// Per-layer accounting for the traced run: each layer call the benchmark
// makes is timed, wrapped in an obs::Span (nested under one "bench.op"
// span per op, every span carrying the op number), and — for calls into
// the engines — charged with the deltas of the engines' own obs counters.
#ifndef RDXBENCH_LAYERS_H_
#define RDXBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/spans.h"
#include "bench.h"

namespace rdxbench {

/// One metric of the result line: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Layers {
 public:
  Layers() = default;

  /// Opens / closes the per-op parent span.
  void BeginOp(uint64_t op);
  void EndOp();

  /// Times `f` as the layer call `name` ("serve.roundtrip", ...): a
  /// "bench.<name>" span, and the elapsed time added to the sum <name>.
  template <typename F>
  decltype(auto) Time(const char* name, F&& f) {
    rdx::obs::Span span(std::string("bench.") + name);
    span.Arg("op", op_);
    Charge charge{this, name, NowNs()};
    return f();
  }

  /// As Time(), and charges the call with the deltas of the engine
  /// counters (chase.*, dchase.*, match.*, hom.*, core.*).
  template <typename F>
  decltype(auto) Engine(const char* name, F&& f) {
    EngineDelta delta{this, Take()};
    return Time(name, std::forward<F>(f));
  }

  /// Adds `v` to the named sum (bytes encoded, bounds, hom checks, ...).
  void Add(const std::string& name, double v) { sums_[name] += v; }

  /// Every per-layer metric over `ops` ops, in BENCHMARK.json order.
  /// A layer the workload never reaches reads 0.
  std::vector<Metric> Finish(uint64_t ops, double trace_overhead_pct) const;

 private:
  using Snapshot = std::vector<uint64_t>;
  struct Charge {
    Layers* self;
    const char* name;
    uint64_t start_ns;
    ~Charge() { self->sums_[name] += MicrosSince(start_ns); }
  };
  struct EngineDelta {
    Layers* self;
    Snapshot before;
    ~EngineDelta() { self->ChargeEngine(before, Take()); }
  };
  static Snapshot Take();
  void ChargeEngine(const Snapshot& before, const Snapshot& after);
  double Sum(const std::string& name) const;

  uint64_t op_ = 0;
  std::unique_ptr<rdx::obs::Span> op_span_;
  std::map<std::string, double> sums_;
};

}  // namespace rdxbench

#endif  // RDXBENCH_LAYERS_H_
