// The in-process workloads: decision checks on Emp instances with
// labeled nulls (→_M and the core), and AnalyzeMapping over bounded
// universes (what `rdx_cli analyze` runs).
#include <unistd.h>

#include <algorithm>
#include <optional>

#include "base/strings.h"
#include "core/core_computation.h"
#include "core/homomorphism.h"
#include "generator.h"
#include "layers.h"
#include "mapping/extended.h"
#include "mapping/mapping_io.h"
#include "mapping/report.h"

namespace rdxbench {
namespace {

using rdx::Instance;
using rdx::Result;
using rdx::SchemaMapping;
using rdx::Status;
using rdx::StrCat;

/// Step cap on each →_M homomorphism check. A homomorphism exists by
/// construction, so a check that exhausts the cap is an unanswered op.
constexpr uint64_t kHomStepCap = 100'000;

/// null_checks: for an Emp instance I with ~25% nulls in every position
/// and a copy I' with renamed nulls,
///   I →_M I'  as  chase_M(I) → chase_M(I')  (Prop 4.7; true), and
///   core(I ∪ I') has |core(I)| facts.
class NullChecks : public Workload {
 public:
  explicit NullChecks(const Config& config) : config_(config) {}

  Status Setup() override {
    const std::string path = config_.root + "/data/decomposition.rdx";
    RDX_ASSIGN_OR_RETURN(mapping_, rdx::LoadMappingFile(path));
    // Nulls are nearly all distinct, and the constant pools are small
    // enough that most nulls have several candidate images: about a fifth
    // of the checks exhaust the step cap at seed.
    const std::size_t count = config_.smoke ? 8 : 2048;
    NullEmpShape shape;
    shape.facts = config_.smoke ? 20 : 100;
    shape.null_share = 0.25;
    shape.employees = shape.facts;
    shape.depts = shape.facts * 3 / 10;
    shape.managers = shape.facts;
    shape.nulls = shape.facts * 10;
    for (std::size_t i = 0; i < count; ++i) {
      Rng rng = Rng::Stream(config_.seed, i);
      NullEmpPair pair = NullEmp(rng, shape, StrCat("i", i, "_"));
      Input in;
      in.both = Instance::Union(pair.original, pair.renamed);
      in.original = std::move(pair.original);
      in.renamed = std::move(pair.renamed);
      inputs_.push_back(std::move(in));
    }
    // Warm-up: one full op, untimed.
    OpOutcome warm = RunOp(0, nullptr);
    if (warm.failed) return Status::Internal(warm.error);
    return Status::OK();
  }

  OpOutcome RunOp(uint64_t k, Layers* layers) override {
    Input& in = inputs_[k % inputs_.size()];
    auto engine = [&](const char* name, auto&& f) -> decltype(f()) {
      if (layers == nullptr) return f();
      return layers->Engine(name, f);
    };
    rdx::HomomorphismOptions capped;
    capped.max_steps = kHomStepCap;

    OpOutcome out;
    if (layers != nullptr) layers->BeginOp(k);
    const uint64_t start = NowNs();
    const double instructions = SelfInstructions().Read();
    Result<Instance> c1 = engine("chase.chase", [&] {
      return rdx::ChaseMapping(mapping_, in.original);
    });
    Result<Instance> c2 = engine("chase.chase", [&] {
      return rdx::ChaseMapping(mapping_, in.renamed);
    });
    Result<bool> arrow = Status::Internal("chase failed");
    if (c1.ok() && c2.ok()) {
      arrow = engine("core.hom", [&] {
        return rdx::HasHomomorphism(*c1, *c2, capped);
      });
    }
    Result<Instance> core =
        engine("core.core", [&] { return rdx::ComputeCore(in.both); });
    out.instructions = SelfInstructions().Read() - instructions;
    out.latency_us = MicrosSince(start);
    if (layers != nullptr) layers->EndOp();

    const bool exhausted =
        !arrow.ok() &&
        arrow.status().code() == rdx::StatusCode::kResourceExhausted;
    if (layers != nullptr) {
      layers->Add("hom_checks", 1);
      layers->Add("hom_checks.exhausted", exhausted ? 1 : 0);
    }
    if (exhausted) {
      out.answered = false;
    } else if (!arrow.ok() || !*arrow) {
      out.failed = true;
      out.error = arrow.ok() ? "I ->_M rename(I) decided false"
                             : arrow.status().ToString();
    }
    if (!core.ok()) {
      out.failed = true;
      out.error = core.status().ToString();
    } else if (core->size() != ReferenceCoreSize(in)) {
      out.failed = true;
      out.error = StrCat("core(I u rename(I)) has ", core->size(),
                         " facts, core(I) has ", ReferenceCoreSize(in));
    }
    return out;
  }

  uint64_t PeakRssKb() override { return ReadVmHwmKb(getpid()); }

 private:
  struct Input {
    Instance original, renamed, both;
    std::optional<std::size_t> core_size;
  };

  static std::size_t ReferenceCoreSize(Input& in) {
    if (!in.core_size.has_value()) {
      Result<Instance> core = rdx::ComputeCore(in.original);
      in.core_size = core.ok() ? core->size() : 0;
    }
    return *in.core_size;
  }

  Config config_;
  SchemaMapping mapping_;
  std::vector<Input> inputs_;
};

/// The verdicts AnalyzeMapping gives on each universe, pinned.
struct Verdict {
  bool extended_invertible;
  bool recovery_synthesized;       // Thm 5.1: full, not extended invertible
  bool recovery_universal_faithful;
};

struct Universe {
  const char* mapping_file;
  std::size_t constants, nulls, max_facts;
  Verdict expected;
};

// selfloop and decomposition_reverse read as in the paper: selfloop
// (Thm 5.2) is not extended invertible and its synthesized maximum
// extended recovery is universal-faithful; decomposition_reverse is not
// extended invertible, and not full, so no recovery is synthesized.
// decomposition departs from the paper: it is not extended invertible
// (Example 1.1 loses the Emp join), but the witness needs two facts, so
// on this one-fact universe the tool reads it as extended invertible,
// and that is the verdict pinned here.
constexpr Universe kUniverses[] = {
    {"decomposition.rdx", 3, 1, 1, {true, false, false}},
    {"decomposition_reverse.rdx", 2, 1, 2, {false, false, false}},
    {"selfloop.rdx", 2, 1, 2, {false, true, true}},
};
constexpr std::size_t kNumUniverses = std::size(kUniverses);

/// analyze_universe: AnalyzeMapping over fixed bounded universes; the
/// seed sets the order within each pass over the three mappings.
class AnalyzeUniverse : public Workload {
 public:
  explicit AnalyzeUniverse(const Config& config) : config_(config) {}

  Status Setup() override {
    for (const Universe& u : kUniverses) {
      RDX_ASSIGN_OR_RETURN(
          SchemaMapping m,
          rdx::LoadMappingFile(StrCat(config_.root, "/data/", u.mapping_file)));
      mappings_.push_back(std::move(m));
    }
    // Warm-up: each analysis once, untimed, verdicts checked.
    for (std::size_t i = 0; i < kNumUniverses; ++i) {
      OpOutcome warm = Analyze(i, nullptr);
      if (warm.failed) return Status::Internal(warm.error);
    }
    return Status::OK();
  }

  OpOutcome RunOp(uint64_t k, Layers* layers) override {
    std::size_t order[kNumUniverses] = {0, 1, 2};
    Rng rng = Rng::Stream(config_.seed, k / kNumUniverses);
    for (std::size_t i = kNumUniverses; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    if (layers != nullptr) layers->BeginOp(k);
    OpOutcome out = Analyze(order[k % kNumUniverses], layers);
    if (layers != nullptr) layers->EndOp();
    return out;
  }

  uint64_t PeakRssKb() override { return ReadVmHwmKb(getpid()); }
  uint64_t PassOps() const override { return kNumUniverses; }

 private:
  OpOutcome Analyze(std::size_t i, Layers* layers) {
    const Universe& u = kUniverses[i];
    rdx::AnalyzeOptions options;
    options.universe_constants = u.constants;
    options.universe_nulls = u.nulls;
    options.universe_max_facts = u.max_facts;
    auto analyze = [&] { return rdx::AnalyzeMapping(mappings_[i], options); };

    OpOutcome out;
    out.kind = static_cast<int>(i);
    const uint64_t start = NowNs();
    const double instructions = SelfInstructions().Read();
    Result<rdx::InvertibilityReport> report =
        layers == nullptr ? analyze()
                          : layers->Engine("mapping.analyze", analyze);
    out.instructions = SelfInstructions().Read() - instructions;
    out.latency_us = MicrosSince(start);
    if (!report.ok()) {
      out.failed = true;
      out.error = report.status().ToString();
      return out;
    }
    const Verdict got{report->extended_invertible,
                      report->max_extended_recovery.has_value(),
                      report->recovery_universal_faithful.value_or(false)};
    if (got.extended_invertible != u.expected.extended_invertible ||
        got.recovery_synthesized != u.expected.recovery_synthesized ||
        got.recovery_universal_faithful !=
            u.expected.recovery_universal_faithful) {
      out.failed = true;
      out.error = StrCat(u.mapping_file, ": verdict (ext-inv ",
                         got.extended_invertible, ", recovery ",
                         got.recovery_synthesized, ", faithful ",
                         got.recovery_universal_faithful,
                         ") differs from the pinned verdict");
    }
    return out;
  }

  Config config_;
  std::vector<SchemaMapping> mappings_;
};

}  // namespace

std::unique_ptr<Workload> MakeNullChecks(const Config& config) {
  return std::make_unique<NullChecks>(config);
}

std::unique_ptr<Workload> MakeAnalyzeUniverse(const Config& config) {
  return std::make_unique<AnalyzeUniverse>(config);
}

}  // namespace rdxbench
