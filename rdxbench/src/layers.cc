#include "layers.h"

#include "base/metrics.h"

namespace rdxbench {

namespace obs = rdx::obs;

namespace {

// Engine counters read around every Engine() call, in Snapshot order;
// the last slot is the chase's zero-fact-round count (bucket 0 of the
// chase.round.facts histogram).
constexpr const char* kCounters[] = {
    "chase.us",  "chase.rounds", "chase.runs",   "chase.facts_added",
    "match.candidates", "dchase.us", "dchase.steps", "dchase.runs",
    "hom.us",    "hom.steps",    "hom.backtracks", "hom.searches",
    "core.us",   "core.masked_attempts"};
constexpr std::size_t kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);
constexpr std::size_t kEmptyRounds = kNumCounters;

enum : std::size_t {
  kChaseRuns = 2,
  kChaseFacts = 3,
  kCandidates = 4,
  kDchaseSteps = 6,
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Layers::BeginOp(uint64_t op) {
  op_ = op;
  op_span_ = std::make_unique<obs::Span>("bench.op");
  op_span_->Arg("op", op);
}

void Layers::EndOp() { op_span_.reset(); }

Layers::Snapshot Layers::Take() {
  static const std::vector<obs::Counter*> counters = [] {
    std::vector<obs::Counter*> out;
    for (const char* name : kCounters) out.push_back(&obs::Counter::Get(name));
    return out;
  }();
  static obs::Histogram& round_facts =
      obs::Histogram::Get("chase.round.facts");
  Snapshot s(kNumCounters + 1);
  for (std::size_t i = 0; i < kNumCounters; ++i) s[i] = counters[i]->value();
  s[kEmptyRounds] = round_facts.bucket(0);
  return s;
}

void Layers::ChargeEngine(const Snapshot& before, const Snapshot& after) {
  Snapshot d(after.size());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = after[i] - before[i];
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    sums_[std::string("ctr.") + kCounters[i]] += static_cast<double>(d[i]);
  }
  sums_["ctr.empty_rounds"] += static_cast<double>(d[kEmptyRounds]);
  // Match candidates go to the chase or the disjunctive chase by which
  // of the two the call ran; a call that ran both (AnalyzeMapping on a
  // mapping whose recovery is disjunctive) feeds neither ratio.
  const double candidates = static_cast<double>(d[kCandidates]);
  if (d[kDchaseSteps] == 0) {
    sums_["chase.candidates"] += candidates;
    sums_["chase.candidate_facts"] += static_cast<double>(d[kChaseFacts]);
  } else if (d[kChaseRuns] == 0) {
    sums_["dchase.candidates"] += candidates;
    sums_["dchase.candidate_steps"] += static_cast<double>(d[kDchaseSteps]);
  }
}

double Layers::Sum(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

std::vector<Metric> Layers::Finish(uint64_t ops,
                                   double trace_overhead_pct) const {
  const double n = static_cast<double>(ops == 0 ? 1 : ops);
  auto per_op = [&](const std::string& sum) { return Sum(sum) / n; };
  const double plan_gets = Sum("serve.plan_hits") + Sum("serve.plan_misses");
  return {
      {"chase.chase_us", per_op("ctr.chase.us"), "us"},
      {"chase.rounds_per_op", per_op("ctr.chase.rounds"), "count"},
      {"chase.empty_rounds_per_op", per_op("ctr.empty_rounds"), "count"},
      {"chase.match_candidates_per_fact",
       Ratio(Sum("chase.candidates"), Sum("chase.candidate_facts")), "ratio"},
      {"chase.dchase_us", per_op("ctr.dchase.us"), "us"},
      {"chase.dchase_steps_per_op", per_op("ctr.dchase.steps"), "count"},
      {"chase.dchase_candidates_per_step",
       Ratio(Sum("dchase.candidates"), Sum("dchase.candidate_steps")),
       "ratio"},
      {"core.hom_us", per_op("ctr.hom.us"), "us"},
      {"core.hom_steps_per_op", per_op("ctr.hom.steps"), "count"},
      {"core.hom_backtracks_per_op", per_op("ctr.hom.backtracks"), "count"},
      {"core.hom_budget_exhausted",
       100 * Ratio(Sum("hom_checks.exhausted"), Sum("hom_checks")), "%"},
      {"core.core_us", per_op("ctr.core.us"), "us"},
      {"core.core_masked_attempts_per_op",
       per_op("ctr.core.masked_attempts"), "count"},
      {"core.query_eval_us", per_op("core.query_eval"), "us"},
      {"core.render_us", per_op("core.render"), "us"},
      {"columnar.encode_us", per_op("columnar.encode"), "us"},
      {"columnar.decode_us", per_op("columnar.decode"), "us"},
      {"columnar.bytes_per_fact",
       Ratio(Sum("columnar.bytes"), Sum("columnar.facts")), "B/fact"},
      {"serve.frame_us", per_op("serve.frame"), "us"},
      {"serve.roundtrip_us", per_op("serve.roundtrip"), "us"},
      {"serve.plan_get_us", per_op("serve.plan_get"), "us"},
      {"serve.plan_hit_ratio", Ratio(Sum("serve.plan_hits"), plan_gets),
       "ratio"},
      {"analysis.fact_bound_us", per_op("analysis.fact_bound"), "us"},
      {"analysis.bound_slack",
       Ratio(Sum("analysis.bound"), Sum("analysis.facts_produced")), "ratio"},
      {"mapping.certain_us", per_op("mapping.certain"), "us"},
      {"mapping.analyze_us", per_op("mapping.analyze"), "us"},
      {"mapping.chase_runs_per_op",
       (Sum("ctr.chase.runs") + Sum("ctr.dchase.runs")) / n, "count"},
      {"mapping.hom_searches_per_op", per_op("ctr.hom.searches"), "count"},
      {"base.trace_overhead_pct", trace_overhead_pct, "%"},
  };
}

}  // namespace rdxbench
