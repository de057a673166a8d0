#include "generator.h"

#include <vector>

#include "base/strings.h"
#include "core/fact.h"
#include "core/schema.h"

namespace rdxbench {

using rdx::Fact;
using rdx::Instance;
using rdx::Relation;
using rdx::StrCat;
using rdx::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng Rng::Stream(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return Rng(mix.Next());
}

NullEmpPair NullEmp(Rng& rng, const NullEmpShape& shape,
                    const std::string& tag) {
  const Relation emp = Relation::MustIntern("Emp", 3);
  const std::size_t pools[3] = {shape.employees, shape.depts, shape.managers};
  const char* prefixes[3] = {"e", "d", "m"};
  NullEmpPair out;
  for (std::size_t i = 0; i < shape.facts; ++i) {
    std::vector<Value> args, renamed;
    for (int pos = 0; pos < 3; ++pos) {
      if (rng.Chance(shape.null_share)) {
        const uint64_t null = rng.Below(shape.nulls);
        args.push_back(Value::MakeNull(StrCat(tag, "n", null)));
        renamed.push_back(Value::MakeNull(StrCat(tag, "r", null)));
      } else {
        Value c = Value::MakeConstant(
            StrCat(prefixes[pos], rng.Below(pools[pos])));
        args.push_back(c);
        renamed.push_back(c);
      }
    }
    out.original.AddFact(Fact::MustMake(emp, std::move(args)));
    out.renamed.AddFact(Fact::MustMake(emp, std::move(renamed)));
  }
  return out;
}

Instance SelfLoopTarget(Rng& rng, std::size_t facts, std::size_t loops,
                        const std::string& tag) {
  const Relation slpp = Relation::MustIntern("SlPp", 2);
  const uint64_t constants = facts / 2 + 2;
  auto value = [&]() {
    return rng.Chance(0.2)
               ? Value::MakeNull(StrCat(tag, "n", rng.Below(facts / 4 + 1)))
               : Value::MakeConstant(StrCat("s", rng.Below(constants)));
  };
  Instance out;
  while (out.size() < facts) {
    Value x = value();
    Value y = value();
    if (x != y) out.AddFact(Fact::MustMake(slpp, {x, y}));
  }
  for (std::size_t j = 0; j < loops; ++j) {
    Value c = Value::MakeConstant(StrCat("loop", j));
    out.AddFact(Fact::MustMake(slpp, {c, c}));
  }
  return out;
}

}  // namespace rdxbench
