// The benchmark's own input generator. Every input is a pure function of
// the workload seed; the system under test only sees the results.
#ifndef RDXBENCH_GENERATOR_H_
#define RDXBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/instance.h"

namespace rdxbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n), n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
  /// A generator for sub-stream `stream` of this seed.
  static Rng Stream(uint64_t seed, uint64_t stream);

 private:
  uint64_t state_;
};

/// Shape of an Emp instance with labeled nulls.
struct NullEmpShape {
  std::size_t facts = 100;
  double null_share = 0.25;   // chance that a position holds a null
  std::size_t employees = 50; // constant pools per position
  std::size_t depts = 10;
  std::size_t managers = 25;
  std::size_t nulls = 20;     // distinct null labels to draw from
};

/// An Emp instance with nulls, and a copy whose nulls carry other labels
/// (an isomorphic copy, so a homomorphism exists both ways by
/// construction). `tag` keeps labels of different instances apart.
struct NullEmpPair {
  rdx::Instance original;
  rdx::Instance renamed;
};
NullEmpPair NullEmp(Rng& rng, const NullEmpShape& shape,
                    const std::string& tag);

/// `facts` SlPp(x, y) facts with x != y over constants and labeled nulls,
/// plus `loops` self-loops SlPp(c, c) on distinct constants — the input
/// whose reverse exchange under Theorem 5.2's recovery has 2^loops worlds.
rdx::Instance SelfLoopTarget(Rng& rng, std::size_t facts, std::size_t loops,
                             const std::string& tag);

}  // namespace rdxbench

#endif  // RDXBENCH_GENERATOR_H_
