//===- perfbench/src/Inputs.h - Seeded benchmark inputs ---------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark feeds the program is generated here from the
/// workload seed and nothing else: the corpus order of the compile rounds,
/// the stress-program seeds, and the serve workload's request schedule with
/// its renamed miss sources. The same seed gives byte-identical inputs on
/// every host (a hand-rolled generator, not <random>, whose distributions
/// are implementation-defined).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast, and fully specified.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }

private:
  uint64_t State;
};

/// One kernel of the corpus (driver/Kernels.h).
struct CorpusKernel {
  const char *Name;
  const char *Source;
  /// One of the six kernels of the paper's Section 7 figures (E1-E6).
  bool Paper;
};

/// The 15 corpus kernels, in a fixed order.
const std::vector<CorpusKernel> &corpus();

/// A seeded permutation of 0..N-1 (Fisher-Yates).
std::vector<unsigned> permutation(unsigned N, Rng &R);

/// Seeds for generateStressProgram, derived from the workload seed.
std::vector<unsigned long long> stressSeeds(uint64_t Seed, unsigned Count);

/// Names used as arrays in Source (identifiers directly followed by '['),
/// in order of first appearance.
std::vector<std::string> arrayNames(const std::string &Source);

/// Source with every whole-identifier occurrence of From replaced by To.
std::string renameIdentifier(const std::string &Source, const std::string &From,
                             const std::string &To);

/// One request of the serve workload's open-loop schedule.
struct PlannedRequest {
  /// Seconds after the start of the schedule.
  double DueS = 0;
  /// Corpus index of the kernel.
  unsigned Kernel = 0;
  /// A cold miss: the kernel with one array renamed, so its cache key is
  /// new. Otherwise a warm hit on the prewarmed kernel.
  bool Miss = false;
  /// The source to send (the corpus source for hits).
  std::string Source;
  /// Connection index (requests alternate over the connections).
  unsigned Conn = 0;
};

/// Fixed-rate schedule of Rate requests per second for SpanS seconds over
/// Conns connections. Misses requests, evenly spaced from a seeded offset,
/// are misses; they walk a seeded permutation of the corpus, so a whole
/// number of cycles holds the same mix of miss kernels in every run. Hits
/// pick a corpus kernel uniformly. Tag makes the renamed arrays of two
/// schedules drawn in one process distinct.
std::vector<PlannedRequest> planTraffic(uint64_t Seed, double Rate,
                                        double SpanS, unsigned Misses,
                                        unsigned Conns, const std::string &Tag);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
