//===- perfbench/src/Inputs.cpp - Seeded benchmark inputs -----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "driver/Kernels.h"

#include <algorithm>
#include <cctype>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

const std::vector<CorpusKernel> &perfbench::corpus() {
  namespace k = pluto::kernels;
  static const std::vector<CorpusKernel> C = {
      {"Jacobi1D", k::Jacobi1D, true},     {"Fdtd2D", k::Fdtd2D, true},
      {"LU", k::LU, true},                 {"MVT", k::MVT, true},
      {"Seidel2D", k::Seidel2D, true},     {"MatMul", k::MatMul, true},
      {"Sweep2D", k::Sweep2D, false},      {"Jacobi2D", k::Jacobi2D, false},
      {"Gemver", k::Gemver, false},        {"Trmm", k::Trmm, false},
      {"Syrk", k::Syrk, false},            {"Doitgen", k::Doitgen, false},
      {"Atax", k::Atax, false},            {"DotProduct", k::DotProduct, false},
      {"MatVecT", k::MatVecT, false},
  };
  return C;
}

std::vector<unsigned> perfbench::permutation(unsigned N, Rng &R) {
  std::vector<unsigned> P(N);
  for (unsigned I = 0; I < N; ++I)
    P[I] = I;
  for (unsigned I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

std::vector<unsigned long long> perfbench::stressSeeds(uint64_t Seed,
                                                       unsigned Count) {
  Rng R(Seed ^ 0x5354524553532d31ull);
  std::vector<unsigned long long> S;
  for (unsigned I = 0; I < Count; ++I)
    S.push_back(R.next() >> 16);
  return S;
}

static bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

std::vector<std::string> perfbench::arrayNames(const std::string &Source) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < Source.size(); ++I) {
    if (!isIdentChar(Source[I]) || (I > 0 && isIdentChar(Source[I - 1])) ||
        std::isdigit(static_cast<unsigned char>(Source[I])))
      continue;
    size_t E = I;
    while (E < Source.size() && isIdentChar(Source[E]))
      ++E;
    if (E < Source.size() && Source[E] == '[') {
      std::string Name = Source.substr(I, E - I);
      bool Seen = false;
      for (const std::string &N : Names)
        Seen |= N == Name;
      if (!Seen)
        Names.push_back(Name);
    }
    I = E;
  }
  return Names;
}

std::string perfbench::renameIdentifier(const std::string &Source,
                                        const std::string &From,
                                        const std::string &To) {
  std::string Out;
  size_t I = 0;
  while (I < Source.size()) {
    if (isIdentChar(Source[I]) && (I == 0 || !isIdentChar(Source[I - 1]))) {
      size_t E = I;
      while (E < Source.size() && isIdentChar(Source[E]))
        ++E;
      std::string Word = Source.substr(I, E - I);
      Out += Word == From ? To : Word;
      I = E;
      continue;
    }
    Out += Source[I++];
  }
  return Out;
}

std::vector<PlannedRequest>
perfbench::planTraffic(uint64_t Seed, double Rate, double SpanS,
                       unsigned Misses, unsigned Conns,
                       const std::string &Tag) {
  Rng R(Seed ^ 0x5345525645ull);
  const auto &C = corpus();
  unsigned NumKernels = static_cast<unsigned>(C.size());
  std::vector<unsigned> MissOrder = permutation(NumKernels, R);
  size_t N = static_cast<size_t>(Rate * SpanS + 0.5);
  std::vector<PlannedRequest> Plan(N);
  size_t Spacing = Misses ? std::max<size_t>(1, N / Misses) : 0;
  size_t Offset = Spacing ? R.below(static_cast<unsigned>(Spacing)) : 0;
  unsigned Planned = 0;
  for (size_t I = 0; I < N; ++I) {
    PlannedRequest &P = Plan[I];
    P.DueS = static_cast<double>(I) / Rate;
    P.Conn = static_cast<unsigned>(I % Conns);
    if (Planned < Misses && I % Spacing == Offset) {
      P.Miss = true;
      P.Kernel = MissOrder[Planned % NumKernels];
      std::vector<std::string> Arrays = arrayNames(C[P.Kernel].Source);
      const std::string &Old = Arrays[R.below(static_cast<unsigned>(Arrays.size()))];
      P.Source = renameIdentifier(C[P.Kernel].Source, Old,
                                  Old + "_" + Tag + std::to_string(Planned));
      ++Planned;
    } else {
      P.Kernel = R.below(NumKernels);
      P.Source = C[P.Kernel].Source;
    }
  }
  return Plan;
}
