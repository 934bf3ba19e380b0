// Experiment F2 (EXPERIMENTS.md): the Requirements Elicitor (paper Fig. 2 /
// §2.1) — suggestion quality on the TPC-H ontology and suggestion latency
// as the domain ontology grows (the demo claim is interactive assistance).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/prng.h"
#include "common/timer.h"
#include "ontology/tpch_ontology.h"
#include "requirements/elicitor.h"

namespace {

using quarry::ontology::Multiplicity;
using quarry::ontology::Ontology;
using quarry::req::Elicitor;

/// "C<i>", the id of synthetic concept i. Appends: GCC 12 reports a false
/// -Wrestrict on `"C" + std::to_string(i)`.
std::string ConceptId(int64_t i) {
  return std::string("C").append(std::to_string(i));
}

/// Synthetic ontology: a functional "galaxy" — `n` concepts, each with a
/// couple of numeric + descriptive properties, chained into rollup spines
/// with random extra to-one shortcuts (shape of a real enterprise model).
Ontology SyntheticOntology(int n, uint64_t seed) {
  quarry::Prng rng(seed);
  Ontology onto("synthetic_" + std::to_string(n));
  for (int i = 0; i < n; ++i) {
    std::string id = ConceptId(i);
    if (!onto.AddConcept(id).ok()) std::abort();
    (void)onto.AddDataProperty(id, "amount",
                               quarry::storage::DataType::kDouble);
    (void)onto.AddDataProperty(id, "name",
                               quarry::storage::DataType::kString);
  }
  // Spine: Ci -> C(i/2) (tree of rollups toward C0).
  for (int i = 1; i < n; ++i) {
    std::string from = ConceptId(i);
    std::string to = ConceptId(i / 2);
    (void)onto.AddAssociation(std::string("a").append(std::to_string(i)),
                              from, to,
                              Multiplicity::kManyToOne);
  }
  // Shortcuts.
  for (int i = 0; i < n / 2; ++i) {
    int from = static_cast<int>(rng.Uniform(1, n - 1));
    int to = static_cast<int>(rng.Uniform(0, from - 1));
    (void)onto.AddAssociation(std::string("s").append(std::to_string(i)),
                              ConceptId(from), ConceptId(to),
                              Multiplicity::kManyToOne);
  }
  return onto;
}

void PrintSeries() {
  std::printf("F2: Requirements Elicitor suggestions\n");
  // Part 1: the paper's example — focus Lineitem on the TPC-H ontology.
  Ontology tpch = quarry::ontology::BuildTpchOntology();
  Elicitor elicitor(&tpch);
  std::printf("  TPC-H, focus=Lineitem, suggested dimensions "
              "(paper: Supplier, Nation, Part...):\n");
  auto dims = elicitor.SuggestDimensions("Lineitem");
  if (!dims.ok()) std::abort();
  for (const auto& d : *dims) {
    std::printf("    %-10s hops=%d score=%.2f attrs=%zu\n",
                d.concept_id.c_str(), d.hops, d.score,
                d.descriptive_properties.size());
  }
  // Part 2: latency vs ontology size.
  std::printf("  latency vs ontology size (leaf focus, all suggestions):\n");
  std::printf("  %8s %10s %12s %12s\n", "concepts", "reachable",
              "dims_us", "facts_us");
  for (int n : {8, 32, 128, 512, 2048}) {
    Ontology onto = SyntheticOntology(n, 5);
    Elicitor e(&onto);
    std::string focus = ConceptId(n - 1);
    quarry::Timer t1;
    auto suggestions = e.SuggestDimensions(focus);
    double dims_us = t1.ElapsedMicros();
    if (!suggestions.ok()) std::abort();
    quarry::Timer t2;
    auto facts = e.SuggestFacts();
    double facts_us = t2.ElapsedMicros();
    std::printf("  %8d %10zu %12.1f %12.1f\n", n, suggestions->size(),
                dims_us, facts_us);
  }
  std::printf("\n");
}

void BM_SuggestDimensionsTpch(benchmark::State& state) {
  Ontology onto = quarry::ontology::BuildTpchOntology();
  Elicitor elicitor(&onto);
  for (auto _ : state) {
    auto dims = elicitor.SuggestDimensions("Lineitem");
    if (!dims.ok()) std::abort();
    benchmark::DoNotOptimize(dims->size());
  }
}
BENCHMARK(BM_SuggestDimensionsTpch);

void BM_SuggestFactsTpch(benchmark::State& state) {
  Ontology onto = quarry::ontology::BuildTpchOntology();
  Elicitor elicitor(&onto);
  for (auto _ : state) {
    auto facts = elicitor.SuggestFacts();
    benchmark::DoNotOptimize(facts.size());
  }
}
BENCHMARK(BM_SuggestFactsTpch);

void BM_SuggestDimensionsSynthetic(benchmark::State& state) {
  Ontology onto = SyntheticOntology(static_cast<int>(state.range(0)), 5);
  Elicitor elicitor(&onto);
  std::string focus = ConceptId(state.range(0) - 1);
  for (auto _ : state) {
    auto dims = elicitor.SuggestDimensions(focus);
    if (!dims.ok()) std::abort();
    benchmark::DoNotOptimize(dims->size());
  }
  state.counters["concepts"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SuggestDimensionsSynthetic)->Arg(32)->Arg(128)->Arg(512);

void BM_BuildRequirementValidated(benchmark::State& state) {
  Ontology onto = quarry::ontology::BuildTpchOntology();
  Elicitor elicitor(&onto);
  for (auto _ : state) {
    auto ir = elicitor.BuildRequirement(
        "ir", "r", "Lineitem",
        {{"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
          quarry::md::AggFunc::kSum}},
        {{"Part.p_name"}, {"Supplier.s_name"}},
        {{"Nation.n_name", "=", "SPAIN"}});
    if (!ir.ok()) std::abort();
    benchmark::DoNotOptimize(ir->aggregations.size());
  }
}
BENCHMARK(BM_BuildRequirementValidated);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
