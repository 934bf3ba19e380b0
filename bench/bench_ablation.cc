// Ablation experiments for the design choices DESIGN.md §4 calls out:
//  A1  equivalence-rule alignment in the ETL Process Integrator
//      (on vs off: how much operator reuse does alignment buy?)
//  A2  hierarchy folding in the MD Schema Integrator
//      (on vs off: structural complexity of the unified schema)
//  A3  selection push-down (the flagship equivalence rule)
//      (normalized vs as-generated flows: engine rows processed)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "datagen/tpch.h"
#include "etl/equivalence.h"
#include "etl/exec/executor.h"
#include "integrator/etl_integrator.h"
#include "integrator/md_integrator.h"
#include "interpreter/interpreter.h"
#include "mdschema/complexity.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace {

using quarry::etl::Flow;
using quarry::integrator::EtlIntegrationOptions;
using quarry::integrator::EtlIntegrator;
using quarry::integrator::MdIntegrationOptions;
using quarry::integrator::MdIntegrator;
using quarry::interpreter::Interpreter;

struct Env {
  quarry::storage::Database source{"tpch"};
  quarry::ontology::Ontology onto = quarry::ontology::BuildTpchOntology();
  quarry::ontology::SourceMapping mapping =
      quarry::ontology::BuildTpchMappings();
  quarry::etl::TableColumns columns;
  std::map<std::string, int64_t> rows;
  std::vector<quarry::interpreter::PartialDesign> designs;

  Env() {
    if (!quarry::datagen::PopulateTpch(&source, {0.01, 61}).ok()) {
      std::abort();
    }
    for (const std::string& name : source.TableNames()) {
      std::vector<std::string> cols;
      for (const auto& c : (*source.GetTable(name))->schema().columns()) {
        cols.push_back(c.name);
      }
      columns[name] = cols;
      rows[name] = static_cast<int64_t>((*source.GetTable(name))->num_rows());
    }
    Interpreter interpreter(&onto, &mapping);
    quarry::req::WorkloadConfig config;
    config.num_requirements = 6;
    config.overlap = 0.7;
    config.slicer_probability = 1.0;  // Slicers make alignment matter.
    config.seed = 87;
    for (const auto& ir : quarry::req::GenerateTpchWorkload(config)) {
      auto design = interpreter.Interpret(ir);
      if (!design.ok()) std::abort();
      designs.push_back(std::move(*design));
    }
  }
};

Env& SharedEnv() {
  static Env* env = new Env();
  return *env;
}

void PrintAblations() {
  Env& env = SharedEnv();

  // --- A1: equivalence-rule alignment on/off -----------------------------
  // The paper allows plugging in external design tools (§2.2), so the same
  // computation may arrive in a different operator order. We simulate that
  // by integrating each flow twice: once pre-normalized (selections pushed
  // down) and once as generated (selections after the join tree). With
  // alignment the second copy must be recognized as fully redundant.
  std::printf("A1: ETL integration with vs without equivalence-rule "
              "alignment\n    (each of 6 flows integrated in two different "
              "shapes)\n");
  std::printf("  %-12s %10s %10s %12s\n", "alignment", "reused", "nodes",
              "est_cost");
  for (bool align : {true, false}) {
    EtlIntegrationOptions options;
    options.align_with_equivalence_rules = align;
    EtlIntegrator integrator(env.columns, env.rows, {}, options);
    Flow unified("unified");
    int reused = 0;
    double cost = 0;
    for (const auto& design : env.designs) {
      Flow normalized = design.flow.Clone();
      if (!quarry::etl::Normalize(&normalized, env.columns).ok()) {
        std::abort();
      }
      auto first = integrator.Integrate(&unified, normalized);
      if (!first.ok()) std::abort();
      reused += first->nodes_reused;
      auto second = integrator.Integrate(&unified, design.flow);
      if (!second.ok()) std::abort();
      reused += second->nodes_reused;
      cost = second->cost_unified;
    }
    std::printf("  %-12s %10d %10zu %12.0f\n", align ? "on" : "off", reused,
                unified.num_nodes(), cost);
  }

  // --- A2: hierarchy folding on/off ---------------------------------------
  std::printf("\nA2: MD integration with vs without hierarchy folding\n");
  std::printf("  %-12s %8s %8s %12s\n", "folding", "dims", "folded",
              "complexity");
  for (bool fold : {true, false}) {
    MdIntegrationOptions options;
    options.allow_hierarchy_merge = fold;
    MdIntegrator integrator(&env.onto, options);
    quarry::md::MdSchema unified("unified");
    int folded = 0;
    for (const auto& design : env.designs) {
      auto report = integrator.Integrate(&unified, design.schema);
      if (!report.ok()) std::abort();
      folded += report->dimensions_folded;
    }
    std::printf("  %-12s %8zu %8d %12.1f\n", fold ? "on" : "off",
                unified.dimensions().size(), folded,
                quarry::md::StructuralComplexity(unified).score);
  }

  // --- A3: selection push-down effect on engine work ----------------------
  std::printf("\nA3: selection push-down — engine rows processed per flow\n");
  std::printf("  %-18s %14s %14s %8s\n", "flow", "as_generated",
              "normalized", "saving");
  for (size_t i = 0; i < env.designs.size(); ++i) {
    const Flow& original = env.designs[i].flow;
    Flow normalized = original.Clone();
    if (!quarry::etl::Normalize(&normalized, env.columns).ok()) std::abort();
    quarry::storage::Database t1("a"), t2("b");
    auto r1 = quarry::etl::Executor(&env.source, &t1).Run(original);
    auto r2 = quarry::etl::Executor(&env.source, &t2).Run(normalized);
    if (!r1.ok() || !r2.ok()) std::abort();
    double saving = 1.0 - static_cast<double>(r2->rows_processed) /
                              static_cast<double>(r1->rows_processed);
    std::printf("  %-18s %14lld %14lld %7.1f%%\n", original.name().c_str(),
                static_cast<long long>(r1->rows_processed),
                static_cast<long long>(r2->rows_processed), 100.0 * saving);
  }
  std::printf("\n");
}

void BM_IntegrateAligned(benchmark::State& state) {
  Env& env = SharedEnv();
  for (auto _ : state) {
    EtlIntegrator integrator(env.columns, env.rows);
    Flow unified("unified");
    for (const auto& design : env.designs) {
      if (!integrator.Integrate(&unified, design.flow).ok()) std::abort();
    }
    benchmark::DoNotOptimize(unified.num_nodes());
  }
}
BENCHMARK(BM_IntegrateAligned);

void BM_IntegrateUnaligned(benchmark::State& state) {
  Env& env = SharedEnv();
  EtlIntegrationOptions options;
  options.align_with_equivalence_rules = false;
  for (auto _ : state) {
    EtlIntegrator integrator(env.columns, env.rows, {}, options);
    Flow unified("unified");
    for (const auto& design : env.designs) {
      if (!integrator.Integrate(&unified, design.flow).ok()) std::abort();
    }
    benchmark::DoNotOptimize(unified.num_nodes());
  }
}
BENCHMARK(BM_IntegrateUnaligned);

}  // namespace

int main(int argc, char** argv) {
  PrintAblations();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
