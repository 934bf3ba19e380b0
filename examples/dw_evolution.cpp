// Demo scenario "Accommodating a DW design to changes" (paper §3).
//
// Poses a stream of information requirements against the TPC-H domain,
// showing after each step how the Design Integrator consolidates the
// unified MD schema (structural complexity vs. the naive union) and the
// unified ETL process (operator reuse, estimated cost vs. running the
// flows separately). Then changes one requirement and removes another,
// demonstrating trace-driven pruning with soundness + satisfiability kept.

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "mdschema/complexity.h"
#include "ontology/tpch_ontology.h"

namespace {

using quarry::core::Quarry;
using quarry::md::AggFunc;
using quarry::req::InformationRequirement;

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

std::vector<InformationRequirement> BusinessRequirements() {
  std::vector<InformationRequirement> irs;
  {
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    ir.dimensions.push_back({"Supplier.s_name"});
    irs.push_back(ir);
  }
  {
    // Same grain as ir_revenue: the integrator merges the facts.
    InformationRequirement ir;
    ir.id = "ir_discount";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"avg_discount", "Lineitem.l_discount", AggFunc::kAvg});
    ir.dimensions.push_back({"Part.p_name"});
    ir.dimensions.push_back({"Supplier.s_name"});
    irs.push_back(ir);
  }
  {
    // New source (Partsupp), different grain: new fact, conformed dims.
    InformationRequirement ir;
    ir.id = "ir_netprofit";
    ir.name = "netprofit";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"netprofit",
         "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) - "
         "Partsupp.ps_supplycost * Lineitem.l_quantity",
         AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    irs.push_back(ir);
  }
  {
    // Nation-grain quantity: the Nation dimension folds into Supplier's
    // hierarchy (stage 3 of the MD Schema Integrator).
    InformationRequirement ir;
    ir.id = "ir_nation_qty";
    ir.name = "qty_by_nation";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back({"qty", "Lineitem.l_quantity", AggFunc::kSum});
    ir.dimensions.push_back({"Nation.n_name"});
    irs.push_back(ir);
  }
  {
    // Order-date analysis sliced to recent, open orders.
    InformationRequirement ir;
    ir.id = "ir_open_orders";
    ir.name = "open_order_value";
    ir.focus_concept = "Orders";
    ir.measures.push_back(
        {"order_value", "Orders.o_totalprice", AggFunc::kSum});
    ir.dimensions.push_back({"Customer.c_mktsegment"});
    ir.slicers.push_back({"Orders.o_orderstatus", "=", "O"});
    ir.slicers.push_back({"Orders.o_orderdate", ">=", "1995-01-01"});
    irs.push_back(ir);
  }
  return irs;
}

}  // namespace

int main() {
  quarry::storage::Database source("tpch");
  if (auto s = quarry::datagen::PopulateTpch(&source, {0.01, 13}); !s.ok()) {
    return Fail(s);
  }
  auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                               quarry::ontology::BuildTpchMappings(),
                               &source);
  if (!quarry.ok()) return Fail(quarry.status());

  std::printf("%-16s %6s %6s %10s %10s %8s %10s %10s\n", "requirement",
              "facts", "dims", "cx(naive)", "cx(unif.)", "reused",
              "cost(sep)", "cost(unif)");
  for (const InformationRequirement& ir : BusinessRequirements()) {
    auto outcome = (*quarry)->AddRequirement(ir);
    if (!outcome.ok()) return Fail(outcome.status());
    std::printf("%-16s %6zu %6zu %10.1f %10.1f %8d %10.0f %10.0f\n",
                ir.id.c_str(), (*quarry)->schema().facts().size(),
                (*quarry)->schema().dimensions().size(),
                outcome->md.complexity_naive_union,
                outcome->md.complexity_after, outcome->etl.nodes_reused,
                outcome->etl.cost_separate, outcome->etl.cost_unified);
    for (const std::string& decision : outcome->md.decisions) {
      std::cout << "    . " << decision << "\n";
    }
  }

  // Deploy the 5-requirement design once.
  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok()) return Fail(deployment.status());
  if (!deployment->success) return Fail(deployment->failure->cause);
  std::cout << "\ninitial deployment: " << deployment->report.tables_created
            << " tables, integrity "
            << (deployment->report.referential_integrity_ok ? "OK" : "BROKEN")
            << ", ETL " << deployment->report.etl.rows_processed
            << " rows processed\n";

  // --- change: ir_open_orders now also needs the order date dimension ----
  InformationRequirement changed = BusinessRequirements().back();
  changed.dimensions.push_back({"Orders.o_orderdate"});
  auto changed_outcome = (*quarry)->ChangeRequirement(changed);
  if (!changed_outcome.ok()) return Fail(changed_outcome.status());
  std::cout << "\nchanged '" << changed.id << "': fact base now ";
  const quarry::md::Fact& fact =
      **(*quarry)->schema().GetFact("fact_table_open_order_value");
  std::cout << fact.dimension_refs.size() << " dimension refs\n";

  // --- removal: the discount analysis is retired --------------------------
  if (auto s = (*quarry)->RemoveRequirement("ir_discount"); !s.ok()) {
    return Fail(s);
  }
  std::cout << "removed 'ir_discount': fact_table_revenue keeps "
            << (**(*quarry)->schema().GetFact("fact_table_revenue"))
                   .measures.size()
            << " measure(s); " << (*quarry)->requirements().size()
            << " requirements remain, all satisfied\n";

  // Redeploy the evolved design as the next warehouse generation.
  auto redeploy = (*quarry)->DeployServing();
  if (!redeploy.ok()) return Fail(redeploy.status());
  if (!redeploy->success) return Fail(redeploy->failure->cause);
  std::cout << "redeployment after evolution: "
            << redeploy->report.tables_created << " tables, integrity "
            << (redeploy->report.referential_integrity_ok ? "OK" : "BROKEN")
            << ", generation " << redeploy->published_generation << "\n";
  std::cout << "\nevolution demo finished OK\n";
  return 0;
}
