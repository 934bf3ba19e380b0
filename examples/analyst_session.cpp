// An analyst's session: information requirements phrased in the textual
// ANALYZE notation are imported through the metadata layer's plug-in
// parser, the warehouse is designed + deployed automatically, and the
// analyst then explores it with roll-up cube queries over the deployed
// star schema.

#include <cstdio>
#include <iostream>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "olap/cube_query.h"
#include "ontology/tpch_ontology.h"

namespace {

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

void PrintDataset(const quarry::etl::Dataset& data, size_t limit = 8) {
  for (const std::string& column : data.columns) {
    std::printf("%-22s", column.c_str());
  }
  std::printf("\n");
  size_t shown = 0;
  for (const quarry::storage::Row& row : data.rows) {
    if (shown++ == limit) {
      std::printf("  ... (%zu rows total)\n", data.rows.size());
      break;
    }
    for (const quarry::storage::Value& v : row) {
      std::printf("%-22s", v.ToString().c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  quarry::storage::Database source("tpch");
  if (auto s = quarry::datagen::PopulateTpch(&source, {0.02, 5}); !s.ok()) {
    return Fail(s);
  }
  auto quarry = quarry::core::Quarry::Create(
      quarry::ontology::BuildTpchOntology(),
      quarry::ontology::BuildTpchMappings(), &source);
  if (!quarry.ok()) return Fail(quarry.status());

  // The analyst writes requirements as text; the "arq" import parser turns
  // them into xRQ and the pipeline does the rest.
  const char* queries[] = {
      "ANALYZE revenue ON Lineitem "
      "MEASURE revenue = Lineitem.l_extendedprice * (1 - "
      "Lineitem.l_discount) SUM "
      "BY Part.p_type, Supplier.s_name",

      "ANALYZE shipped_qty ON Lineitem "
      "MEASURE qty = Lineitem.l_quantity SUM, "
      "avg_tax = Lineitem.l_tax AVG "
      "BY Part.p_type, Supplier.s_name "
      "WHERE Lineitem.l_returnflag = 'N'",
  };
  for (const char* query : queries) {
    auto outcome = (*quarry)->AddRequirementFromQuery(query);
    if (!outcome.ok()) return Fail(outcome.status());
    std::cout << "integrated query (" << outcome->etl.nodes_reused
              << " ETL nodes reused)\n";
  }

  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok()) return Fail(deployment.status());
  if (!deployment->success) return Fail(deployment->failure->cause);
  std::cout << "warehouse deployed: " << deployment->report.tables_created
            << " tables\n\n";

  auto pin = (*quarry)->warehouse().Acquire();
  if (!pin.ok()) return Fail(pin.status());
  quarry::olap::CubeQueryEngine olap(&(*quarry)->schema(),
                                     &(*quarry)->mapping(), &pin->db());

  std::cout << "=== revenue by part type ===\n";
  quarry::olap::CubeQuery by_type;
  by_type.fact = "fact_table_revenue";
  by_type.group_by = {"p_type"};
  by_type.measures = {{"revenue", quarry::md::AggFunc::kSum, "total"},
                      {"revenue", quarry::md::AggFunc::kAvg, "avg"}};
  auto r1 = olap.Execute(by_type);
  if (!r1.ok()) return Fail(r1.status());
  PrintDataset(*r1);

  std::cout << "\n=== top suppliers for SMALL parts (filtered slice) ===\n";
  quarry::olap::CubeQuery top_suppliers;
  top_suppliers.fact = "fact_table_revenue";
  top_suppliers.group_by = {"s_name"};
  top_suppliers.measures = {{"revenue", quarry::md::AggFunc::kSum, "total"}};
  top_suppliers.filters = {"p_type = 'SMALL'"};
  auto r2 = olap.Execute(top_suppliers);
  if (!r2.ok()) return Fail(r2.status());
  PrintDataset(*r2, 5);

  std::cout << "\n=== shipped quantity + avg tax (merged fact, same grain) "
               "===\n";
  quarry::olap::CubeQuery shipped;
  shipped.fact = "fact_table_revenue";  // shipped_qty merged into it
  shipped.group_by = {"p_type"};
  shipped.measures = {{"qty", quarry::md::AggFunc::kSum, "shipped"},
                      {"avg_tax", quarry::md::AggFunc::kAvg, "avg_tax"}};
  auto r3 = olap.Execute(shipped);
  if (!r3.ok()) return Fail(r3.status());
  PrintDataset(*r3);

  std::cout << "\nanalyst session finished OK\n";
  return 0;
}
