// Quickstart: the paper's running example end to end.
//
// Builds the TPC-H source database and domain ontology, poses the Figure-3
// "revenue" information requirement ("Analyze the revenue ... per products
// that are ordered from Spain"), lets Quarry interpret + integrate + deploy
// it, and finally queries the freshly populated data warehouse.

#include <cstdio>
#include <iostream>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"

namespace {

using quarry::core::Quarry;
using quarry::req::InformationRequirement;

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main() {
  // 1. Source layer: a TPC-H-style operational database.
  quarry::storage::Database source("tpch");
  quarry::datagen::TpchConfig data_config;
  data_config.scale_factor = 0.01;
  data_config.seed = 7;
  if (auto s = quarry::datagen::PopulateTpch(&source, data_config); !s.ok()) {
    return Fail(s);
  }
  std::cout << "source database: " << source.TotalRows()
            << " rows across " << source.num_tables() << " tables\n";

  // 2. Semantic layer: domain ontology + source schema mappings.
  auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                               quarry::ontology::BuildTpchMappings(),
                               &source);
  if (!quarry.ok()) return Fail(quarry.status());

  // 3. An information requirement, in MD terms (paper Fig. 4 left).
  InformationRequirement ir;
  ir.id = "ir_revenue";
  ir.name = "revenue";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       quarry::md::AggFunc::kSum});
  ir.dimensions.push_back({"Part.p_name"});
  ir.dimensions.push_back({"Supplier.s_name"});
  ir.slicers.push_back({"Nation.n_name", "=", "SPAIN"});

  auto outcome = (*quarry)->AddRequirement(ir);
  if (!outcome.ok()) return Fail(outcome.status());
  std::cout << "integrated requirement '" << ir.id << "': "
            << (*quarry)->schema().facts().size() << " fact(s), "
            << (*quarry)->schema().dimensions().size() << " dimension(s)\n";

  // 4. Deployment: DDL + ETL run against the embedded warehouse, published
  //    as its first generation.
  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok()) return Fail(deployment.status());
  if (!deployment->success) return Fail(deployment->failure->cause);
  const quarry::deployer::DeploymentReport& report = deployment->report;
  std::cout << "deployed " << report.tables_created << " tables; ETL "
            << "processed " << report.etl.rows_processed << " rows in "
            << report.etl.total_millis << " ms\n";
  std::cout << "\n--- generated DDL (excerpt) ---\n"
            << report.ddl.substr(0, 400) << "...\n";

  // 5. Use the warehouse: top revenue rows with dimension context.
  auto pin = (*quarry)->warehouse().Acquire();
  if (!pin.ok()) return Fail(pin.status());
  const quarry::storage::Database& warehouse = pin->db();
  const quarry::storage::Table& fact =
      **warehouse.GetTable("fact_table_revenue");
  const quarry::storage::Table& dim_part = **warehouse.GetTable("dim_Part");
  std::cout << "\nfact_table_revenue holds " << fact.num_rows()
            << " rows at grain (part, supplier); sample:\n";
  auto p_idx = *fact.schema().ColumnIndex("p_partkey");
  auto r_idx = *fact.schema().ColumnIndex("revenue");
  int shown = 0;
  for (const quarry::storage::Row& row : fact.rows()) {
    if (shown++ == 5) break;
    std::string part_name = "?";
    auto hits = dim_part.ScanEquals("p_partkey", row[p_idx]);
    if (!hits.empty()) {
      part_name =
          dim_part.rows()[hits[0]]
                  [*dim_part.schema().ColumnIndex("p_name")]
                      .ToString();
    }
    std::printf("  %-28s revenue=%.2f\n", part_name.c_str(),
                row[r_idx].as_double());
  }
  std::cout << "\nquickstart finished OK\n";
  return 0;
}
