// Demo scenario "Design deployment" (paper §3): after the involved parties
// agree on a design, Quarry generates the executables for the chosen
// platforms — a PostgreSQL-dialect DDL script and a Pentaho-PDI-style
// transformation — deploys them on the embedded engines, and archives all
// metadata. Also demonstrates the metadata layer's plug-in exporters and
// its on-disk persistence (the MongoDB stand-in). The export goes to the
// directory given as argv[1], by default quarry_deployment_demo under the
// system's temporary directory.

#include <filesystem>
#include <iostream>
#include <memory>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"
#include "storage/csv.h"
#include "storage/sql.h"

namespace {

using quarry::core::Quarry;
using quarry::req::InformationRequirement;

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  quarry::storage::Database source("tpch");
  if (auto s = quarry::datagen::PopulateTpch(&source, {0.01, 41}); !s.ok()) {
    return Fail(s);
  }
  auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                               quarry::ontology::BuildTpchMappings(),
                               &source);
  if (!quarry.ok()) return Fail(quarry.status());

  InformationRequirement revenue;
  revenue.id = "ir_revenue";
  revenue.name = "revenue";
  revenue.focus_concept = "Lineitem";
  revenue.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       quarry::md::AggFunc::kSum});
  revenue.dimensions.push_back({"Part.p_brand"});
  revenue.dimensions.push_back({"Orders.o_orderdate"});
  if (auto o = (*quarry)->AddRequirement(revenue); !o.ok()) {
    return Fail(o.status());
  }

  InformationRequirement netprofit;
  netprofit.id = "ir_netprofit";
  netprofit.name = "netprofit";
  netprofit.focus_concept = "Lineitem";
  netprofit.measures.push_back(
      {"netprofit",
       "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) - "
       "Partsupp.ps_supplycost * Lineitem.l_quantity",
       quarry::md::AggFunc::kSum});
  netprofit.dimensions.push_back({"Part.p_brand"});
  if (auto o = (*quarry)->AddRequirement(netprofit); !o.ok()) {
    return Fail(o.status());
  }

  // --- platform executables -------------------------------------------------
  auto sql = (*quarry)->ExportSchema("sql");
  if (!sql.ok()) return Fail(sql.status());
  auto ktr = (*quarry)->ExportFlow("pdi");
  if (!ktr.ok()) return Fail(ktr.status());
  std::cout << "=== MD schema (SQL, RDBMS) ===\n" << *sql;
  std::cout << "=== ETL process (Pentaho PDI ktr, excerpt) ===\n"
            << ktr->substr(0, 900) << "...\n\n";

  // --- deployment on the embedded engines -----------------------------------
  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok()) return Fail(deployment.status());
  if (!deployment->success) return Fail(deployment->failure->cause);
  auto pin = (*quarry)->warehouse().Acquire();
  if (!pin.ok()) return Fail(pin.status());
  std::cout << "deployed tables:";
  for (const std::string& name : pin->db().TableNames()) {
    std::cout << " " << name << "("
              << (*pin->db().GetTable(name))->num_rows() << ")";
  }
  std::cout << "\nreferential integrity: "
            << (deployment->report.referential_integrity_ok ? "OK" : "BROKEN")
            << "\n\n";

  // --- expert tuning hook: indexes over the deployed schema ----------------
  // (paper §2.4: "validated DW designs are available for additional tunings
  // by an expert user (e.g., indexes)"). Published generations are
  // immutable, so the tuning goes into a copy of the deployed warehouse.
  std::unique_ptr<quarry::storage::Database> tuned = pin->db().Clone();
  quarry::storage::Database& warehouse = *tuned;
  auto report = quarry::storage::ExecuteSql(
      &warehouse, "CREATE INDEX idx_rev_part ON fact_table_revenue "
                  "(p_partkey);");
  if (!report.ok()) return Fail(report.status());
  std::cout << "expert tuning: added " << report->indexes_created
            << " index on fact_table_revenue(p_partkey)\n";

  // --- export the warehouse + archive the metadata repository ---------------
  const std::filesystem::path out_dir =
      argc > 1 ? std::filesystem::path(argv[1])
               : std::filesystem::temp_directory_path() /
                     "quarry_deployment_demo";
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);
  for (const std::string& name : warehouse.TableNames()) {
    auto s = quarry::storage::WriteCsvFile(**warehouse.GetTable(name),
                                           (out_dir / (name + ".csv")));
    if (!s.ok()) return Fail(s);
  }
  if (auto s = (*quarry)->repository().store().SaveToDirectory(out_dir);
      !s.ok()) {
    return Fail(s);
  }
  std::cout << "exported warehouse CSVs + metadata repository to " << out_dir
            << "\nmetadata collections:";
  for (const std::string& name :
       (*quarry)->repository().store().CollectionNames()) {
    std::cout << " " << name;
  }
  std::cout << "\n\ndeployment demo finished OK\n";
  return 0;
}
