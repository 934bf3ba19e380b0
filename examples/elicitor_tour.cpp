// Demo scenario "DW design" (paper §3): a business user with no knowledge
// of the underlying sources explores the domain ontology through the
// Requirements Elicitor, accepts its suggestions, and obtains an initial
// validated DW design — printing the same artifacts the paper's Figure 4
// shows (xRQ in, partial xMD + xLM out).

#include <cstdio>
#include <iostream>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "etl/xlm.h"
#include "interpreter/interpreter.h"
#include "ontology/tpch_ontology.h"
#include "requirements/requirement.h"
#include "xml/xml.h"

namespace {

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main() {
  quarry::storage::Database source("tpch");
  if (auto s = quarry::datagen::PopulateTpch(&source, {0.02, 3}); !s.ok()) {
    return Fail(s);
  }
  auto quarry = quarry::core::Quarry::Create(
      quarry::ontology::BuildTpchOntology(),
      quarry::ontology::BuildTpchMappings(), &source);
  if (!quarry.ok()) return Fail(quarry.status());
  quarry::req::Elicitor& elicitor = (*quarry)->elicitor();

  // 1. "What could I analyze?" — fact candidates over the whole ontology.
  std::cout << "=== subjects of analysis (fact candidates) ===\n";
  for (const auto& f : elicitor.SuggestFacts()) {
    std::printf("  %-10s score=%5.2f  numeric props=%d  to-one fanout=%d\n",
                f.concept_id.c_str(), f.score, f.numeric_properties,
                f.functional_out_degree);
  }
  std::string focus = elicitor.SuggestFacts().front().concept_id;
  std::cout << "user picks focus: " << focus << "\n\n";

  // 2. Measures of the focus.
  std::cout << "=== suggested measures for " << focus << " ===\n";
  auto measures = elicitor.SuggestMeasures(focus);
  if (!measures.ok()) return Fail(measures.status());
  for (const auto& m : *measures) {
    std::printf("  %-28s score=%.1f\n", m.property_id.c_str(), m.score);
  }

  // 3. Analysis dimensions, as in the paper: "the system then automatically
  //    suggests useful dimensions (e.g., Supplier, Nation, Part)".
  std::cout << "\n=== suggested dimensions for " << focus << " ===\n";
  auto dims = elicitor.SuggestDimensions(focus);
  if (!dims.ok()) return Fail(dims.status());
  for (const auto& d : *dims) {
    std::printf("  %-10s hops=%d  attributes: ", d.concept_id.c_str(),
                d.hops);
    for (const std::string& p : d.descriptive_properties) {
      std::cout << p << " ";
    }
    std::cout << "\n";
  }

  // 4. The user accepts suggestions; the elicitor assembles + validates.
  auto ir = elicitor.BuildRequirement(
      "ir_explored", "explored_revenue", focus,
      {{"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
        quarry::md::AggFunc::kSum}},
      {{"Part.p_name"}, {"Supplier.s_name"}},
      {{"Nation.n_name", "=", "SPAIN"}});
  if (!ir.ok()) return Fail(ir.status());

  std::cout << "\n=== xRQ (the requirement as Quarry stores it) ===\n"
            << quarry::xml::Write(*quarry::req::ToXrq(*ir));

  // 5. Interpret into partial designs, exactly Figure 4's right side.
  quarry::interpreter::Interpreter interpreter(&(*quarry)->ontology(),
                                               &(*quarry)->mapping());
  auto partial = interpreter.Interpret(*ir);
  if (!partial.ok()) return Fail(partial.status());
  std::cout << "\n=== partial MD schema (xMD) ===\n"
            << quarry::xml::Write(*partial->schema.ToXml());
  std::string xlm = quarry::xml::Write(*quarry::etl::FlowToXlm(partial->flow));
  std::cout << "\n=== partial ETL process (xLM, excerpt) ===\n"
            << xlm.substr(0, 1200) << "...\n";

  // 6. And the end of the pipeline: integrate + deploy.
  if (auto outcome = (*quarry)->AddRequirement(*ir); !outcome.ok()) {
    return Fail(outcome.status());
  }
  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok()) return Fail(deployment.status());
  if (!deployment->success) return Fail(deployment->failure->cause);
  std::cout << "\ninitial DW deployed: " << deployment->report.tables_created
            << " tables, ETL loaded ";
  for (const auto& [table, rows] : deployment->report.etl.loaded) {
    std::cout << table << "=" << rows << " ";
  }
  std::cout << "\nelicitor tour finished OK\n";
  return 0;
}
