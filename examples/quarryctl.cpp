// quarryctl — a small command-line driver for the whole system, the
// shape a downstream user would script. Reads commands from stdin (or the
// file given as argv[1]), one per line:
//
//   load-tpch <scale_factor> [seed]     create the source database
//   analyze <ANALYZE ... BY ...>        add a requirement (textual notation)
//   suggest <FocusConcept>              elicitor suggestions for a focus
//   remove <requirement_id>             retire a requirement
//   show schema|flow|sql|ktr|requirements
//   alternatives <ANALYZE ...>          preview integration alternatives
//   deploy                              deploy + load the warehouse
//   query <fact> BY <col,...> [WHERE <pred>]   roll-up on the warehouse
//   save <dir> / load <dir>             persist / restore the session
//   quit
//
// Example session: see examples/quarryctl_demo.txt (the `quarryctl` ctest,
// label `examples`, replays it).

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/str_util.h"
#include "core/quarry.h"
#include "core/session.h"
#include "datagen/tpch.h"
#include "integrator/md_integrator.h"
#include "interpreter/interpreter.h"
#include "olap/cube_query.h"
#include "ontology/tpch_ontology.h"
#include "requirements/query_parser.h"

namespace {

using quarry::Status;
using quarry::core::Quarry;

struct Session {
  std::unique_ptr<quarry::storage::Database> source;
  std::unique_ptr<Quarry> quarry;

  Status RequireQuarry() const {
    if (quarry == nullptr) {
      return Status::InvalidArgument(
          "no active session; run 'load-tpch <sf>' first");
    }
    return Status::OK();
  }
};

Status CmdLoadTpch(Session* session, std::istringstream* args) {
  double sf = 0.01;
  uint64_t seed = 42;
  *args >> sf >> seed;
  session->source =
      std::make_unique<quarry::storage::Database>("tpch");
  QUARRY_RETURN_NOT_OK(
      quarry::datagen::PopulateTpch(session->source.get(), {sf, seed}));
  auto q = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                          quarry::ontology::BuildTpchMappings(),
                          session->source.get());
  QUARRY_RETURN_NOT_OK(q.status());
  session->quarry = std::move(*q);
  std::cout << "loaded TPC-H sf=" << sf << " ("
            << session->source->TotalRows() << " rows)\n";
  return Status::OK();
}

Status CmdAnalyze(Session* session, const std::string& rest) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  auto outcome = session->quarry->AddRequirementFromQuery(rest);
  QUARRY_RETURN_NOT_OK(outcome.status());
  std::cout << "integrated (" << outcome->etl.nodes_reused
            << " ETL nodes reused, complexity "
            << outcome->md.complexity_after << ")\n";
  return Status::OK();
}

Status CmdSuggest(Session* session, std::istringstream* args) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  std::string focus;
  *args >> focus;
  auto dims = session->quarry->elicitor().SuggestDimensions(focus);
  QUARRY_RETURN_NOT_OK(dims.status());
  auto measures = session->quarry->elicitor().SuggestMeasures(focus);
  QUARRY_RETURN_NOT_OK(measures.status());
  std::cout << "measures:";
  for (const auto& m : *measures) std::cout << " " << m.property_id;
  std::cout << "\ndimensions:";
  for (const auto& d : *dims) {
    std::cout << " " << d.concept_id << "(" << d.hops << ")";
  }
  std::cout << "\n";
  return Status::OK();
}

Status CmdShow(Session* session, std::istringstream* args) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  std::string what;
  *args >> what;
  if (what == "schema") {
    std::cout << quarry::xml::Write(*session->quarry->schema().ToXml());
  } else if (what == "flow") {
    std::cout << "nodes=" << session->quarry->flow().num_nodes()
              << " edges=" << session->quarry->flow().num_edges() << "\n";
    for (const auto& [id, node] : session->quarry->flow().nodes()) {
      std::cout << "  " << id << " ["
                << quarry::etl::OpTypeToString(node.type) << "]\n";
    }
  } else if (what == "sql") {
    auto sql = session->quarry->ExportSchema("sql");
    QUARRY_RETURN_NOT_OK(sql.status());
    std::cout << *sql;
  } else if (what == "ktr") {
    auto ktr = session->quarry->ExportFlow("pdi");
    QUARRY_RETURN_NOT_OK(ktr.status());
    std::cout << *ktr;
  } else if (what == "requirements") {
    for (const auto& [id, ir] : session->quarry->requirements()) {
      std::cout << quarry::req::RequirementQueryToString(ir) << "\n\n";
    }
  } else {
    return Status::InvalidArgument("show schema|flow|sql|ktr|requirements");
  }
  return Status::OK();
}

Status CmdAlternatives(Session* session, const std::string& rest) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  auto ir = quarry::req::ParseRequirementQuery(rest);
  QUARRY_RETURN_NOT_OK(ir.status());
  quarry::interpreter::Interpreter interpreter(
      &session->quarry->ontology(), &session->quarry->mapping());
  auto partial = interpreter.Interpret(*ir);
  QUARRY_RETURN_NOT_OK(partial.status());
  quarry::integrator::MdIntegrator integrator(&session->quarry->ontology());
  auto alternatives =
      integrator.ProposeAlternatives(session->quarry->schema(),
                                     partial->schema);
  QUARRY_RETURN_NOT_OK(alternatives.status());
  for (size_t i = 0; i < alternatives->size(); ++i) {
    const auto& alt = (*alternatives)[i];
    std::cout << "  [" << i + 1 << "] complexity=" << alt.complexity << "  "
              << alt.description << "\n";
  }
  return Status::OK();
}

Status CmdRemove(Session* session, std::istringstream* args) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  std::string id;
  *args >> id;
  QUARRY_RETURN_NOT_OK(session->quarry->RemoveRequirement(id));
  std::cout << "removed " << id << "\n";
  return Status::OK();
}

Status CmdDeploy(Session* session) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  auto deployment = session->quarry->DeployServing();
  QUARRY_RETURN_NOT_OK(deployment.status());
  if (!deployment->success) return deployment->failure->cause;
  const quarry::deployer::DeploymentReport& report = deployment->report;
  std::cout << "deployed " << report.tables_created << " tables; loaded";
  for (const auto& [table, rows] : report.etl.loaded) {
    std::cout << " " << table << "=" << rows;
  }
  std::cout << "\n";
  return Status::OK();
}

Status CmdQuery(Session* session, const std::string& rest) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  if (!session->quarry->warehouse().has_generation()) {
    return Status::InvalidArgument("deploy before querying");
  }
  // "<fact> BY a,b [WHERE pred]"
  std::string text = rest;
  quarry::olap::CubeQuery query;
  size_t by = quarry::ToUpper(text).find(" BY ");
  if (by == std::string::npos) {
    return Status::InvalidArgument("query <fact> BY <cols> [WHERE <pred>]");
  }
  query.fact = std::string(quarry::Trim(text.substr(0, by)));
  std::string tail = text.substr(by + 4);
  size_t where = quarry::ToUpper(tail).find(" WHERE ");
  std::string group = tail;
  if (where != std::string::npos) {
    group = tail.substr(0, where);
    query.filters.push_back(std::string(quarry::Trim(tail.substr(where + 7))));
  }
  for (const std::string& column : quarry::Split(group, ',')) {
    query.group_by.push_back(std::string(quarry::Trim(column)));
  }
  // Aggregate every measure of the fact with its default function.
  auto fact = session->quarry->schema().GetFact(query.fact);
  QUARRY_RETURN_NOT_OK(fact.status());
  for (const auto& measure : (*fact)->measures) {
    query.measures.push_back({measure.name, measure.aggregation, ""});
  }
  auto served = session->quarry->SubmitQuery(query);
  QUARRY_RETURN_NOT_OK(served.status());
  const quarry::etl::Dataset& result = served->data;
  for (const std::string& column : result.columns) {
    std::cout << column << "\t";
  }
  std::cout << "\n";
  size_t shown = 0;
  for (const auto& row : result.rows) {
    if (shown++ == 10) {
      std::cout << "... (" << result.rows.size() << " rows)\n";
      break;
    }
    for (const auto& value : row) std::cout << value.ToString() << "\t";
    std::cout << "\n";
  }
  return Status::OK();
}

Status CmdSave(Session* session, std::istringstream* args) {
  QUARRY_RETURN_NOT_OK(session->RequireQuarry());
  std::string dir;
  *args >> dir;
  QUARRY_RETURN_NOT_OK(quarry::core::SaveSession(*session->quarry, dir));
  std::cout << "session saved to " << dir << "\n";
  return Status::OK();
}

Status CmdLoad(Session* session, std::istringstream* args) {
  std::string dir;
  *args >> dir;
  if (session->source == nullptr) {
    return Status::InvalidArgument("load-tpch first (the session stores "
                                   "metadata, not source data)");
  }
  auto restored = quarry::core::LoadSession(dir, session->source.get());
  QUARRY_RETURN_NOT_OK(restored.status());
  session->quarry = std::move(*restored);
  std::cout << "session restored ("
            << session->quarry->requirements().size()
            << " requirements)\n";
  return Status::OK();
}

int Run(std::istream& in, bool echo) {
  Session session;
  std::string line;
  while (std::getline(in, line)) {
    std::string trimmed(quarry::Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (echo) std::cout << "> " << trimmed << "\n";
    std::istringstream args(trimmed);
    std::string command;
    args >> command;
    std::string rest(quarry::Trim(trimmed.substr(command.size())));
    Status status = Status::OK();
    if (command == "quit" || command == "exit") break;
    if (command == "load-tpch") {
      status = CmdLoadTpch(&session, &args);
    } else if (command == "analyze") {
      status = CmdAnalyze(&session, rest);
    } else if (command == "suggest") {
      status = CmdSuggest(&session, &args);
    } else if (command == "show") {
      status = CmdShow(&session, &args);
    } else if (command == "alternatives") {
      status = CmdAlternatives(&session, rest);
    } else if (command == "remove") {
      status = CmdRemove(&session, &args);
    } else if (command == "deploy") {
      status = CmdDeploy(&session);
    } else if (command == "query") {
      status = CmdQuery(&session, rest);
    } else if (command == "save") {
      status = CmdSave(&session, &args);
    } else if (command == "load") {
      status = CmdLoad(&session, &args);
    } else {
      status = Status::InvalidArgument("unknown command '" + command + "'");
    }
    if (!status.ok()) std::cout << "error: " << status << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    return Run(file, /*echo=*/true);
  }
  return Run(std::cin, /*echo=*/false);
}
