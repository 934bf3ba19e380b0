#ifndef QUARRY_INTEGRATOR_DESIGN_INTEGRATOR_H_
#define QUARRY_INTEGRATOR_DESIGN_INTEGRATOR_H_

#include <map>
#include <string>

#include "common/result.h"
#include "integrator/etl_integrator.h"
#include "integrator/md_integrator.h"
#include "interpreter/interpreter.h"
#include "requirements/requirement.h"

namespace quarry::integrator {

/// Combined outcome of integrating one requirement's partial designs.
struct IntegrationOutcome {
  MdIntegrationReport md;
  EtlIntegrationReport etl;
};

/// \brief The Design Integrator component (paper Fig. 1): maintains the
/// unified MD schema and unified ETL process, incrementally consolidating
/// each new requirement's partial designs via the MD Schema Integrator and
/// the ETL Process Integrator, and guaranteeing soundness + satisfiability
/// of every requirement processed so far.
///
/// Also implements the paper's "accommodating a DW design to changes"
/// scenario: removing a requirement prunes all design elements that served
/// only that requirement (via the per-element trace sets), then re-checks
/// soundness and the satisfiability of the remaining requirements.
class DesignIntegrator {
 public:
  /// All pointers must outlive the integrator.
  DesignIntegrator(const ontology::Ontology* onto,
                   etl::TableColumns source_columns,
                   std::map<std::string, int64_t> table_rows,
                   MdIntegrationOptions md_options = {},
                   etl::CostModelConfig cost_config = {})
      : onto_(onto),
        md_integrator_(onto, md_options),
        etl_integrator_(std::move(source_columns), std::move(table_rows),
                        cost_config),
        schema_("unified"),
        flow_("unified") {}

  const md::MdSchema& schema() const { return schema_; }
  const etl::Flow& flow() const { return flow_; }
  const std::map<std::string, req::InformationRequirement>& requirements()
      const {
    return requirements_;
  }

  /// Integrates the partial design of `ir`; on success the unified design
  /// satisfies `ir` and all previously added requirements. `ctx` (nullable)
  /// is checked before each integration stage — MD integrate, ETL
  /// integrate, verification — and the round rolls back cleanly when the
  /// request is cancelled or out of time between stages.
  Result<IntegrationOutcome> AddRequirement(
      const req::InformationRequirement& ir,
      const interpreter::PartialDesign& partial,
      const ExecContext* ctx = nullptr);

  /// Removes a requirement and prunes design elements serving only it.
  /// Fails (leaving the design untouched) if a remaining requirement would
  /// become unsatisfied.
  Status RemoveRequirement(const std::string& ir_id);

  /// Replaces a changed requirement: removal + re-integration. Atomic: if
  /// the new definition fails to integrate, schema, flow and requirement
  /// set are restored to the old definition's.
  Result<IntegrationOutcome> ChangeRequirement(
      const req::InformationRequirement& ir,
      const interpreter::PartialDesign& partial,
      const ExecContext* ctx = nullptr);

  /// Re-verifies soundness and every requirement's satisfiability.
  Status VerifyAll() const;

 private:
  const ontology::Ontology* onto_;
  MdIntegrator md_integrator_;
  EtlIntegrator etl_integrator_;
  md::MdSchema schema_;
  etl::Flow flow_;
  std::map<std::string, req::InformationRequirement> requirements_;
};

}  // namespace quarry::integrator

#endif  // QUARRY_INTEGRATOR_DESIGN_INTEGRATOR_H_
