#include "integrator/design_integrator.h"

#include "common/timer.h"
#include "integrator/satisfiability.h"
#include "mdschema/validator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::integrator {

namespace {

/// Publishes the paper's quality factors for the latest integration round
/// as gauges, plus the running size of the unified design — the numbers a
/// dashboard wants after every AddRequirement (docs/OBSERVABILITY.md).
void PublishRoundGauges(const IntegrationOutcome& outcome,
                        const md::MdSchema& schema, const etl::Flow& flow,
                        size_t requirements) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.gauge("quarry_integrator_md_complexity",
            "Structural complexity of the unified MD schema after the "
            "latest integration round")
      .Set(outcome.md.complexity_after);
  reg.gauge("quarry_integrator_md_complexity_naive_union",
            "Structural complexity a side-by-side union would have had")
      .Set(outcome.md.complexity_naive_union);
  reg.gauge("quarry_integrator_etl_cost_unified",
            "Cost-model estimate of the unified ETL flow")
      .Set(outcome.etl.cost_unified);
  reg.gauge("quarry_integrator_etl_cost_separate",
            "Cost-model estimate of executing the flows separately")
      .Set(outcome.etl.cost_separate);
  reg.gauge("quarry_integrator_etl_nodes_reused",
            "Partial-flow nodes mapped onto existing nodes in the latest "
            "round")
      .Set(outcome.etl.nodes_reused);
  reg.gauge("quarry_integrator_etl_nodes_added",
            "Partial-flow nodes added to the unified flow in the latest "
            "round")
      .Set(outcome.etl.nodes_added);
  reg.gauge("quarry_design_requirements",
            "Requirements currently integrated into the unified design")
      .Set(static_cast<double>(requirements));
  reg.gauge("quarry_design_flow_nodes", "Nodes in the unified ETL flow")
      .Set(static_cast<double>(flow.num_nodes()));
  reg.gauge("quarry_design_facts", "Facts in the unified MD schema")
      .Set(static_cast<double>(schema.facts().size()));
  reg.gauge("quarry_design_dimensions",
            "Dimensions in the unified MD schema")
      .Set(static_cast<double>(schema.dimensions().size()));
}

}  // namespace

Result<IntegrationOutcome> DesignIntegrator::AddRequirement(
    const req::InformationRequirement& ir,
    const interpreter::PartialDesign& partial, const ExecContext* ctx) {
  if (requirements_.count(ir.id) > 0) {
    return Status::AlreadyExists("requirement '" + ir.id +
                                 "' is already integrated");
  }
  QUARRY_RETURN_NOT_OK(
      CheckContext(ctx, "MD integration of '" + ir.id + "'"));
  QUARRY_NAMED_SPAN(span, "integrator.add_requirement");
  QUARRY_SPAN_ATTR(span, "ir_id", ir.id);
  Timer round_timer;
  obs::MetricsRegistry::Instance()
      .counter("quarry_integrator_rounds_total",
               "Integration rounds attempted (add or change)")
      .Increment();
  md::MdSchema schema_backup = schema_;
  etl::Flow flow_backup = flow_.Clone();

  IntegrationOutcome outcome;
  auto md_report = [&] {
    QUARRY_SPAN("integrator.md_integrate");
    return md_integrator_.Integrate(&schema_, partial.schema);
  }();
  if (!md_report.ok()) {
    schema_ = std::move(schema_backup);
    return md_report.status().WithContext("MD integration of '" + ir.id +
                                          "'");
  }
  outcome.md = std::move(*md_report);
  // When stage 1 merged a partial fact into an existing same-grain fact,
  // the partial flow must load the merged fact's table (its new measure
  // columns fill in via the loader's merge semantics).
  etl::Flow flow_to_integrate = partial.flow.Clone();
  std::vector<std::string> loader_ids;
  for (const auto& [id, node] : flow_to_integrate.nodes()) {
    if (node.type == etl::OpType::kLoader) loader_ids.push_back(id);
  }
  for (const std::string& id : loader_ids) {
    etl::Node* node = *flow_to_integrate.GetMutableNode(id);
    auto table_it = node->params.find("table");
    if (table_it == node->params.end()) continue;
    auto mapped = outcome.md.fact_mapping.find(table_it->second);
    if (mapped != outcome.md.fact_mapping.end() &&
        mapped->second != table_it->second) {
      table_it->second = mapped->second;
    }
  }
  if (Status live = CheckContext(ctx, "ETL integration of '" + ir.id + "'");
      !live.ok()) {
    schema_ = std::move(schema_backup);
    return live;
  }
  auto etl_report = [&] {
    QUARRY_SPAN("integrator.etl_integrate");
    return etl_integrator_.Integrate(&flow_, flow_to_integrate);
  }();
  if (!etl_report.ok()) {
    schema_ = std::move(schema_backup);
    flow_ = std::move(flow_backup);
    return etl_report.status().WithContext("ETL integration of '" + ir.id +
                                           "'");
  }
  outcome.etl = std::move(*etl_report);

  if (Status live =
          CheckContext(ctx, "post-integration verification of '" + ir.id +
                                "'");
      !live.ok()) {
    schema_ = std::move(schema_backup);
    flow_ = std::move(flow_backup);
    return live;
  }
  requirements_.emplace(ir.id, ir);
  Status verified = [&] {
    QUARRY_SPAN("integrator.verify_all");
    return VerifyAll();
  }();
  if (!verified.ok()) {
    requirements_.erase(ir.id);
    schema_ = std::move(schema_backup);
    flow_ = std::move(flow_backup);
    return verified.WithContext("post-integration verification of '" + ir.id +
                                "'");
  }
  obs::MetricsRegistry::Instance()
      .histogram("quarry_integrator_round_micros",
                 "Wall time of a successful integration round in "
                 "microseconds")
      .Observe(round_timer.ElapsedMicros());
  PublishRoundGauges(outcome, schema_, flow_, requirements_.size());
  QUARRY_SPAN_ATTR(span, "complexity_after", outcome.md.complexity_after);
  QUARRY_SPAN_ATTR(span, "nodes_reused",
                   static_cast<int64_t>(outcome.etl.nodes_reused));
  return outcome;
}

Status DesignIntegrator::RemoveRequirement(const std::string& ir_id) {
  auto it = requirements_.find(ir_id);
  if (it == requirements_.end()) {
    return Status::NotFound("requirement '" + ir_id + "'");
  }
  md::MdSchema schema_backup = schema_;
  etl::Flow flow_backup = flow_.Clone();
  req::InformationRequirement ir_backup = it->second;

  schema_.PruneRequirement(ir_id);
  flow_.PruneRequirement(ir_id);
  requirements_.erase(it);

  Status verified = VerifyAll();
  if (!verified.ok()) {
    schema_ = std::move(schema_backup);
    flow_ = std::move(flow_backup);
    requirements_.emplace(ir_backup.id, std::move(ir_backup));
    return verified.WithContext("removal of '" + ir_id + "'");
  }
  return Status::OK();
}

Result<IntegrationOutcome> DesignIntegrator::ChangeRequirement(
    const req::InformationRequirement& ir,
    const interpreter::PartialDesign& partial, const ExecContext* ctx) {
  // Check before the removal: a cancelled change must not get as far as
  // removing the old version of the requirement.
  QUARRY_RETURN_NOT_OK(
      CheckContext(ctx, "change of requirement '" + ir.id + "'"));
  auto it = requirements_.find(ir.id);
  if (it == requirements_.end()) {
    return Status::NotFound("requirement '" + ir.id + "'");
  }
  md::MdSchema schema_backup = schema_;
  etl::Flow flow_backup = flow_.Clone();
  req::InformationRequirement previous = it->second;
  QUARRY_RETURN_NOT_OK(RemoveRequirement(ir.id));
  Result<IntegrationOutcome> outcome = AddRequirement(ir, partial, ctx);
  if (!outcome.ok()) {
    // The new definition does not integrate: the old one stays in place.
    schema_ = std::move(schema_backup);
    flow_ = std::move(flow_backup);
    requirements_.emplace(previous.id, std::move(previous));
  }
  return outcome;
}

Status DesignIntegrator::VerifyAll() const {
  if (!schema_.facts().empty() || !schema_.dimensions().empty()) {
    QUARRY_RETURN_NOT_OK(md::CheckSound(schema_, onto_));
  }
  if (flow_.num_nodes() > 0) {
    QUARRY_RETURN_NOT_OK(flow_.Validate());
  }
  for (const auto& [id, ir] : requirements_) {
    QUARRY_RETURN_NOT_OK(CheckSatisfies(schema_, flow_, ir));
  }
  return Status::OK();
}

}  // namespace quarry::integrator
