#ifndef QUARRY_ETL_COST_MODEL_H_
#define QUARRY_ETL_COST_MODEL_H_

#include <map>
#include <string>

#include "common/result.h"
#include "etl/flow.h"

namespace quarry::etl {

/// \brief Configurable cost model for ETL flows (paper §2.3: "configurable
/// cost models that may consider different quality factors of an ETL
/// process, e.g., overall execution time").
///
/// Cost is estimated bottom-up from source cardinalities: each operator
/// charges `weight(op) × input_rows` (Sort charges an extra log factor),
/// and cardinalities propagate with per-operator ratios. The weights are
/// fixed per-row charges relative to Extraction = 1 (cost_model.cc).
struct CostModelConfig {
  double selection_selectivity = 0.33;  ///< Output fraction of a Selection.
  double aggregation_ratio = 0.2;       ///< Groups per input row.
  /// Join output scaling. Joins are estimated as foreign-key joins with the
  /// key (dimension) side on the right: output = fanout × left_rows ×
  /// (right_rows / right_base_rows), where right_base_rows is the
  /// cardinality of the datastore the right input descends from — so a
  /// selection pushed onto the build side correctly shrinks the join
  /// output.
  double join_fanout = 1.0;
};

/// Result of estimating one flow.
struct FlowCostEstimate {
  double total_cost = 0;
  /// Estimated input cardinality summed over operators — directly
  /// comparable to ExecutionReport::rows_processed.
  double rows_processed = 0;
  std::map<std::string, double> node_output_rows;
};

/// Estimates `flow` given source-table cardinalities. Unknown tables
/// default to 0 rows (and are reported in the estimate like empty inputs).
Result<FlowCostEstimate> EstimateCost(
    const Flow& flow, const std::map<std::string, int64_t>& table_rows,
    const CostModelConfig& config = CostModelConfig());

}  // namespace quarry::etl

#endif  // QUARRY_ETL_COST_MODEL_H_
