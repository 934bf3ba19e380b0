#include "etl/cost_model.h"

#include <cmath>

namespace quarry::etl {

namespace {

// Per-row processing charge of an operator, relative to Extraction = 1.
// No default case: -Wswitch names a new OpType here.
double OpWeight(OpType type) {
  switch (type) {
    case OpType::kDatastore:
      return 0.0;
    case OpType::kSelection:
    case OpType::kFunction:
      return 0.5;
    case OpType::kProjection:
      return 0.3;
    case OpType::kJoin:
      return 2.0;
    case OpType::kAggregation:
      return 1.5;
    case OpType::kUnion:
      return 0.2;
    case OpType::kExtraction:
    case OpType::kSort:
    case OpType::kSurrogateKey:
    case OpType::kLoader:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

Result<FlowCostEstimate> EstimateCost(
    const Flow& flow, const std::map<std::string, int64_t>& table_rows,
    const CostModelConfig& config) {
  QUARRY_ASSIGN_OR_RETURN(auto order, flow.TopologicalOrder());
  FlowCostEstimate estimate;
  // Cardinality of the datastore each node's data descends from (a join
  // keeps its probe/left side's base): lets the FK-join estimate translate
  // build-side filtering into output reduction.
  std::map<std::string, double> base_rows;
  for (const std::string& id : order) {
    const Node& node = *flow.GetNode(id).value();
    double rows_in = 0;
    std::vector<double> input_rows;
    std::vector<std::string> preds = flow.Predecessors(id);
    for (const std::string& pred : preds) {
      double r = estimate.node_output_rows.at(pred);
      input_rows.push_back(r);
      rows_in += r;
    }
    double rows_out = 0;
    double base = preds.empty() ? 0 : base_rows.at(preds[0]);
    switch (node.type) {
      case OpType::kDatastore: {
        auto it = node.params.find("table");
        if (it != node.params.end()) {
          auto rit = table_rows.find(it->second);
          rows_out = rit == table_rows.end()
                         ? 0.0
                         : static_cast<double>(rit->second);
        }
        base = rows_out;
        break;
      }
      case OpType::kSelection:
        rows_out = rows_in * config.selection_selectivity;
        break;
      case OpType::kAggregation:
        rows_out = rows_in * config.aggregation_ratio;
        break;
      case OpType::kJoin: {
        double lhs = input_rows.size() > 0 ? input_rows[0] : 0;
        double rhs = input_rows.size() > 1 ? input_rows[1] : 0;
        double rhs_base = preds.size() > 1 ? base_rows.at(preds[1]) : 0;
        // FK-join estimate with the key side on the right; degrade to
        // max(l,r) when the right side's base is unknown/empty.
        rows_out = rhs_base > 0
                       ? lhs * (rhs / rhs_base) * config.join_fanout
                       : std::max(lhs, rhs) * config.join_fanout;
        base = preds.empty() ? 0 : base_rows.at(preds[0]);
        break;
      }
      case OpType::kUnion: {
        rows_out = rows_in;
        base = 0;
        for (const std::string& pred : preds) base += base_rows.at(pred);
        break;
      }
      case OpType::kLoader:
        rows_out = 0;
        break;
      default:
        rows_out = rows_in;  // Row-preserving unary operators.
    }
    base_rows[id] = base;
    double cost = OpWeight(node.type) * rows_in;
    if (node.type == OpType::kSort) {
      cost *= std::log2(rows_in + 2.0);
    }
    estimate.total_cost += cost;
    estimate.rows_processed += rows_in;
    estimate.node_output_rows[id] = rows_out;
  }
  return estimate;
}

}  // namespace quarry::etl
