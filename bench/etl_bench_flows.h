#ifndef QUARRY_BENCH_ETL_BENCH_FLOWS_H_
#define QUARRY_BENCH_ETL_BENCH_FLOWS_H_

// The two TPC-H flows bench_etl_vectorized times (BENCH_vectorized.json).
// The differential harness (tests/etl_parallel_test.cc) runs the same flows
// against the reference executor, so the timed flows are also the checked
// ones.
//
//   scan_agg             lineitem scan -> filter (l_quantity < 24) ->
//                        derived revenue column -> projection -> group-by
//                        aggregation -> tiny loader. Scan-dominated with a
//                        3-row output.
//   filter_project_load  same scan + filter + projection but loading every
//                        surviving row: bounds the win when the sink is
//                        write-heavy.

#include <map>
#include <string>
#include <utility>

#include "etl/flow.h"

namespace quarry::benchflows {

inline etl::Node MakeNode(const std::string& id, etl::OpType type,
                          std::map<std::string, std::string> params) {
  etl::Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

/// Shared scan front: lineitem -> extract -> filter -> revenue column ->
/// projection onto (l_returnflag, l_quantity, revenue).
inline void AddScanFront(etl::Flow* flow) {
  (void)flow->AddNode(
      MakeNode("ds", etl::OpType::kDatastore, {{"table", "lineitem"}}));
  (void)flow->AddNode(
      MakeNode("ex", etl::OpType::kExtraction, {{"table", "lineitem"}}));
  (void)flow->AddNode(MakeNode("sel", etl::OpType::kSelection,
                               {{"predicate", "l_quantity < 24"}}));
  (void)flow->AddNode(
      MakeNode("fn", etl::OpType::kFunction,
               {{"column", "revenue"},
                {"expr", "l_extendedprice * (1 - l_discount)"}}));
  (void)flow->AddNode(
      MakeNode("proj", etl::OpType::kProjection,
               {{"columns", "l_returnflag,l_quantity,revenue"}}));
  (void)flow->AddEdge("ds", "ex");
  (void)flow->AddEdge("ex", "sel");
  (void)flow->AddEdge("sel", "fn");
  (void)flow->AddEdge("fn", "proj");
}

inline etl::Flow BuildScanAggFlow() {
  etl::Flow flow("scan_agg");
  AddScanFront(&flow);
  (void)flow.AddNode(MakeNode(
      "agg", etl::OpType::kAggregation,
      {{"group", "l_returnflag"}, {"aggs", "SUM(revenue) AS revenue"}}));
  (void)flow.AddNode(
      MakeNode("load", etl::OpType::kLoader, {{"table", "fact_revenue"}}));
  (void)flow.AddEdge("proj", "agg");
  (void)flow.AddEdge("agg", "load");
  return flow;
}

inline etl::Flow BuildFilterProjectLoadFlow() {
  etl::Flow flow("filter_project_load");
  AddScanFront(&flow);
  (void)flow.AddNode(
      MakeNode("load", etl::OpType::kLoader, {{"table", "wide_out"}}));
  (void)flow.AddEdge("proj", "load");
  return flow;
}

}  // namespace quarry::benchflows

#endif  // QUARRY_BENCH_ETL_BENCH_FLOWS_H_
