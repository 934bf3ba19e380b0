#ifndef QUARRY_ETL_FLOW_H_
#define QUARRY_ETL_FLOW_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace quarry::etl {

/// Operator vocabulary of the logical ETL model (xLM). The set mirrors the
/// node types visible in the paper's Figures 3-4 (Datastore, Extraction,
/// Selection, Projection, Join, Aggregation, Function, Loader) plus the
/// usual flow-algebra extras (Sort, Union, SurrogateKey).
enum class OpType {
  kDatastore,     ///< Handle to a source table. params: table
  kExtraction,    ///< Reads rows from its datastore input. params: table
  kSelection,     ///< Filter. params: predicate (expression text)
  kProjection,    ///< Column pruning. params: columns ("a,b,c")
  kJoin,          ///< Equi-join. params: left, right (column lists), type
  kAggregation,   ///< Group-by. params: group ("a,b"),
                  ///<   aggs ("SUM(x) AS sx;AVG(y) AS ay")
  kFunction,      ///< Derived column. params: column, expr
  kSort,          ///< params: by ("a,b"), desc ("true"/"false")
  kUnion,         ///< Bag union of compatible inputs.
  kSurrogateKey,  ///< Dense int key per distinct key combo.
                  ///<   params: column, keys ("a,b")
  kLoader,        ///< Writes to a target table. params: table, keys
};

const char* OpTypeToString(OpType type);
Result<OpType> OpTypeFromString(const std::string& text);

/// How many inputs an operator consumes (-1 = variadic, >=2).
int OpArity(OpType type);

/// \brief A node of an ETL flow.
struct Node {
  std::string id;    ///< Unique within the flow (the paper uses names).
  OpType type = OpType::kExtraction;
  std::map<std::string, std::string> params;
  /// Which information requirements this node serves (design trace; drives
  /// incremental removal — paper scenario "accommodating changes").
  std::set<std::string> requirement_ids;

  /// Canonical "what this operator does" string: type + sorted params.
  /// Two nodes with equal signatures and equal inputs compute the same
  /// dataset — the reuse test of the ETL Process Integrator.
  std::string Signature() const;
};

struct Edge {
  std::string from;
  std::string to;
  bool operator==(const Edge&) const = default;
};

/// \brief A logical ETL process: a DAG of operator nodes (xLM's <design>).
class Flow {
 public:
  Flow() = default;
  explicit Flow(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction ---------------------------------------------------------

  /// Adds a node; id must be new.
  Status AddNode(Node node);

  /// Connects two existing nodes (duplicate edges rejected).
  Status AddEdge(const std::string& from, const std::string& to);

  /// Removes a node and every incident edge.
  Status RemoveNode(const std::string& id);

  Status RemoveEdge(const std::string& from, const std::string& to);

  /// Replaces the edge from->to with new_from->new_to *at the same
  /// position* in the edge list. Edge order is semantically load-bearing
  /// (a Join's first incoming edge is its left input), so graph rewrites
  /// must use this instead of RemoveEdge+AddEdge.
  Status ReplaceEdge(const std::string& from, const std::string& to,
                     const std::string& new_from, const std::string& new_to);

  // -- access ---------------------------------------------------------------

  bool HasNode(const std::string& id) const { return nodes_.count(id) > 0; }
  Result<const Node*> GetNode(const std::string& id) const;
  Result<Node*> GetMutableNode(const std::string& id);

  const std::map<std::string, Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Ids of nodes feeding `id`, in edge insertion order (join semantics
  /// depend on input order: first edge = left input).
  std::vector<std::string> Predecessors(const std::string& id) const;
  std::vector<std::string> Successors(const std::string& id) const;

  /// Successor adjacency of every node (edge insertion order per node) in
  /// one O(edges) pass — the per-id Successors() is O(edges) per call,
  /// which a pass over every node would turn into O(V·E).
  std::map<std::string, std::vector<std::string>> SuccessorLists() const;

  /// Nodes with no incoming / outgoing edges.
  std::vector<std::string> SourceIds() const;
  std::vector<std::string> SinkIds() const;

  /// Topological order; fails with ValidationError on a cycle.
  Result<std::vector<std::string>> TopologicalOrder() const;

  /// Structural sanity: arities match OpArity, sources are datastores,
  /// sinks are loaders, graph is acyclic and connected-enough (every
  /// non-source node reachable from a source).
  Status Validate() const;

  /// Deep copy.
  Flow Clone() const;

  /// Union of requirement ids across all nodes.
  std::set<std::string> RequirementIds() const;

  /// Removes `requirement_id` from every node's trace and deletes nodes
  /// whose trace becomes empty (with their edges). Returns removed count.
  size_t PruneRequirement(const std::string& requirement_id);

 private:
  std::string name_;
  std::map<std::string, Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_FLOW_H_
