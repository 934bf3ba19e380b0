#ifndef QUARRY_ETL_EQUIVALENCE_H_
#define QUARRY_ETL_EQUIVALENCE_H_

#include "common/result.h"
#include "etl/flow.h"
#include "etl/schema_inference.h"

namespace quarry::etl {

/// \brief Generic equivalence rules over logical ETL flows (paper §2.3:
/// "ETL Process Integrator aligns the order of ETL operations by applying
/// generic equivalence rules").
///
/// Each rule performs at most one semantics-preserving rewrite per call and
/// reports whether it changed the flow; Normalize drives them to a fixpoint
/// so that two flows computing the same result converge to the same shape —
/// which is what lets the integrator discover the largest overlap.
///
/// Safety: a node is only moved past another when it is that node's sole
/// consumer, so no other branch of the DAG observes a changed dataset.
///
/// Only the ETL integrator applies them: the deployer runs the flow as
/// designed, and the executor's column liveness (LiveColumnsOf in
/// etl/schema_inference.h, DESIGN.md §8) keeps dead columns out of the run.

/// Moves one Selection below its upstream Join (onto the side whose columns
/// cover the predicate) or below a row-preserving unary operator (Function,
/// Sort, SurrogateKey, Projection) that doesn't produce a referenced column.
Result<bool> PushSelectionDown(Flow* flow, const TableColumns& sources);

/// Reorders a pair of directly adjacent Selections so the lexicographically
/// smaller predicate runs first (deterministic canonical order; selections
/// commute).
Result<bool> CanonicalizeSelectionOrder(Flow* flow);

/// Drops a Projection whose output equals its input's columns.
Result<bool> RemoveRedundantProjection(Flow* flow,
                                       const TableColumns& sources);

/// Applies {PushSelectionDown, CanonicalizeSelectionOrder,
/// RemoveRedundantProjection} to a fixpoint. Returns the number of rewrites
/// applied.
Result<int> Normalize(Flow* flow, const TableColumns& sources);

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EQUIVALENCE_H_
