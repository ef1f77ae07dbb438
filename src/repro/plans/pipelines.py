"""Pipeline decomposition and spill-node identification (paper §3.1).

A *pipeline* is a maximal concurrently-executing subtree of the plan.
Blocking boundaries are introduced by:

* the build side of a :class:`HashJoin` (hash table fully built before
  probing starts),
* both inputs of a :class:`MergeJoin` (sorts), and
* the materialised inner of a :class:`NestedLoopJoin`.

Pipelines execute one at a time (no inter-pipeline concurrency), matching
the execution model assumed by the paper. The decomposition yields a
total execution order over pipelines, from which the spill-node rules
follow:

* **inter-pipeline**: epps are ordered by the execution order of their
  pipelines;
* **intra-pipeline**: upstream epps precede downstream epps.

The spill target of a plan is the *first* not-yet-resolved epp in this
total order, which guarantees every predicate upstream of the spill node
has exactly-known selectivity (Lemma 3.1's precondition).
"""

from repro.common.errors import PlanError
from repro.plans.nodes import (
    JOIN_LIKE,
    HashJoin,
    IndexNLJoin,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
)


class Pipeline:
    """An ordered group of plan nodes executing concurrently.

    ``nodes`` are listed upstream-first (the order data flows through
    them); ``order`` is the pipeline's position in the plan's execution
    sequence (0 = runs first).
    """

    __slots__ = ("nodes", "order")

    def __init__(self, nodes, order=None):
        self.nodes = list(nodes)
        self.order = order

    def __contains__(self, node):
        return any(node is member for member in self.nodes)

    def position(self, node):
        """Upstream-first index of ``node`` within this pipeline."""
        for index, member in enumerate(self.nodes):
            if member is node:
                return index
        raise PlanError("node not in pipeline")

    def __repr__(self):
        return "Pipeline(order=%s, %s)" % (
            self.order,
            " -> ".join(n.describe() for n in self.nodes),
        )


def decompose_pipelines(root):
    """Decompose a plan into its pipelines, in execution order."""
    current, completed = _decompose(root)
    pipelines = completed + [current]
    for order, pipeline in enumerate(pipelines):
        pipeline.order = order
    return pipelines


def _decompose(node):
    """Return ``(open_pipeline_containing_node, completed_pipelines)``."""
    if isinstance(node, SeqScan):
        return Pipeline([node]), []
    if isinstance(node, HashJoin):
        # Build (right) pipeline completes before the probe side opens.
        build_open, build_done = _decompose(node.right)
        probe_open, probe_done = _decompose(node.left)
        probe_open.nodes.append(node)
        return probe_open, build_done + [build_open] + probe_done
    if isinstance(node, MergeJoin):
        # Both inputs are sorted (blocking); the merge starts fresh.
        left_open, left_done = _decompose(node.left)
        right_open, right_done = _decompose(node.right)
        completed = left_done + [left_open] + right_done + [right_open]
        return Pipeline([node]), completed
    if isinstance(node, NestedLoopJoin):
        # Inner (right) side is materialised up front.
        inner_open, inner_done = _decompose(node.right)
        outer_open, outer_done = _decompose(node.left)
        outer_open.nodes.append(node)
        return outer_open, inner_done + [inner_open] + outer_done
    if isinstance(node, IndexNLJoin):
        # Pure lookups: no inner pipeline at all, the outer streams on.
        outer_open, outer_done = _decompose(node.outer)
        outer_open.nodes.append(node)
        return outer_open, outer_done
    raise PlanError("cannot decompose unknown node %r" % type(node).__name__)


def epp_total_order(plan, epp_names):
    """Total order over the plan's spillable epps (paper §3.1.3).

    Returns a list of ``(epp_name, join_node)`` pairs, earliest-spilled
    first. An epp whose predicate appears only as a residual (cycle-
    closing) condition has no node that can be spilled on and is omitted.
    """
    epp_set = set(epp_names)
    pipelines = decompose_pipelines(plan)
    keyed = []
    for pipeline in pipelines:
        for position, node in enumerate(pipeline.nodes):
            if isinstance(node, JOIN_LIKE) and node.primary_predicate in epp_set:
                keyed.append(((pipeline.order, position),
                              node.primary_predicate, node))
    keyed.sort(key=lambda item: item[0])
    ordered = []
    seen = set()
    for _key, name, node in keyed:
        if name not in seen:  # keep the earliest node per epp
            seen.add(name)
            ordered.append((name, node))
    return ordered


def spill_epp(plan, remaining_epps):
    """The epp this plan spills on, given the not-yet-resolved epp set.

    Returns ``(epp_name, join_node)`` or ``None`` when the plan has no
    spillable node for any remaining epp.

    The chosen node's subtree must contain no *other* unresolved epp
    (Lemma 3.1 requires every upstream selectivity to be exactly known).
    The total-order construction guarantees this for primary join
    predicates; the explicit check below also covers unresolved epps that
    appear only as residual, cycle-closing conditions inside the subtree.
    """
    remaining = set(remaining_epps)
    for name, node in epp_total_order(plan, remaining):
        subtree_epps = set()
        for member in node.walk():
            if isinstance(member, JOIN_LIKE):
                subtree_epps.update(member.predicate_names)
        if subtree_epps & remaining <= {name}:
            return name, node
    return None
