"""Save/load exploration spaces (paper §7, third deployment point).

Contour construction is "computationally intensive ... for canned
queries, it may be feasible to carry out an offline enumeration". This
module persists a built :class:`ExplorationSpace` -- grid, POSP plan
trees, per-plan cost surfaces, plan diagram and optimal cost surface --
into a single ``.npz`` archive, so the expensive preprocessing runs
once and production queries load it back in milliseconds.

Plan trees serialise to a JSON-able recursive structure; the query
itself is *not* serialised (it is code, not data) -- loading validates
that the provided query matches the archive's fingerprint.
"""

import json

import numpy as np

from repro.common.errors import DiscoveryError
from repro.ess.grid import SelectivityGrid
from repro.ess.space import ExplorationSpace
from repro.plans.nodes import (
    HashJoin,
    IndexNLJoin,
    JoinNode,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    finalize_plan,
)

#: Archive format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1

_JOIN_KINDS = {
    "HashJoin": HashJoin,
    "MergeJoin": MergeJoin,
    "NestedLoopJoin": NestedLoopJoin,
}


def plan_to_dict(node):
    """Recursively serialise a plan tree to JSON-able primitives."""
    if isinstance(node, SeqScan):
        return {
            "kind": "SeqScan",
            "table": node.table,
            "filters": list(node.filter_names),
        }
    if isinstance(node, IndexNLJoin):
        return {
            "kind": "IndexNLJoin",
            "predicates": list(node.predicate_names),
            "inner_table": node.inner_table,
            "inner_column": node.inner_column,
            "inner_filters": list(node.inner_filters),
            "outer": plan_to_dict(node.outer),
        }
    if isinstance(node, JoinNode):
        return {
            "kind": type(node).__name__,
            "predicates": list(node.predicate_names),
            "left": plan_to_dict(node.left),
            "right": plan_to_dict(node.right),
        }
    raise DiscoveryError(
        "cannot serialise node type %r" % type(node).__name__)


def plan_from_dict(data):
    """Inverse of :func:`plan_to_dict` (unfinalised tree)."""
    kind = data["kind"]
    if kind == "SeqScan":
        return SeqScan(data["table"], tuple(data["filters"]))
    if kind == "IndexNLJoin":
        return IndexNLJoin(
            plan_from_dict(data["outer"]),
            tuple(data["predicates"]),
            data["inner_table"],
            data["inner_column"],
            tuple(data["inner_filters"]),
        )
    if kind in _JOIN_KINDS:
        return _JOIN_KINDS[kind](
            plan_from_dict(data["left"]),
            plan_from_dict(data["right"]),
            tuple(data["predicates"]),
        )
    raise DiscoveryError("unknown serialised node kind %r" % kind)


def _fingerprint(query, grid):
    return {
        "query": query.name,
        "epps": list(query.epps),
        "tables": sorted(query.tables),
        "shape": list(grid.shape),
    }


def save_space(space, path):
    """Persist a built space to ``path`` (a ``.npz`` archive)."""
    if not space.built:
        raise DiscoveryError("only built spaces can be saved")
    meta = {
        "version": FORMAT_VERSION,
        "fingerprint": _fingerprint(space.query, space.grid),
        "plans": [plan_to_dict(info.tree) for info in space.plans],
    }
    arrays = {
        "meta": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "plan_at": space.plan_at,
        "opt_cost": space.opt_cost,
        "plan_costs": np.stack([info.cost for info in space.plans]),
    }
    for d in range(space.grid.dims):
        arrays["grid_values_%d" % d] = space.grid.values[d]
    np.savez_compressed(path, **arrays)
    return path


def load_space(query, path):
    """Load a space saved by :func:`save_space` for ``query``.

    The archive's fingerprint (query name, epp declaration, relation
    set, grid shape) must match; plan cost surfaces are restored
    verbatim, so no optimizer call happens at load time.
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("version") != FORMAT_VERSION:
            raise DiscoveryError(
                "unsupported archive version %r" % meta.get("version"))
        fingerprint = meta["fingerprint"]
        plan_at = archive["plan_at"]
        opt_cost = archive["opt_cost"]
        plan_costs = archive["plan_costs"]
        values = [
            archive["grid_values_%d" % d]
            for d in range(len(fingerprint["shape"]))
        ]

    expected = {
        "query": query.name,
        "epps": list(query.epps),
        "tables": sorted(query.tables),
        "shape": list(plan_at.shape),
    }
    if fingerprint != expected:
        raise DiscoveryError(
            "archive fingerprint mismatch: saved for %r, loading %r"
            % (fingerprint, expected))

    grid = SelectivityGrid(
        len(values),
        [len(v) for v in values],
        s_min=[float(v[0]) for v in values],
        s_max=[float(v[-1]) for v in values],
    )
    # Replace the synthesised geomspace with the exact stored values to
    # avoid any float round-trip drift.
    grid.values = [np.array(v) for v in values]

    space = ExplorationSpace(query, grid=grid)
    for plan_data, cost in zip(meta["plans"], plan_costs):
        tree = finalize_plan(plan_from_dict(plan_data))
        info = space.register_plan_with_cost(tree, cost)
        assert info is not None
    space.plan_at = plan_at
    space.opt_cost = opt_cost
    space.built = True
    return space
