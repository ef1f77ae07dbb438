"""Discovery-state checkpointing for retryable runs.

Everything a contour-based discovery algorithm has *certified* about the
hidden truth -- exact selectivities, lower-bound indices, the contour it
has reached, which (contour, epp) spill executions already ran -- is
engine-independent fact: an execution that certified ``qa.j > q.j``
stays certified after a crash. :class:`DiscoveryCheckpoint` snapshots
that state as the run progresses, so a retried run resumes discovery
from the crash contour instead of re-learning from contour 1, and never
re-executes a completed contour.

Checkpoints are passive and live in memory: capturing one never
alters the execution sequence (which is what lets the guard promise
byte-identical behaviour when no faults fire) and never touches disk.
A sweep killed mid-unit does not resume from one; its write-ahead
journal re-runs the in-flight unit from scratch (DESIGN.md §7).
:meth:`DiscoveryCheckpoint.save` and :meth:`~DiscoveryCheckpoint.load`
persist a snapshot to JSON only when a caller asks for it.
"""

import json
import warnings

from repro.common.atomicio import atomic_write_json


class DiscoveryCheckpoint:
    """Resumable snapshot of one discovery run's certified knowledge.

    ``qa_index`` optionally names the hidden truth the snapshot belongs
    to, so the guard can tell a snapshot of *this* run from one left by
    a different truth's run (which it clears instead of resuming from).
    """

    __slots__ = ("qa_index", "active", "contour", "resolved", "qrun",
                 "remaining", "executed", "captures")

    def __init__(self, qa_index=None):
        self.qa_index = None if qa_index is None else tuple(qa_index)
        self.clear()

    def clear(self):
        """Forget everything (used when captured state may be poisoned)."""
        self.active = False
        self.contour = 0
        #: dim -> exactly learnt grid index.
        self.resolved = {}
        #: Inclusive lower-bound grid indices per dimension.
        self.qrun = None
        #: Unresolved epp names (``None`` = algorithm keeps no EPP state).
        self.remaining = None
        #: (contour, epp) spill executions already issued.
        self.executed = set()
        #: Number of captures taken (diagnostics).
        self.captures = 0

    # ------------------------------------------------------------------

    def capture(self, contour, resolved=None, qrun=None, remaining=None,
                executed=None):
        """Record progress; called by algorithms at every state change."""
        self.active = True
        self.contour = max(int(contour), 0)
        if resolved is not None:
            self.resolved = dict(resolved)
        if qrun is not None:
            self.qrun = list(qrun)
        if remaining is not None:
            self.remaining = set(remaining)
        if executed is not None:
            self.executed = set(executed)
        self.captures += 1

    def restore(self, state):
        """Load captured knowledge into a ``_DiscoveryState``; returns
        the contour to resume from."""
        if self.resolved:
            state.resolved.update(self.resolved)
        if self.qrun is not None:
            for dim, bound in enumerate(self.qrun):
                state.qrun[dim] = max(state.qrun[dim], int(bound))
        if self.remaining is not None:
            state.remaining = set(self.remaining)
        if self.executed:
            state.executed |= set(self.executed)
        return self.contour

    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "qa_index": None if self.qa_index is None
            else [int(i) for i in self.qa_index],
            "active": self.active,
            "contour": self.contour,
            "resolved": {str(d): int(i) for d, i in self.resolved.items()},
            "qrun": None if self.qrun is None else [int(b) for b in self.qrun],
            "remaining": None if self.remaining is None
            else sorted(self.remaining),
            "executed": sorted([int(c), e] for c, e in self.executed),
            "captures": self.captures,
        }

    @classmethod
    def from_dict(cls, payload):
        checkpoint = cls()
        qa = payload.get("qa_index")
        checkpoint.qa_index = None if qa is None \
            else tuple(int(i) for i in qa)
        checkpoint.active = bool(payload.get("active", False))
        checkpoint.contour = int(payload.get("contour", 0))
        checkpoint.resolved = {
            int(d): int(i)
            for d, i in (payload.get("resolved") or {}).items()
        }
        qrun = payload.get("qrun")
        checkpoint.qrun = None if qrun is None else [int(b) for b in qrun]
        remaining = payload.get("remaining")
        checkpoint.remaining = None if remaining is None else set(remaining)
        checkpoint.executed = {
            (int(c), e) for c, e in payload.get("executed", [])
        }
        checkpoint.captures = int(payload.get("captures", 0))
        return checkpoint

    def save(self, path):
        """Persist to ``path`` atomically: a crash mid-save leaves the
        previous snapshot intact, never a torn file."""
        atomic_write_json(path, self.to_dict(), fsync=False)

    @classmethod
    def load(cls, path):
        """Load a persisted snapshot, rejecting damage instead of
        crashing on it.

        A truncated or corrupt file (pre-atomic-write leftovers, disk
        damage) is *reported* via a warning and yields a fresh inactive
        checkpoint -- losing a checkpoint costs a re-discovery, never
        the run.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("checkpoint payload is not an object")
            return cls.from_dict(payload)
        except FileNotFoundError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                "discarding corrupt checkpoint %s (%s); discovery will "
                "restart from scratch" % (path, exc),
                RuntimeWarning, stacklevel=2)
            return cls()

    def __repr__(self):
        if not self.active:
            return "DiscoveryCheckpoint(inactive)"
        return "DiscoveryCheckpoint(contour=%d, resolved=%r, qrun=%r)" % (
            self.contour, self.resolved, self.qrun
        )
