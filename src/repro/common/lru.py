"""A least-recently-used map held to a fixed budget, safe across threads.

Every cache a long-lived process keys by discovery state -- the grid
kernel's subtree surfaces, a contour set's pin bands, an algorithm's
step memo -- meets new keys for as long as new truths arrive. Each is a
:class:`BoundedCache` whose budget is a module constant, sized above the
working set of the benchmark sweeps.

Lock discipline (the serving daemon runs ``--max-inflight`` compute
threads over one shared instance): lookup, publish and eviction happen
under the cache's own lock; the value is computed outside it. Two
threads missing one key may both compute it, and the first publish
wins -- values are pure functions of their keys, so both are equal. An
evicted value stays valid for whoever still holds it.
"""

import threading
from collections import OrderedDict

#: Discovery states kept per step memo, and pins per contour set: every
#: pin a step choice reads keys one of the memo's rows.
MEMO_ROWS = 8192


class BoundedCache:
    """LRU map whose entries' total weight stays within ``budget``.

    ``weigh(value)`` gives an entry's weight (e.g. ``ndarray.nbytes``);
    without it every entry weighs one, so ``budget`` counts entries.
    The newest entry is never evicted, even when it alone exceeds the
    budget.
    """

    __slots__ = ("budget", "held", "_weigh", "_entries", "_lock")

    def __init__(self, budget, weigh=None):
        self.budget = budget
        #: Total weight of the entries held now.
        self.held = 0
        self._weigh = weigh
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def items(self):
        """A snapshot of the ``(key, value)`` pairs, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def get(self, key):
        """The value held for ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def setdefault(self, key, value):
        """Hold ``value`` for ``key`` unless one is held already, and
        return the held value; evict the least recently used entries
        while the held weight exceeds the budget."""
        weigh = self._weigh
        with self._lock:
            entries = self._entries
            held = entries.get(key)
            if held is not None:
                entries.move_to_end(key)
                return held
            entries[key] = value
            self.held += 1 if weigh is None else weigh(value)
            while self.held > self.budget and len(entries) > 1:
                _, old = entries.popitem(last=False)
                self.held -= 1 if weigh is None else weigh(old)
            return value
