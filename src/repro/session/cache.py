"""Content-addressed artifact cache for exploration spaces and contours.

The paper (§7) frames ESS/contour construction as an offline,
amortizable activity: build once, reuse across queries and sessions.
This module is the reuse half of that bargain. An :class:`ArtifactCache`
holds built :class:`~repro.ess.space.ExplorationSpace` /
:class:`~repro.ess.contours.ContourSet` pairs behind a two-tier lookup:

* **memory** -- an LRU of recently used spaces (one entry per
  :class:`SpaceKey`), shared by every experiment, CLI invocation and
  sweep running in the process;
* **disk** -- optional, content-addressed ``.npz`` archives written
  through :mod:`repro.ess.persistence`, so a space built in one process
  is loaded back (no optimizer calls) by the next.

A :class:`SpaceKey` is derived purely from the *content* that determines
the build output -- query identity (name, epp declaration, relation set,
catalog), grid geometry (resolution, ``s_min``) and build mode -- so two
sessions asking for the same artifact hash to the same archive file,
while any change to the inputs (different resolution, different
predicate set, bumped archive format) changes the address and therefore
*misses* instead of loading a stale surface. Archives whose embedded
fingerprint disagrees with the requesting query are likewise treated as
misses and rebuilt, never trusted.

Contours are derived data (seconds, not minutes) and are cached in
memory only, attached to their space's cache entry keyed by cost ratio.
"""

import hashlib
import json
import os
import threading
from collections import OrderedDict

from repro.common.atomicio import FileLock, LockTimeoutError
from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet
from repro.ess.persistence import FORMAT_VERSION, load_space, save_space
from repro.ess.space import default_resolution
from repro.obs.tracer import NULL_TRACER

#: Default number of spaces kept in the in-memory LRU tier.
MEMORY_SLOTS = 64


class SpaceKey:
    """Content address of one built exploration space.

    Everything that changes the build output is part of the key, and
    nothing else.
    """

    __slots__ = ("query_name", "epps", "tables", "catalog", "resolution",
                 "mode", "s_min", "rng")

    def __init__(self, query_name, epps, tables, catalog, resolution,
                 mode, s_min, rng):
        self.query_name = query_name
        self.epps = tuple(epps)
        self.tables = tuple(sorted(tables))
        self.catalog = catalog
        self.resolution = resolution
        self.mode = mode
        self.s_min = s_min
        self.rng = rng

    @classmethod
    def of(cls, query, resolution=None, mode="fast", s_min=1e-6, rng=0):
        """Key for building ``query`` with the given knobs.

        ``resolution=None`` is normalised to the dimensionality default
        so explicit and implicit requests for the same grid share an
        entry.
        """
        if resolution is None:
            resolution = default_resolution(query.dimensions)
        return cls(query.name, query.epps, query.tables,
                   query.catalog.name, int(resolution), mode,
                   float(s_min), int(rng))

    def _tuple(self):
        return (self.query_name, self.epps, self.tables, self.catalog,
                self.resolution, self.mode, self.s_min, self.rng)

    def __eq__(self, other):
        return isinstance(other, SpaceKey) and \
            self._tuple() == other._tuple()

    def __hash__(self):
        return hash(self._tuple())

    def digest(self):
        """Stable content hash naming the on-disk archive.

        The persistence format version is folded in so a format bump
        re-addresses every archive (old files become unreachable rather
        than mis-loaded).
        """
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "query": self.query_name,
                "epps": list(self.epps),
                "tables": list(self.tables),
                "catalog": self.catalog,
                "resolution": self.resolution,
                "mode": self.mode,
                "s_min": self.s_min,
                "rng": self.rng,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def __repr__(self):
        return "SpaceKey(%s/%s, res=%d, mode=%s)" % (
            self.query_name, "x".join(self.epps), self.resolution,
            self.mode)


class CacheStats:
    """Counters describing how effective the cache has been."""

    __slots__ = ("memory_hits", "disk_hits", "builds", "contour_hits",
                 "contour_builds", "invalidations")

    def __init__(self):
        self.memory_hits = 0
        self.disk_hits = 0
        self.builds = 0
        self.contour_hits = 0
        self.contour_builds = 0
        #: Stale disk archives that failed fingerprint/version checks
        #: and were rebuilt instead of loaded.
        self.invalidations = 0

    @property
    def hits(self):
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self):
        return self.hits + self.builds

    def hit_rate(self):
        """Fraction of space lookups served without a build."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def describe(self):
        """One-line summary for benchmark reports."""
        return ("space cache: %d memory + %d disk hits, %d builds "
                "(hit rate %.0f%%); contours: %d hits, %d builds" % (
                    self.memory_hits, self.disk_hits, self.builds,
                    100.0 * self.hit_rate(), self.contour_hits,
                    self.contour_builds))

    def __repr__(self):
        return "CacheStats(%s)" % self.describe()


class _Entry:
    """One cached space plus its derived contour sets, keyed by ratio."""

    __slots__ = ("space", "contours")

    def __init__(self, space):
        self.space = space
        self.contours = {}


class ArtifactCache:
    """Two-tier (memory LRU + content-addressed disk) artifact store.

    The memory tier is safe for concurrent use from many threads (the
    serving daemon resolves every tenant's requests against one cache
    on a thread pool): all LRU bookkeeping -- lookup, move-to-end,
    insert, eviction, contour attachment, stats -- happens under a
    single mutex. Builds and disk I/O run *outside* the mutex, so a
    slow cold build never blocks hits on other keys; two threads
    racing a cold miss on the same key may both build (the serving
    layer's request coalescing is what prevents that duplication), but
    the loser's result is simply discarded in favour of the entry the
    winner already published -- never a torn LRU.
    """

    #: Trace sink; lookups emit ``cache-hit`` / ``cache-miss`` events
    #: and builds run inside a ``space-build`` span when enabled.
    tracer = NULL_TRACER

    def __init__(self, cache_dir=None, memory_slots=MEMORY_SLOTS):
        if memory_slots < 1:
            raise ValueError("memory_slots must be >= 1")
        self.cache_dir = cache_dir
        self.memory_slots = memory_slots
        self._entries = OrderedDict()
        self._mutex = threading.RLock()
        self.stats = CacheStats()

    def __len__(self):
        with self._mutex:
            return len(self._entries)

    def clear(self):
        """Drop the memory tier (disk archives are left in place)."""
        with self._mutex:
            self._entries.clear()

    def probe(self, key):
        """Which tier holds ``key`` right now: ``"memory"``, ``"disk"``
        or ``None`` -- without building, loading or touching LRU order.

        The serving daemon's degradation ladder uses this to decide
        whether a request can be answered warm (serve the cached
        artifact) or would pay a cold build it may not have the
        deadline budget for.
        """
        with self._mutex:
            if key in self._entries:
                return "memory"
        if self.cache_dir is not None \
                and os.path.exists(self._archive_path(key)):
            return "disk"
        return None

    # ------------------------------------------------------------------
    # space tier

    def space(self, key, query, builder):
        """The built space for ``key``, from memory, disk, or ``builder``.

        ``builder`` is a zero-argument callable producing a built
        :class:`ExplorationSpace`; it runs only on a full miss, after
        which the result is stored in both tiers.
        """
        return self._entry(key, query, builder).space

    def contours(self, key, query, builder, ratio):
        """The ``(space, contours)`` pair for ``key`` at ``ratio``."""
        entry = self._entry(key, query, builder)
        with self._mutex:
            contours = entry.contours.get(ratio)
            if contours is not None:
                self.stats.contour_hits += 1
                return entry.space, contours
            self.stats.contour_builds += 1
        # Build outside the mutex (contour construction can take
        # seconds); a concurrent builder of the same ratio loses the
        # publish race below and its result is discarded.
        contours = ContourSet(entry.space, ratio=ratio)
        with self._mutex:
            published = entry.contours.setdefault(ratio, contours)
        return entry.space, published

    def _entry(self, key, query, builder):
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.memory_hits += 1
                self._entries.move_to_end(key)
                hit = True
            else:
                hit = False
        if hit:
            if self.tracer.enabled:
                self.tracer.event("cache-hit", tier="memory",
                                  key=repr(key))
                self.tracer.metrics.counter("cache.hit.memory").inc()
            return entry
        space = self._load_disk(key, query)
        if space is None:
            with self._mutex:
                self.stats.builds += 1
            if self.tracer.enabled:
                self.tracer.event("cache-miss", key=repr(key))
                self.tracer.metrics.counter("cache.miss").inc()
                with self.tracer.span("space-build", key=repr(key)):
                    space = builder()
            else:
                space = builder()
            self._store_disk(key, space)
        elif self.tracer.enabled:
            self.tracer.event("cache-hit", tier="disk", key=repr(key))
            self.tracer.metrics.counter("cache.hit.disk").inc()
        with self._mutex:
            raced = self._entries.get(key)
            if raced is not None:
                # A concurrent builder published first; adopt its entry
                # so every caller shares one space object.
                self._entries.move_to_end(key)
                return raced
            entry = _Entry(space)
            self._entries[key] = entry
            while len(self._entries) > self.memory_slots:
                self._entries.popitem(last=False)
        return entry

    # ------------------------------------------------------------------
    # disk tier

    def _archive_path(self, key):
        return os.path.join(self.cache_dir, key.digest() + ".npz")

    def _load_disk(self, key, query):
        if self.cache_dir is None:
            return None
        path = self._archive_path(key)
        if not os.path.exists(path):
            return None
        try:
            space = load_space(query, path)
        except (DiscoveryError, OSError, ValueError, KeyError):
            # Stale, truncated or foreign archive: a miss, never
            # garbage. The rebuild below overwrites it.
            with self._mutex:
                self.stats.invalidations += 1
            return None
        with self._mutex:
            self.stats.disk_hits += 1
        return space

    def _store_disk(self, key, space):
        """Publish the archive atomically, one writer at a time.

        The archive is written to a same-directory temp file and
        renamed into place, so concurrent readers only ever see a
        complete ``.npz`` (a killed writer leaves a temp file, never a
        truncated archive). A lock file serialises writers; losing the
        race is harmless -- the winner's archive is byte-equivalent
        because the path is content-addressed -- so a lock timeout
        skips the store instead of failing the build.
        """
        if self.cache_dir is None or \
                not getattr(space, "persistable", True):
            # Synthetic/regime spaces are rebuilt from their seeds in
            # milliseconds and have no npz representation; the memory
            # tier still caches them.
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._archive_path(key)
        lock = FileLock(path + ".lock", timeout=10.0)
        try:
            lock.acquire()
        except LockTimeoutError:
            return
        tmp = os.path.join(
            self.cache_dir,
            ".%s.tmp.%d.npz" % (key.digest(), os.getpid()))
        try:
            save_space(space, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
            lock.release()
