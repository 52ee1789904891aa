"""Structure-of-arrays NumPy mirror of per-server availability.

The placement hot path — ``Cluster.best_fit_server`` and the batched
fill loops in :mod:`repro.schedulers.packing` — scores a demand against
every server's remaining capacity.  Doing that with a Python loop over
:class:`~repro.cluster.server.Server` objects costs O(M) attribute
lookups and method calls per query; at the paper's 30K-server scale
(Sec. 6.3.3) that dominates the scheduling overhead.  The mirror keeps
the same information as four flat ``float64`` arrays so every query
becomes a handful of vectorized kernels.

Data layout (all arrays indexed by ``server_id``):

* ``avail_cpu`` / ``avail_mem`` — the server's current availability,
  exactly the floats stored in ``Server._available``;
* ``alloc_cpu`` / ``alloc_mem`` — the server's current allocation,
  exactly the floats stored in ``Server._allocated``;
* ``cap_cpu`` / ``cap_mem`` — immutable capacities;
* ``up`` — boolean liveness mask (fault injection): down servers are
  masked out of every feasibility query.

Invariants:

* The arrays are updated *incrementally*: every ``Server.allocate`` /
  ``Server.release`` pushes that one server's new values through
  :meth:`AvailabilityMirror.update`, so the mirror always equals a fresh
  per-server recompute (``tests/cluster/test_mirror_property.py`` checks
  this after arbitrary allocate/kill/finish sequences).
* Scores are computed with the same floating-point expression and
  operation order as the scalar reference in ``tests/reference.py``
  (``demand.cpu * avail.cpu + demand.mem * avail.mem``, then an optional
  per-server weight), so the two produce bit-identical scores.
* Ties break to the **lowest server id**: ``np.argmax`` returns the
  first maximal index, matching the scalar loop's strict ``>`` update.
* The feasibility mask evaluates ``avail + EPS >= demand`` — the exact
  expression of :meth:`repro.resources.Resources.fits_in` (``demand <=
  avail + EPS``) with identical rounding.

Block-bounded best fit (DESIGN.md §5.10): the servers are cut into
fixed blocks of :data:`BLOCK_SIZE` consecutive ids, and the mirror keeps
a *stale-high* availability bound per block.  :class:`ScoreRow` — the
one best-fit kernel, behind :meth:`AvailabilityMirror.best_fit`, the
task fill and the clone-fill cache — scans blocks in ascending id order
and skips any block whose bound proves it holds nothing better than the
best found so far.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.resources import EPS, Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import Server

__all__ = ["BLOCK_SIZE", "AvailabilityMirror", "ScoreRow"]

#: Servers per placement block: block ``k`` holds server ids
#: ``[k*BLOCK_SIZE, (k+1)*BLOCK_SIZE)``, so server ``i`` is in block
#: ``i // BLOCK_SIZE``.  Chosen by a sweep over the 30K-server
#: benchmark workloads (DESIGN.md §5.10); a cluster of at most this
#: many servers is one block.  Read once, when a mirror is built.
BLOCK_SIZE = 4096

_NEG_INF = -math.inf


class AvailabilityMirror:
    """Incrementally-maintained SoA view of a cluster's availability.

    Per block of :data:`BLOCK_SIZE` servers the mirror keeps ``_ub_cpu``
    / ``_ub_mem``, an upper bound on every member's availability.  It is
    kept valid for free because allocation only shrinks availability:
    :meth:`update` max-updates the bound on growth (releases,
    recoveries) and a full block scan in :class:`ScoreRow` tightens it
    to the exact maximum.  The accounting sums below stay global
    full-array reductions (``np.sum`` is *not* regrouping-safe, so
    per-block partial sums would drift in ulps).
    """

    __slots__ = (
        "avail_cpu",
        "avail_mem",
        "alloc_cpu",
        "alloc_mem",
        "cap_cpu",
        "cap_mem",
        "up",
        "_coalescing",
        "_pending",
        "_alloc_cache",
        "_block",
        "_slices",
        "_ub_cpu",
        "_ub_mem",
    )

    def __init__(self, servers: Sequence["Server"]) -> None:
        m = len(servers)
        b = BLOCK_SIZE
        self._block = b
        self._slices = tuple((lo, min(lo + b, m)) for lo in range(0, m, b))
        # Coalesced-update window (batched event drains): while open,
        # ``update`` calls park the server in ``_pending`` instead of
        # storing immediately; ``flush`` replays each parked server's
        # *current* state once.  ``update`` is idempotent (it pushes the
        # server's present floats, not a delta), so deferring N updates
        # of one server to a single store is exact.
        self._coalescing = False
        self._pending: dict[int, "Server"] = {}
        # Memoized (cpu, mem) allocation totals, invalidated by any
        # update: the engine reads them once per accounting window, and
        # windows bounded by events that move no capacity (bare ticks)
        # reuse the previous reduction.  The cached floats are the exact
        # ``np.sum`` outputs — identical arrays give identical sums, so
        # memoization cannot perturb the utilization integrals.
        self._alloc_cache: tuple[float, float] | None = None
        avail = [s.available for s in servers]
        alloc = [s.allocated for s in servers]
        self.cap_cpu = np.fromiter((s.capacity.cpu for s in servers), np.float64, m)
        self.cap_mem = np.fromiter((s.capacity.mem for s in servers), np.float64, m)
        self.avail_cpu = np.fromiter((a.cpu for a in avail), np.float64, m)
        self.avail_mem = np.fromiter((a.mem for a in avail), np.float64, m)
        self.alloc_cpu = np.fromiter((a.cpu for a in alloc), np.float64, m)
        self.alloc_mem = np.fromiter((a.mem for a in alloc), np.float64, m)
        #: Liveness mask (fault injection): down servers are excluded
        #: from every feasibility mask regardless of their availability
        #: floats, matching ``Server.can_fit``'s up-check exactly.
        self.up = np.fromiter((s.up for s in servers), bool, m)
        starts = [lo for lo, _ in self._slices]
        self._ub_cpu: list[float] = np.maximum.reduceat(self.avail_cpu, starts).tolist()
        self._ub_mem: list[float] = np.maximum.reduceat(self.avail_mem, starts).tolist()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update(self, server: "Server") -> None:
        """Push one server's availability/allocation into the arrays.

        Called by ``Server.allocate``/``Server.release`` after every
        bookkeeping change — O(1), four scalar stores (or one pending-
        dict store inside a coalesce window).
        """
        if self._coalescing:
            self._pending[server.server_id] = server
            return
        self._alloc_cache = None
        i = server.server_id
        avail = server.available
        alloc = server.allocated
        self.avail_cpu[i] = avail.cpu
        self.avail_mem[i] = avail.mem
        self.alloc_cpu[i] = alloc.cpu
        self.alloc_mem[i] = alloc.mem
        self.up[i] = server.up
        # Stale-high bound: only growth (releases/recoveries) must be
        # folded in immediately; shrink is tolerated until the next
        # full block scan tightens the bound.
        k = i // self._block
        if avail.cpu > self._ub_cpu[k]:
            self._ub_cpu[k] = avail.cpu
        if avail.mem > self._ub_mem[k]:
            self._ub_mem[k] = avail.mem

    def begin_coalesce(self) -> None:
        """Open a deferred-update window: ``update`` calls park servers
        until :meth:`end_coalesce`/:meth:`flush`.  The engine brackets
        same-instant multi-release loops (first-copy-wins kills, server-
        crash victim sweeps) with this so a server touched k times gets
        one store.  Every read kernel flushes first, so reads inside a
        window stay exact."""
        self._coalescing = True

    def end_coalesce(self) -> None:
        """Close the window and apply every deferred update."""
        self._coalescing = False
        if self._pending:
            self.flush()

    def flush(self) -> None:
        """Apply deferred updates now (window state is unchanged)."""
        pending = self._pending
        if not pending:
            return
        self._alloc_cache = None
        avail_cpu, avail_mem = self.avail_cpu, self.avail_mem
        alloc_cpu, alloc_mem = self.alloc_cpu, self.alloc_mem
        up = self.up
        b = self._block
        ub_cpu, ub_mem = self._ub_cpu, self._ub_mem
        for i, server in pending.items():
            avail = server.available
            alloc = server.allocated
            avail_cpu[i] = avail.cpu
            avail_mem[i] = avail.mem
            alloc_cpu[i] = alloc.cpu
            alloc_mem[i] = alloc.mem
            up[i] = server.up
            k = i // b
            if avail.cpu > ub_cpu[k]:
                ub_cpu[k] = avail.cpu
            if avail.mem > ub_mem[k]:
                ub_mem[k] = avail.mem
        pending.clear()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def fitting_mask(self, demand: Resources) -> np.ndarray:
        """Boolean mask of *up* servers that can host ``demand`` (Eq. 5)."""
        if self._pending:
            self.flush()
        return (
            self.up
            & (self.avail_cpu + EPS >= demand.cpu)
            & (self.avail_mem + EPS >= demand.mem)
        )

    def num_up(self) -> int:
        """Servers currently in service (O(M) reduction on the mask)."""
        if self._pending:
            self.flush()
        return int(self.up.sum())

    def any_fits(self, demand: Resources) -> bool:
        return bool(self.fitting_mask(demand).any())

    def fitting_ids(self, demand: Resources) -> np.ndarray:
        """Server ids able to host ``demand``, ascending."""
        return np.flatnonzero(self.fitting_mask(demand))

    def best_fit(
        self, demand: Resources, weights: np.ndarray | None = None
    ) -> tuple[int, float] | None:
        """(server_id, score) maximizing the demand·availability inner
        product among fitting servers, or ``None`` when nothing fits.

        ``weights`` optionally scales each server's score (the
        straggler-avoidance hook).  Equal scores resolve to the lowest
        server id.
        """
        sid, score = ScoreRow(self, demand, weights).best()
        return None if sid < 0 else (sid, score)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_available(self) -> Resources:
        if self._pending:
            self.flush()
        return Resources(float(self.avail_cpu.sum()), float(self.avail_mem.sum()))

    def total_allocated(self) -> Resources:
        return Resources(*self.total_allocated_components())

    def total_allocated_components(self) -> tuple[float, float]:
        """(cpu, mem) allocation totals without a Resources allocation —
        the simulation engine's per-event accounting fast path."""
        if self._pending:
            self.flush()
        cached = self._alloc_cache
        if cached is None:
            cached = float(self.alloc_cpu.sum()), float(self.alloc_mem.sum())
            self._alloc_cache = cached
        return cached

    def __len__(self) -> int:
        return len(self.cap_cpu)



class ScoreRow:
    """One demand's best-fit scores against a mirror, block by block.

    The single best-fit kernel: :meth:`AvailabilityMirror.best_fit`
    builds a row per query, the task fill one per candidate phase and
    :class:`~repro.schedulers.packing.CloneScoreCache` one per demand
    key.  A block's scores (``demand · avail``, times the weight when
    weighted, ``-inf`` where the demand does not fit) materialize only
    when :meth:`best` cannot rule the block out:

    * its availability bound cannot fit the demand, or
    * its bound score ``d·ub`` (times the block's largest weight, or 0
      if that is negative) is no better than the best found in a lower
      block.  IEEE multiplication
      and addition are weakly monotone on non-negative operands, so the
      bound dominates every member's score in floating point too, and
      the ``<=`` skip is exact because an equal score in a later block
      would lose the lowest-id tie-break anyway.

    Blocks scan in ascending id order, and within a block ``np.argmax``
    keeps the first maximum, so the result is bit-identical to one dense
    ``argmax`` over the whole score array.

    A materialized block, its argmax and the row's best stay exact while
    availability only shrinks and every change is reported through
    :meth:`refresh` — within one scheduling pass.  Shrinking a column
    that is not the current maximum cannot create a new maximum or an
    earlier tie (with non-negative weights, which every caller passes),
    so only a refresh of the argmax column drops a cache.
    """

    __slots__ = (
        "_mirror",
        "_d_cpu",
        "_d_mem",
        "_weights",
        "_wmax",
        "_blocks",
        "_argmax",
        "_best",
    )

    def __init__(
        self,
        mirror: AvailabilityMirror,
        demand: Resources,
        weights: np.ndarray | None = None,
    ) -> None:
        self._mirror = mirror
        self._d_cpu = demand.cpu
        self._d_mem = demand.mem
        self._weights = weights
        n = len(mirror._slices)
        self._wmax = None
        if weights is not None:
            # Clamped at zero: a member with a negative weight scores at
            # most 0, so the bound stays valid for any real weights.
            wmax = np.maximum.reduceat(weights, [lo for lo, _ in mirror._slices])
            self._wmax = np.maximum(wmax, 0.0).tolist()
        #: Per block: the materialized score array (or None) and its
        #: cached (local argmax, score) (or None when stale).
        self._blocks: list[np.ndarray | None] = [None] * n
        self._argmax: list[tuple[int, float] | None] = [None] * n
        #: Cached (server_id, score) of the whole row, or None.
        self._best: tuple[int, float] | None = None

    def best(self) -> tuple[int, float]:
        """(server_id, score) of the best fitting server; ``(-1, -inf)``
        when no server fits."""
        top = self._best
        if top is not None:
            return top
        mirror = self._mirror
        if mirror._pending:
            mirror.flush()
        dc, dm = self._d_cpu, self._d_mem
        ub_cpu, ub_mem = mirror._ub_cpu, mirror._ub_mem
        wmax = self._wmax
        blocks, argmax = self._blocks, self._argmax
        best_id, best_score = -1, _NEG_INF
        for k, (lo, hi) in enumerate(mirror._slices):
            bc, bm = ub_cpu[k], ub_mem[k]
            if bc + EPS < dc or bm + EPS < dm:
                continue
            if best_id >= 0:
                bound = dc * bc + dm * bm
                if wmax is not None:
                    bound *= wmax[k]
                if bound <= best_score:
                    continue
            cached = argmax[k]
            if cached is None:
                blk = blocks[k]
                if blk is None:
                    blk = self._materialize(k, lo, hi)
                j = int(blk.argmax())
                cached = argmax[k] = (j, float(blk[j]))
            j, s = cached
            if s > best_score:
                best_id, best_score = lo + j, s
        top = self._best = (best_id, best_score)
        return top

    def _materialize(self, k: int, lo: int, hi: int) -> np.ndarray:
        mirror = self._mirror
        a_c = mirror.avail_cpu[lo:hi]
        a_m = mirror.avail_mem[lo:hi]
        if len(self._blocks) > 1:
            # The scan is here anyway: tighten the block's bound.  (One
            # block never prunes on score, so it skips the reductions.)
            mirror._ub_cpu[k] = float(a_c.max())
            mirror._ub_mem[k] = float(a_m.max())
        dc, dm = self._d_cpu, self._d_mem
        blk = dc * a_c + dm * a_m
        if self._weights is not None:
            blk *= self._weights[lo:hi]
        blk[~(mirror.up[lo:hi] & (a_c + EPS >= dc) & (a_m + EPS >= dm))] = -np.inf
        self._blocks[k] = blk
        return blk

    def refresh(self, server_id: int, a_cpu: float, a_mem: float, up: bool) -> None:
        """Re-score ``server_id`` after its availability shrank to
        ``(a_cpu, a_mem)`` (``up`` is its liveness)."""
        b = self._mirror._block
        k = server_id // b
        blk = self._blocks[k]
        if blk is not None:
            # Same IEEE expressions as _materialize, one server at a time.
            j = server_id - k * b
            dc, dm = self._d_cpu, self._d_mem
            if up and a_cpu + EPS >= dc and a_mem + EPS >= dm:
                s = dc * a_cpu + dm * a_mem
                if self._weights is not None:
                    s *= self._weights[server_id]
                blk[j] = s
            else:
                blk[j] = -np.inf
            cached = self._argmax[k]
            if cached is not None and cached[0] == j:
                self._argmax[k] = None
        top = self._best
        if top is not None and top[0] == server_id:
            self._best = None
