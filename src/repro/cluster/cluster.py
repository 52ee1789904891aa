"""The cluster: a collection of heterogeneous servers plus topology.

Provides the aggregate quantities the schedulers need — total capacity
(the denominators of the dominant-share Eqs. 9/15), availability scans,
and utilization summaries — while each :class:`~repro.cluster.server.Server`
owns its own allocation bookkeeping.

Placement scans run on a structure-of-arrays NumPy mirror of per-server
availability (:class:`~repro.cluster.mirror.AvailabilityMirror`),
updated incrementally on every allocate/release, so ``best_fit_server``,
``servers_fitting`` and ``any_fits`` are masked reductions rather than
Python loops (DESIGN.md §5.1).  The per-server loops they replace live
on only as the test-side reference (``tests/reference.py``) that the
equivalence suite checks these queries against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.cluster.mirror import AvailabilityMirror
from repro.cluster.server import Server
from repro.cluster.topology import Topology
from repro.resources import Resources

__all__ = ["Cluster"]


class Cluster:
    """An indexed set of servers with cached aggregate capacity.

    A server belongs to at most one cluster at a time: construction
    points each server's mirror hook at this cluster's availability
    arrays.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        topology: Topology | None = None,
    ) -> None:
        if not servers:
            raise ValueError("a cluster needs at least one server")
        ids = [s.server_id for s in servers]
        if ids != list(range(len(servers))):
            raise ValueError("server ids must be 0..n-1 in order")
        self.servers: list[Server] = list(servers)
        self.topology = topology if topology is not None else Topology.single_rack(len(servers))
        if len(self.topology) != len(self.servers):
            raise ValueError("topology size does not match server count")
        self._total_capacity = Resources(
            sum(s.capacity.cpu for s in self.servers),
            sum(s.capacity.mem for s in self.servers),
        )
        self.mirror = AvailabilityMirror(self.servers)
        for s in self.servers:
            s._mirror = self.mirror
        #: Pre-bound placement-query counter, installed by
        #: Observability.bind_cluster; None keeps the disabled query
        #: path at one attribute load + branch.
        self._obs_placement = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> Resources:
        """Σ_i (C_i, M_i) — the dominant-share denominator."""
        return self._total_capacity

    def total_allocated(self) -> Resources:
        return self.mirror.total_allocated()

    def total_available(self) -> Resources:
        return self.mirror.total_available()

    def utilization(self) -> Resources:
        return self.total_allocated().normalized_by(self._total_capacity)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    def __getitem__(self, server_id: int) -> Server:
        return self.servers[server_id]

    def servers_fitting(self, demand: Resources) -> list[Server]:
        """Servers that can currently host ``demand`` (Eq. 5 check)."""
        if self._obs_placement is not None:
            self._obs_placement.inc()
        return [self.servers[i] for i in self.mirror.fitting_ids(demand)]

    def any_fits(self, demand: Resources) -> bool:
        if self._obs_placement is not None:
            self._obs_placement.inc()
        return self.mirror.any_fits(demand)

    def best_fit_server(self, demand: Resources) -> Server | None:
        """The fitting server maximizing the demand·available alignment.

        This is Tetris' placement heuristic, also used by DollyMP for its
        final placement step; ``None`` when no server fits.  Equal scores
        break to the **lowest server id**: the mirror's best fit is the
        first maximum in ascending server order.
        """
        if self._obs_placement is not None:
            self._obs_placement.inc()
        hit = self.mirror.best_fit(demand)
        return None if hit is None else self.servers[hit[0]]

    def num_up(self) -> int:
        """Servers currently in service (all of them absent fault injection)."""
        return self.mirror.num_up()

    def running_copy_count(self) -> int:
        return sum(len(s.running_copies) for s in self.servers)

    @staticmethod
    def build(
        specs: Iterable[tuple[Resources, float]],
        topology: Topology | None = None,
    ) -> "Cluster":
        """Build a cluster from ``(capacity, slowdown)`` specs."""
        servers = [
            Server(i, cap, slowdown=slow)
            for i, (cap, slow) in enumerate(specs)
        ]
        return Cluster(servers, topology)
