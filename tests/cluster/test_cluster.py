"""Unit tests for Cluster aggregates and queries."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.server import Server
from repro.cluster.topology import Topology
from repro.resources import Resources, ZERO
from tests import reference
from tests.cluster.test_server import make_copy, make_task


def two_server_cluster():
    return Cluster(
        [Server(0, Resources.of(8, 16)), Server(1, Resources.of(4, 32))]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_ids_must_be_sequential(self):
        with pytest.raises(ValueError):
            Cluster([Server(1, Resources.of(1, 1))])

    def test_topology_size_checked(self):
        with pytest.raises(ValueError):
            Cluster([Server(0, Resources.of(1, 1))], Topology([0, 0]))

    def test_default_topology_single_rack(self):
        c = two_server_cluster()
        assert c.topology.num_racks == 1

    def test_build_from_specs(self):
        c = Cluster.build([(Resources.of(8, 16), 1.0), (Resources.of(4, 8), 1.5)])
        assert len(c) == 2
        assert c[1].slowdown == 1.5


class TestAggregates:
    def test_total_capacity(self):
        c = two_server_cluster()
        assert c.total_capacity == Resources.of(12, 48)

    def test_total_allocated_and_available(self):
        c = two_server_cluster()
        c[0].allocate(make_copy(make_task(2, 4)))
        assert c.total_allocated() == Resources.of(2, 4)
        assert c.total_available() == Resources.of(10, 44)

    def test_utilization(self):
        c = two_server_cluster()
        c[0].allocate(make_copy(make_task(6, 12)))
        u = c.utilization()
        assert u.cpu == pytest.approx(6 / 12)
        assert u.mem == pytest.approx(12 / 48)

    def test_running_copy_count(self):
        c = two_server_cluster()
        assert c.running_copy_count() == 0
        c[0].allocate(make_copy(make_task(1, 1)))
        c[1].allocate(make_copy(make_task(1, 1)))
        assert c.running_copy_count() == 2


class TestQueries:
    def test_servers_fitting(self):
        c = two_server_cluster()
        fitting = c.servers_fitting(Resources.of(6, 6))
        assert [s.server_id for s in fitting] == [0]

    def test_any_fits(self):
        c = two_server_cluster()
        assert c.any_fits(Resources.of(4, 32))
        assert not c.any_fits(Resources.of(9, 1))

    def test_best_fit_prefers_max_alignment(self):
        c = two_server_cluster()
        # Demand (1, 8): dot with (8,16)=8+128=136; with (4,32)=4+256=260.
        best = c.best_fit_server(Resources.of(1, 8))
        assert best is not None and best.server_id == 1

    def test_best_fit_none_when_nothing_fits(self):
        c = two_server_cluster()
        assert c.best_fit_server(Resources.of(100, 1)) is None

    def test_best_fit_respects_current_allocation(self):
        c = two_server_cluster()
        c[1].allocate(make_copy(make_task(4, 1)))  # server 1 out of CPU
        best = c.best_fit_server(Resources.of(1, 8))
        assert best is not None and best.server_id == 0

    def test_iteration_order(self):
        c = two_server_cluster()
        assert [s.server_id for s in c] == [0, 1]


def identical_cluster(n=4):
    return Cluster([Server(i, Resources.of(8, 16)) for i in range(n)])


def best_fit(c, demand, production):
    if production:
        return c.best_fit_server(demand)
    return reference.best_fit_server(c, demand)


class TestTieBreaking:
    """Equal alignment scores must resolve to the *lowest* server id,
    in production (the mirror's first maximum) and in the scalar
    reference (strict ``>`` keeps the first maximum)."""

    @pytest.mark.parametrize("production", [True, False])
    def test_all_equal_picks_server_zero(self, production):
        c = identical_cluster()
        best = best_fit(c, Resources.of(2, 4), production)
        assert best is not None and best.server_id == 0

    @pytest.mark.parametrize("production", [True, False])
    def test_tie_after_loading_lowest_wins(self, production):
        c = identical_cluster()
        # Load servers 0 and 1 identically: 2 and 3 now tie for best.
        c[0].allocate(make_copy(make_task(4, 8), server_id=0))
        c[1].allocate(make_copy(make_task(4, 8), server_id=1))
        best = best_fit(c, Resources.of(2, 4), production)
        assert best is not None and best.server_id == 2

    def test_both_modes_agree_on_every_query(self):
        c = identical_cluster()
        c[1].allocate(make_copy(make_task(3, 6), server_id=1))
        c[3].allocate(make_copy(make_task(3, 6), server_id=3))
        for demand in (Resources.of(2, 4), Resources.of(5, 10), Resources.of(8, 16)):
            bv, bs = c.best_fit_server(demand), reference.best_fit_server(c, demand)
            assert (bv and bv.server_id) == (bs and bs.server_id)
            assert [s.server_id for s in c.servers_fitting(demand)] == [
                s.server_id for s in reference.servers_fitting(c, demand)
            ]
            assert c.any_fits(demand) == reference.any_fits(c, demand)
