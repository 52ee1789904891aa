"""Self-tests of the benchmark harness: span arithmetic, the percentile
rule, wrapper install/uninstall, and that every output check catches a
deliberately corrupted result."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from checks import (
    check_all_finished,
    check_capacity_restored,
    check_copy_cap,
    result_digest,
    run_checks,
)
from harness import SpanRecorder, highest_percentile, percentile
from layers import _MISSING, WRAPPED, LayerTracer, layer_metrics, resolve
from run import fastest_repeats, verify
from workloads import SIZE_CLASSES, size_class, stratified_specs, survivable


def _tiny_engine():
    from repro import (
        DollyMPScheduler,
        GoogleTraceGenerator,
        Resources,
        homogeneous_cluster,
        jobs_from_specs,
    )
    from repro.sim.engine import SimulationEngine

    specs = GoogleTraceGenerator(seed=3).generate(12, mean_interarrival=4.0)
    # Pinned ids: the process-global job counter would otherwise make
    # two engines built in one process differ.
    specs = [dataclasses.replace(s, job_id=i) for i, s in enumerate(specs)]
    return SimulationEngine(
        homogeneous_cluster(6, Resources.of(16, 32)),
        DollyMPScheduler(max_clones=2),
        jobs_from_specs(specs),
        seed=3,
        schedule_interval=5.0,
    )


# -- fastest of the repeats ---------------------------------------------
def test_fastest_repeats_takes_each_stretch_from_its_fastest_repeat():
    def sim(part, segments, passes, traced=False):
        return {"part": part, "traced": traced, "segments_s": segments, "passes_ms": passes}

    runs = [
        sim(0, [1.0, 5.0, 2.0], [4.0, 2.0]),
        sim(0, [3.0, 4.0, 1.0], [3.0, 6.0]),
        sim(0, [0.1, 0.1, 0.1], [0.1, 0.1], traced=True),  # traced: never pooled
        sim(1, [2.0, 2.0], [7.0]),
        {"part": 1, "traced": False, "error": "timed out"},
    ]
    fast = fastest_repeats(runs)
    assert fast[0] == {"repeats": 2, "run_s": 1.0 + 4.0 + 1.0, "passes_ms": [3.0, 2.0]}
    assert fast[1] == {"repeats": 1, "run_s": 4.0, "passes_ms": [7.0]}
    # A repeat that ran a different number of passes disagrees with the
    # first one (its digest fails the run) and is left out of the merge.
    runs.append(sim(1, [0.5, 0.5, 0.5], [0.1, 0.1]))
    assert fastest_repeats(runs)[1]["run_s"] == 4.0


def test_speed_factors_use_the_median_of_each_probe_and_its_neighbours():
    from calibrate import REFERENCE_KERNEL_MS
    from child import PassCensus

    census = PassCensus()
    census.probe_ms = [1.0, 9.0, 2.0, 2.0, 4.0]  # one probe caught by an interrupt
    medians = [1.0, 2.0, 2.0, 2.0, 2.0]  # the faster of the two at each end
    assert census.speed_factors() == [REFERENCE_KERNEL_MS / m for m in medians]


def test_census_clock_stops_while_probing():
    from child import PassCensus

    census = PassCensus()
    before = census.now()
    census.probe()
    census.probe()
    assert len(census.probe_ms) == 2
    assert census.now() - before < sum(census.probe_ms) / 1e3


# -- span arithmetic ----------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    a, b, c, d = (rec.name_id(n) for n in "abcd")
    ia = rec.open(a)  # a: [0, 10]
    ib = rec.open(b)  # b: [1, 4]
    rec.close(ib)
    ic = rec.open(c)  # c: [5, 9], holding d: [6, 8]
    id_ = rec.open(d)
    rec.close(id_)
    rec.close(ic)
    rec.close(ia)
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert rec.self_times() == {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0}


def test_self_time_sums_repeated_names_and_rejects_open_spans():
    ticks = iter([0.0, 2.0, 3.0, 7.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    x = rec.name_id("x")
    outer = rec.open(x)
    rec.close(rec.open(x))  # nested x: [2, 3]
    rec.close(rec.open(x))  # nested x: [7, 10]
    with pytest.raises(RuntimeError):
        rec.self_times()
    rec.clock = lambda: 12.0
    rec.close(outer)  # outer x: [0, 12] -> self 12 - 1 - 3 = 8
    assert rec.self_times() == {"x": 8.0 + 1.0 + 3.0}


def test_close_out_of_order_is_an_error():
    rec = SpanRecorder(clock=itertools.count().__next__)
    n = rec.name_id("n")
    first = rec.open(n)
    rec.open(n)
    with pytest.raises(RuntimeError):
        rec.close(first)


def test_span_csv_round_trip(tmp_path):
    ticks = iter([5.0, 6.0, 7.0, 9.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    o = rec.open(rec.name_id("outer"))
    rec.close(rec.open(rec.name_id("inner")))
    rec.close(o)
    path = tmp_path / "spans.csv"
    rec.write_csv(path)
    assert path.read_text().splitlines() == [
        "name,start_s,end_s,parent",
        "outer,0.000000000,4.000000000,-1",
        "inner,1.000000000,2.000000000,0",
    ]


# -- percentile rule ----------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (150, 90.0),  # the smallest workload's pass count
        (100, 90.0),  # exactly 10 beyond p90
        (99, 75.0),
        (5394, 99.0),  # deep_roster: 53.9 beyond p99, 5.4 beyond p99.9
        (10_000, 99.9),
        (20, 50.0),
        (19, None),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for p in (0.0, 50.0, 90.0, 100.0):
        assert percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)))


# -- wrappers -----------------------------------------------------------
def test_wrappers_install_and_uninstall_cleanly():
    before = []
    for module, path, _ in WRAPPED:
        owner, attr = resolve(module, path)
        before.append((owner, attr, vars(owner).get(attr, _MISSING), getattr(owner, attr)))
    tracer = LayerTracer().install()
    try:
        for owner, attr, _, original in before:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped"
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, own, original in before:
        assert vars(owner).get(attr, _MISSING) is own
        assert getattr(owner, attr) is original


def test_traced_run_matches_untraced_and_counts_layers():
    plain = _tiny_engine()
    expected = result_digest(plain.run())
    engine = _tiny_engine()
    with LayerTracer() as tracer:
        result = engine.run()
    assert result_digest(result) == expected
    m = layer_metrics(tracer.rec, result)
    assert m["engine.apply_launch"] == m["sim.copies"] == m["server.allocate"]
    assert m["server.release"] == m["sim.copies"]
    assert m["online.passes"] == len(result.schedule_pass_seconds)
    assert m["packing.tasks_placed"] + m["packing.clones_placed"] == m["sim.copies"]
    assert 0.0 < m["packing.task_yield"] <= 1.0
    assert m["ingest.takes"] == m["checkpoint.saves"] == m["live.publications"] == 0
    assert all(v >= 0 for v in m.values())


# -- output checks ------------------------------------------------------
@pytest.fixture()
def finished():
    engine = _tiny_engine()
    result = engine.run()
    assert all(not msgs for msgs in run_checks(engine, result, len(engine.jobs)).values())
    return engine, result


def test_all_finished_catches_a_missing_job(finished):
    engine, result = finished
    short = dataclasses.replace(result, records=result.records[:-1])
    assert check_all_finished(engine, short, len(engine.jobs))
    assert check_all_finished(engine, result, len(engine.jobs) + 1)


def test_capacity_check_catches_a_leaked_allocation(finished):
    from repro import Resources

    engine, _ = finished
    server = engine.cluster.servers[2]
    server._available = Resources(server.capacity.cpu - 1.0, server.capacity.mem)
    assert check_capacity_restored(engine)


def test_capacity_check_catches_a_stale_mirror(finished):
    engine, _ = finished
    engine.cluster.mirror.avail_mem[1] -= 0.5
    assert check_capacity_restored(engine)


def test_copy_cap_catches_an_extra_copy(finished):
    engine, _ = finished
    task = engine.finished_jobs[0].phases[0].tasks[0]
    cap = engine.scheduler.policy.max_copies
    task.copies.extend([task.copies[0]] * cap)
    assert check_copy_cap(engine)


def test_digest_check_catches_a_diverging_repeat(finished):
    _, result = finished
    rec = result.records[0]
    bent = dataclasses.replace(
        result,
        records=(dataclasses.replace(rec, finish_time=rec.finish_time + 1e-9),)
        + result.records[1:],
    )
    assert result_digest(bent) != result_digest(result)
    clean = {"all_finished": [], "capacity_restored": [], "copy_cap": []}
    runs = [
        {"part": 0, "digest": result_digest(result), "checks": clean},
        {"part": 0, "digest": result_digest(bent), "checks": clean},
    ]
    assert any("repeats disagree" in p for p in verify(runs))
    # Different parts are different simulations: their digests may differ.
    runs[1]["part"] = 1
    assert verify(runs) == []


# -- workload construction ----------------------------------------------
def test_stratified_specs_fill_each_class_and_spread_it_evenly():
    specs, drawn = stratified_specs(seed=5, num_jobs=200, interarrival=1.25)
    assert len(specs) == 200 and drawn >= 200
    classes = [size_class(s.num_tasks()) for s in specs]
    assert [classes.count(k) for k in range(len(SIZE_CLASSES))] == [120, 60, 18, 2]
    assert [s.arrival_time for s in specs] == [1.25 * i for i in range(200)]
    # Every stretch of 100 jobs holds (about) the mix's share of each class.
    for k, (_, share) in enumerate(SIZE_CLASSES):
        for lo in (0, 100):
            assert abs(classes[lo : lo + 100].count(k) - 100 * share) <= 1
    again, _ = stratified_specs(seed=5, num_jobs=200, interarrival=1.25)
    assert again == specs


def test_survivable_compares_the_shortest_copy_with_the_mtbf():
    from repro.workload.google_trace import PhaseSpec, TraceJobSpec

    def job(theta, sigma):
        return TraceJobSpec("j", 0.0, (PhaseSpec(3, 1.0, 1.0, theta, sigma),))

    assert survivable(job(300.0, 0.0), mtbf=400.0)
    assert not survivable(job(500.0, 0.0), mtbf=400.0)
    # Pareto fitted to theta=3415, sigma=4680 has x_m near 1890 s.
    assert not survivable(job(3415.0, 4680.0), mtbf=400.0)
    assert survivable(job(60.0, 60.0), mtbf=400.0)
