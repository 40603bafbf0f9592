"""Each correctness check of the benchmark rejects a wrong output.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import dataclasses
from types import SimpleNamespace

import pytest

import checks
from repro.amr.regrid import RegridPolicy
from repro.apps import RM3D, RM3DConfig, generate_trace
from repro.core import PragmaRuntime
from repro.gridsys import sp2_blue_horizon
from repro.policy.defaults import default_policy_base
from repro.policy.octant import Octant

POLICY = RegridPolicy(thresholds=(0.2, 0.45, 0.7), regrid_interval=4)


@pytest.fixture(scope="module")
def app():
    # the reduced RM3D run: 25 snapshots through the shock into the
    # mixing zone, so refined levels hold several patches
    return RM3D(RM3DConfig(
        shape=(64, 16, 16), interface_x=20.0, shock_entry_snapshot=6.0,
        shock_speed=3.0, reshock_snapshot=30.0, num_seed_clumps=5,
        num_mixing_structures=10,
    ))


@pytest.fixture(scope="module")
def trace(app):
    return generate_trace(app, POLICY, 100)


@pytest.fixture(scope="module")
def report(trace):
    runtime = PragmaRuntime(cluster=sp2_blue_horizon(4), num_procs=4)
    return runtime.run_adaptive(trace)


def policy_choice(octant: str) -> str:
    kb = default_policy_base()
    return kb.merged_action({"octant": Octant(octant)})["partitioner"]


def regrid_problems(trace, app) -> list[str]:
    return checks.regrid_checks(trace, app.error_field, app.load_field,
                                POLICY.thresholds, POLICY.regrid_interval)


def as_namespace(obj, **changes):
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return SimpleNamespace(**{**fields, **changes})


# -- replays -------------------------------------------------------------------


def test_replay_checks_pass_on_real_output(trace, report):
    assert checks.replay_checks(trace, report, policy_choice) == []


def test_independent_work_matches_the_program(trace, report):
    want = report.adaptive.useful_work
    assert abs(checks.trace_work(trace) - want) <= 1e-9 * want


def test_dropping_one_processors_work_fails_conservation(trace, report):
    run = copy.deepcopy(report.adaptive)
    run.proc_work[0] = 0.0
    bad = dataclasses.replace(report, adaptive=run)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("proc_work" in p for p in problems)


def test_useful_work_off_the_patch_sum_fails(trace, report):
    run = copy.deepcopy(report.adaptive)
    run.useful_work *= 1.0 + 1e-6
    run.proc_work *= 1.0 + 1e-6
    bad = dataclasses.replace(report, adaptive=run)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("independent patch sum" in p for p in problems)


def test_runtime_not_the_sum_of_its_records_fails(trace, report):
    run = report.static["SFC"]
    wrong = as_namespace(run, total_runtime=run.total_runtime * 1.01)
    bad = SimpleNamespace(
        adaptive=report.adaptive, static={**report.static, "SFC": wrong},
        improvement_over_worst_pct=report.improvement_over_worst_pct)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("sum of record components" in p for p in problems)


def test_misreported_improvement_fails(trace, report):
    bad = SimpleNamespace(
        adaptive=report.adaptive, static=report.static,
        improvement_over_worst_pct=report.improvement_over_worst_pct + 0.5)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("improvement_over_worst_pct" in p for p in problems)


def test_adaptive_slower_than_every_baseline_fails(trace, report):
    worst = max(r.total_runtime for r in report.static.values())
    slow = as_namespace(report.adaptive, total_runtime=worst * 2)
    pct = 100.0 * (worst - slow.total_runtime) / worst
    bad = SimpleNamespace(adaptive=slow, static=report.static,
                          improvement_over_worst_pct=pct)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("not below the slowest" in p for p in problems)


def test_partitioner_off_the_policy_fails(trace, report):
    run = copy.deepcopy(report.adaptive)
    rec = run.records[0]
    other = "SFC" if rec.label != "SFC" else "pBD-ISP"
    run.records[0] = dataclasses.replace(rec, label=other)
    bad = dataclasses.replace(report, adaptive=run)
    problems = checks.replay_checks(trace, bad, policy_choice)
    assert any("policy base recommends" in p for p in problems)


def test_rounds_that_disagree_fail(report):
    run = as_namespace(report.adaptive,
                       total_runtime=report.adaptive.total_runtime + 1.0)
    other = SimpleNamespace(adaptive=run, static=report.static)
    assert checks.same_report(report, report) == []
    assert checks.same_report(report, other)


# -- trace generation ----------------------------------------------------------


def refined_snapshot(trace) -> int:
    """Index of a snapshot with a refined level holding ≥ 2 patches."""
    for i, snap in enumerate(trace):
        if len(snap.hierarchy.levels) > 1 and len(
                snap.hierarchy.levels[1].patches) > 1:
            return i
    raise AssertionError("no snapshot with two level-1 patches")


def test_regrid_checks_pass_on_real_output(trace, app):
    assert regrid_problems(trace, app) == []


def test_removing_one_patch_fails_coverage(trace, app):
    bad = copy.deepcopy(trace)
    level = bad[refined_snapshot(bad)].hierarchy.levels[1]
    del level.patches[0]
    problems = regrid_problems(bad, app)
    assert any("not covered by level 1" in p for p in problems)


def test_overlapping_patches_fail(trace, app):
    bad = copy.deepcopy(trace)
    level = bad[refined_snapshot(bad)].hierarchy.levels[1]
    level.patches.append(level.patches[0])
    problems = regrid_problems(bad, app)
    assert any("overlapping patch pairs" in p for p in problems)


def test_patch_outside_its_parent_fails(trace, app):
    bad = copy.deepcopy(trace)
    h = bad[refined_snapshot(bad)].hierarchy
    if len(h.levels) > 2:
        del h.levels[2:]
    parent = h.levels[1]
    child = copy.deepcopy(parent)
    child.index = 2
    child.patches = [dataclasses.replace(p, box=p.box.refine(2), level=2)
                     for p in parent.patches]
    del parent.patches[0]
    h.levels.append(child)
    problems = regrid_problems(bad, app)
    assert any("leaves its parent's footprint" in p for p in problems)


def test_wrong_load_per_cell_fails(trace, app):
    bad = copy.deepcopy(trace)
    level = bad[refined_snapshot(bad)].hierarchy.levels[1]
    p = level.patches[0]
    level.patches[0] = dataclasses.replace(
        p, load_per_cell=p.load_per_cell * (1 + 1e-9))
    problems = regrid_problems(bad, app)
    assert any("footprint mean" in p for p in problems)


def test_skipped_snapshot_fails(trace, app):
    bad = copy.deepcopy(trace)
    del bad.snapshots[1]
    problems = regrid_problems(bad, app)
    assert any("do not advance" in p for p in problems)


def test_round_trip_differences_are_found(trace):
    assert checks.same_trace(trace, copy.deepcopy(trace)) == []
    bad = copy.deepcopy(trace)
    level = bad[refined_snapshot(bad)].hierarchy.levels[1]
    p = level.patches[0]
    level.patches[0] = dataclasses.replace(p, patch_id=p.patch_id + 10**6)
    assert checks.same_trace(trace, bad)


# -- served path ---------------------------------------------------------------


def served(results: dict) -> tuple[list[dict], dict]:
    """Four requests over three distinct keys, answered as ``results``."""
    reqs = [("fig4", {"seed": 1}), ("fig4", {"seed": 2}),
            ("chaos-s0", {"seed": 1}), ("fig4", {"seed": 1})]
    log = [{"scenario": n, "params": p, "status": "done",
            "result": copy.deepcopy(results[(n, p["seed"])])}
           for n, p in reqs]
    counters = {"executions": 3, "cache_hits": 1}
    return log, counters


RESULTS = {("fig4", 1): {"a": [1.0, 2.0], "b": "x"},
           ("fig4", 2): {"a": [3.0, 4.0], "b": "y"},
           ("chaos-s0", 1): {"mean": 0.5}}


def expected(name: str, params: dict):
    return RESULTS[(name, params["seed"])]


def test_serve_checks_pass_on_matching_answers():
    log, counters = served(RESULTS)
    assert checks.serve_checks(log, counters, expected) == []


def test_served_result_altered_in_one_field_fails():
    log, counters = served(RESULTS)
    log[1]["result"]["a"][1] = 4.000001
    problems = checks.serve_checks(log, counters, expected)
    assert any("differs from the in-process run" in p for p in problems)


def test_request_not_done_fails():
    log, counters = served(RESULTS)
    log[2]["status"] = "timeout"
    assert checks.serve_checks(log, counters, expected)


def test_extra_execution_fails():
    log, counters = served(RESULTS)
    counters = {"executions": 4}
    problems = checks.serve_checks(log, counters, expected)
    assert any("executions" in p for p in problems)
    assert any("cache+dedup hits" in p for p in problems)


def test_shed_request_fails():
    log, counters = served(RESULTS)
    counters["shed"] = 1
    assert any("shed" in p for p in checks.serve_checks(log, counters,
                                                       expected))


def test_trace_work_sums_every_level():
    # one base patch plus one refined patch: 2x2x2 fine cells at ratio 2
    from repro.amr.box import Box
    from repro.amr.grid import Level, Patch
    from repro.amr.hierarchy import GridHierarchy
    from repro.amr.trace import AdaptationTrace, Snapshot

    base = Level(0, 1, [Patch(Box((0, 0, 0), (4, 4, 4)), 0, 0, 1.0)])
    fine = Level(1, 2, [Patch(Box((0, 0, 0), (2, 2, 2)), 1, 1, 3.0)])
    h = GridHierarchy(Box((0, 0, 0), (4, 4, 4)), [base, fine])
    tr = AdaptationTrace([Snapshot(0, h), Snapshot(4, h)],
                         meta={"num_coarse_steps": 10})
    per_step = 64 * 1.0 + 8 * 3.0 * 2
    assert checks.trace_work(tr) == pytest.approx(per_step * 10)
