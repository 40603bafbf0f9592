"""One workload session in its own process.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The process sets the workload up, prints one JSON
line ``{"ready_t": <time.monotonic()>}`` as soon as the work could
begin (``run.py`` takes set-up time from it), then — unless started with
``--role setup`` — runs whole rounds of the workload's fixed work until
``--seconds`` have passed, checks the outputs and prints one JSON result
line.

With ``--trace 1`` the session first runs untimed-by-layer rounds for
``--seconds`` and then the same rounds again with the layer wrappers of
``layers.py`` installed, and reports per-layer figures per round plus
the tracing overhead.

For ``serve-closed`` this process is the load generator: it talks to
the server process ``run.py`` started, over ``--socket``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

import checks
from layers import Tracer, install_replay_layers, install_tracegen_layers

perf_counter = time.perf_counter

#: the replays run the paper's 64-processor Blue Horizon model
REPLAY_PROCS = 64
#: compare-replay: a contiguous run of the reference trace (mixing zone
#: into its coarsening, so octants and partitioners change inside it)
COMPARE_WINDOW = (104, 24)
COMPARE_WITH = ("SFC", "G-MISP+SP", "pBD-ISP")
#: trace-gen: the reduced RM3D configuration of ``rm3d_small_trace``,
#: run for 400 coarse steps -> 100 snapshots, through the mixing zone
TRACEGEN_CONFIG = dict(
    shape=(64, 16, 16), interface_x=20.0, shock_entry_snapshot=6.0,
    shock_speed=3.0, reshock_snapshot=30.0, num_seed_clumps=5,
    num_mixing_structures=10,
)
TRACEGEN_STEPS = 400
#: a percentile needs at least this many operations in a run
MIN_OPS = 100

#: serve-closed request mix per round: scenario -> distinct requests.
#: All replay or simulate on the small trace in ~0.1 s; slow scenarios
#: (table4/table5, ~1-2.5 s) are left out so latency is not bimodal.
SERVE_MIX = (("fig4", 10), ("chaos-s0", 8), ("chaos-s1", 7),
             ("ablation-sfc-curves", 7))
#: distinct requests in a round's first phase; SERVE_TWINS of them are
#: submitted twice back to back on one connection, so the second submit
#: coalesces onto the first while it is in flight.  The second phase
#: holds the rest plus SERVE_REPEATS exact repeats of first-phase
#: requests, served from the result cache.
SERVE_DISTINCT = sum(n for _, n in SERVE_MIX)
SERVE_PHASE1 = 20
SERVE_TWINS = 4
SERVE_REPEATS = 4
SERVE_REQUESTS = SERVE_DISTINCT + SERVE_TWINS + SERVE_REPEATS
SERVE_CONNECTIONS = 2


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def percentiles(ms: list[float]) -> tuple[float, float]:
    """(p50, p90) of ``ms``; the 90th needs ≥ MIN_OPS samples."""
    if len(ms) < MIN_OPS:
        raise RuntimeError(f"{len(ms)} operations, need {MIN_OPS} for p90")
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return statistics.median(ms), deciles[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpClock:
    """Per-operation times from marks at operation starts.

    ``begin`` opens a segment (one replay run, one generated trace),
    ``mark`` starts the next operation and ``close`` ends the last one.
    """

    def __init__(self) -> None:
        self.ops_ms: list[float] = []
        self._last: float | None = None

    def begin(self) -> None:
        self._last = None

    def mark(self) -> None:
        now = perf_counter()
        if self._last is not None:
            self.ops_ms.append((now - self._last) * 1000.0)
        self._last = now

    def close(self) -> None:
        self.mark()
        self._last = None


def timed_rounds(round_fn, clock: OpClock, seconds: float, min_ops: int,
                 between=None) -> tuple[list[float], object]:
    """Run whole rounds until ``seconds`` passed and ``min_ops`` were seen.

    Returns each round's wall time and the last round's output.
    ``between(output)`` runs after each round, outside its wall time.
    """
    walls: list[float] = []
    start = perf_counter()
    out = None
    while True:
        gc.collect()
        t0 = perf_counter()
        out = round_fn()
        walls.append(perf_counter() - t0)
        if between is not None:
            between(out)
        if perf_counter() - start >= seconds and len(clock.ops_ms) >= min_ops:
            return walls, out


def layer_metrics(tracer: Tracer, rounds: int, work_s: float,
                  remainder: str, timed: tuple[str, ...],
                  counted: tuple[str, ...]) -> dict[str, float]:
    """Per-round self times and counts; ``remainder`` closes the sum.

    The remainder layer's self time is the round's traced wall time
    minus every other layer's self time, so the layers add up to the
    traced ``work_s`` exactly.
    """
    out: dict[str, float] = {}
    others = 0.0
    for layer in timed:
        v = tracer.self_s.get(layer, 0.0) / rounds
        out[f"{layer}.self_s"] = v
        others += v
    out[f"{remainder}.self_s"] = work_s - others
    for name in counted:
        out[name] = _per_round(tracer.counts.get(name, 0), rounds)
    return out


def import_repro() -> float:
    """Import the package from this checkout; returns the import time."""
    t0 = perf_counter()
    import repro  # noqa: F401

    import_s = perf_counter() - t0
    root = Path(__file__).resolve().parent.parent
    if root / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from "
                         f"{root / 'src'}")
    return import_s


# -- replays -------------------------------------------------------------------


def rotated_window(trace, start: int, length: int, seed: int):
    """Snapshots ``[start, start+length)``, replayed from a seeded offset.

    The window is rotated by ``seed % length`` and renumbered so steps
    advance by the regrid interval again: every seed replays the same
    hierarchies (the same amount of work) with one non-consecutive
    transition at the wrap.
    """
    from repro.amr.trace import AdaptationTrace, Snapshot

    snaps = trace.snapshots[start:start + length]
    k = seed % len(snaps)
    order = snaps[k:] + snaps[:k]
    interval = trace.meta["regrid_interval"]
    return AdaptationTrace(
        snapshots=[Snapshot(step=i * interval, hierarchy=s.hierarchy)
                   for i, s in enumerate(order)],
        meta={**trace.meta, "num_coarse_steps": len(order) * interval},
    )


def replay_session(args, compare_with: tuple[str, ...]) -> dict | None:
    import_s = import_repro()
    from repro.core import PragmaRuntime
    from repro.core.meta_partitioner import MetaPartitioner
    from repro.execsim.selector import StaticSelector
    from repro.execsim.simulator import ExecutionSimulator
    from repro.experiments.common import rm3d_reference_trace
    from repro.gridsys import sp2_blue_horizon
    from repro.policy.defaults import default_policy_base
    from repro.policy.octant import Octant

    t0 = perf_counter()
    reference = rm3d_reference_trace()
    load_s = perf_counter() - t0
    if compare_with:
        start, length = COMPARE_WINDOW
    else:
        start, length = 0, len(reference)
    trace = rotated_window(reference, start, length, args.seed)
    runtime = PragmaRuntime(cluster=sp2_blue_horizon(REPLAY_PROCS),
                            num_procs=REPLAY_PROCS)
    emit({"ready_t": time.monotonic()})
    if args.role == "setup":
        return None

    # operation marks: one per interval (the selector's decide), closed
    # when the run returns — one perf_counter read per interval
    clock = OpClock()
    marks = Tracer()

    def marking(orig):
        def decide(self, *a, **k):
            clock.mark()
            return orig(self, *a, **k)
        return decide

    def segment(orig):
        def run(self, *a, **k):
            clock.begin()
            try:
                return orig(self, *a, **k)
            finally:
                clock.close()
        return run

    marks.swap(MetaPartitioner, "decide", marking)
    marks.swap(StaticSelector, "decide", marking)
    marks.swap(ExecutionSimulator, "run", segment)

    reports = []

    def one_round():
        report = runtime.run_adaptive(trace, compare_with=compare_with)
        reports[:] = reports[-1:] + [report]
        return report

    walls, report = timed_rounds(one_round, clock, args.seconds, MIN_OPS)
    rss = peak_rss_mb()
    ops = clock.ops_ms

    kb = default_policy_base()
    problems = checks.replay_checks(
        trace, report,
        lambda octant: kb.merged_action({"octant": Octant(octant)})[
            "partitioner"],
    )
    if len(reports) == 2:
        problems += checks.same_report(reports[0], reports[1])
    result = {
        "problems": problems,
        "attempted": len(ops),
        "failed": 0,
        "work_s": statistics.median(walls),
        "ops_ms": ops,
        "peak_rss_mb": rss,
        "rounds": len(walls),
    }
    if args.trace:
        tracer = Tracer()
        install_replay_layers(tracer)
        clock.ops_ms = []
        twalls, _ = timed_rounds(one_round, clock, args.seconds, 1)
        tracer.uninstall()
        n = len(twalls)
        traced = statistics.fmean(twalls)
        layers = layer_metrics(
            tracer, n, traced, "simulator",
            ("classify", "diff", "units", "partition", "pac", "cost"),
            ("classify.calls", "diff.calls", "units.calls",
             "units.map_builds", "units.map_updates", "partition.calls",
             "pac.calls", "cost.calls", "box.constructions",
             "box.intersections"),
        )
        calls = tracer.counts.get("units.calls", 0)
        layers["units.reuse_ratio"] = (
            tracer.counts.get("units.reused", 0) / calls if calls else 0.0)
        layers["import_s"] = import_s
        layers["trace.load_s"] = load_s
        result["layers"] = layers
        result["traced_work_s"] = traced
        result["untraced_work_s"] = statistics.fmean(walls)
    return result


# -- trace generation ----------------------------------------------------------


def oriented_app(seed: int):
    """The RM3D driver seen in one of 16 index-space orientations.

    ``seed % 16`` picks flips of x, y and z and a y/z transpose (y and z
    have equal extents).  Every orientation is the same physics with
    the same amount of refinement; the RM3D structure seed itself stays
    fixed, because the regrid cost varies with it by ~25 % (coefficient
    of variation over 16 seeds), which no bound of this benchmark could
    absorb.
    """
    import numpy as np

    from repro.apps.base import SyntheticApplication
    from repro.apps.rm3d import RM3D, RM3DConfig

    k = seed % 16

    def orient(a):
        if k & 1:
            a = a[::-1, :, :]
        if k & 2:
            a = a[:, ::-1, :]
        if k & 4:
            a = a[:, :, ::-1]
        if k & 8:
            a = a.transpose(0, 2, 1)
        return np.ascontiguousarray(a) if k else a

    class OrientedRM3D(SyntheticApplication):
        def __init__(self) -> None:
            self.app = RM3D(RM3DConfig(**TRACEGEN_CONFIG))
            self.domain = self.app.domain
            self.on_snapshot = None

        @property
        def name(self) -> str:
            return self.app.name

        def error_field(self, step):
            if self.on_snapshot is not None:
                self.on_snapshot()
            return orient(self.app.error_field(step))

        def load_field(self, step):
            return orient(self.app.load_field(step))

    return OrientedRM3D()


def tracegen_session(args, tmp: Path) -> dict | None:
    import_s = import_repro()
    from repro.amr.trace import AdaptationTrace
    from repro.apps import generate_trace
    from repro.experiments.common import reference_policy, rm3d_small_trace

    app = oriented_app(args.seed)
    policy = reference_policy()
    emit({"ready_t": time.monotonic()})
    if args.role == "setup":
        return None

    clock = OpClock()
    app.on_snapshot = clock.mark
    out_path = tmp / "trace.json.gz"
    state = {"cache_s": [], "failed": 0, "cache_ops": 0, "problems": [],
             "round": 0}

    def one_round():
        clock.begin()
        trace = generate_trace(app, policy, TRACEGEN_STEPS)
        clock.close()
        trace.save(out_path)
        return trace

    def cache_ops(_trace) -> None:
        """Cold, warm and truncated reopen of a private trace cache."""
        state["round"] += 1
        d = tmp / f"cache-{state['round']}"
        t0 = perf_counter()
        cold = rm3d_small_trace(d)
        warm = rm3d_small_trace(d)
        state["problems"] += checks.same_trace(cold, warm)
        path = d / "rm3d_small_trace.json.gz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        try:
            again = rm3d_small_trace(d)
        except (EOFError, OSError, ValueError):
            # the known fault: a torn cache file is neither verified nor
            # regenerated, so the reopen fails
            state["failed"] += 1
        else:
            state["problems"] += checks.same_trace(cold, again)
        state["cache_s"].append(perf_counter() - t0)
        state["cache_ops"] += 3

    walls, trace = timed_rounds(one_round, clock, args.seconds, MIN_OPS,
                                between=cache_ops)
    rss = peak_rss_mb()
    ops = clock.ops_ms
    app.on_snapshot = None
    problems = state["problems"]  # later cache rounds keep adding to it
    problems += checks.regrid_checks(
        trace, app.error_field, app.load_field, policy.thresholds,
        policy.regrid_interval)
    problems += checks.same_trace(trace, AdaptationTrace.load(out_path))
    if len(trace) != TRACEGEN_STEPS // policy.regrid_interval:
        problems.append(f"{len(trace)} snapshots generated")
    result = {
        "problems": problems,
        "attempted": len(ops) + state["cache_ops"],
        "failed": state["failed"],
        "work_s": statistics.median(walls),
        "ops_ms": ops,
        "peak_rss_mb": rss,
        "rounds": len(walls),
    }
    if args.trace:
        tracer = Tracer()
        install_tracegen_layers(tracer)
        state["cache_s"] = []

        def untraced_cache_ops(trace) -> None:
            with tracer.discarding():
                cache_ops(trace)

        clock.ops_ms = []
        app.on_snapshot = clock.mark
        twalls, _ = timed_rounds(one_round, clock, args.seconds, 1,
                                 between=untraced_cache_ops)
        tracer.uninstall()
        n = len(twalls)
        traced = statistics.fmean(twalls)
        layers = layer_metrics(
            tracer, n, traced, "regrid",
            ("fields", "cluster", "level_add", "trace.save"),
            ("fields.calls", "cluster.calls", "level_add.calls",
             "box.constructions", "box.intersections"),
        )
        layers["trace.save_s"] = layers.pop("trace.save.self_s")
        layers["trace.bytes"] = out_path.stat().st_size
        layers["trace.cache_s"] = statistics.median(state["cache_s"])
        layers["import_s"] = import_s
        result["layers"] = layers
        result["traced_work_s"] = traced
        result["untraced_work_s"] = statistics.fmean(walls)
    return result


# -- served path: the closed-loop load generator ------------------------------


class Connection:
    """One JSONL client connection: a request line out, a response in."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")

    def call(self, doc: dict) -> dict:
        return self.pipeline([doc])[0]

    def pipeline(self, docs: list[dict]) -> list[dict]:
        """Send every request line at once, then read one response each."""
        self.sock.sendall("".join(json.dumps(d) + "\n" for d in docs)
                          .encode())
        out = []
        for _ in docs:
            line = self.rfile.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            out.append(json.loads(line))
        return out

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class RequestStream:
    """The seeded request sequence, one round at a time.

    Every request of a run is distinct except the planned twins and
    repeats: ``fig4`` and the chaos replays take fresh seeds, the SFC
    ablation walks a seeded permutation of (num_procs, samples) pairs.
    A request is ``(scenario, params, twin)``; a twin is submitted twice.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-closed/{seed}")
        self.used: set[tuple[str, int]] = set()
        grid = [(p, s) for p in range(2, 65) for s in (7, 8, 9)]
        self.rng.shuffle(grid)
        self.ablation = iter(grid)

    def _seed(self, name: str) -> int:
        while True:
            s = self.rng.randrange(1_000_000)
            if (name, s) not in self.used:
                self.used.add((name, s))
                return s

    def _params(self, name: str) -> dict:
        if name == "ablation-sfc-curves":
            procs, samples = next(self.ablation)
            return {"num_procs": procs, "samples": samples}
        return {"seed": self._seed(name)}

    def next_round(self) -> tuple[list, list]:
        distinct = [(name, self._params(name))
                    for name, n in SERVE_MIX for _ in range(n)]
        self.rng.shuffle(distinct)
        first = distinct[:SERVE_PHASE1]
        twins = set(self.rng.sample(range(SERVE_PHASE1), SERVE_TWINS))
        phase1 = [(n, p, i in twins) for i, (n, p) in enumerate(first)]
        phase2 = [(n, p, False) for n, p in
                  distinct[SERVE_PHASE1:]
                  + self.rng.sample(first, SERVE_REPEATS)]
        self.rng.shuffle(phase2)
        return phase1, phase2


def run_phase(conns: list[Connection], reqs: list, tag: str,
              log: list[dict]) -> None:
    """Closed loop: each connection submits, waits for the result, repeats."""
    lock = threading.Lock()
    todo = iter(enumerate(reqs))
    errors: list[BaseException] = []

    def loop(conn: Connection) -> None:
        try:
            while True:
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                i, (name, params, twin) = item
                rids = [f"{tag}-{i}", f"{tag}-{i}t"][:1 + twin]
                t0 = perf_counter()
                accs = conn.pipeline([
                    {"op": "submit", "id": rid, "scenario": name,
                     "params": params} for rid in rids])
                for rid, acc in zip(rids, accs):
                    res = conn.call({"op": "result", "id": rid,
                                     "timeout_s": 120})
                    t1 = perf_counter()
                    log.append({
                        "scenario": name, "params": params,
                        "job": acc.get("job"), "twin": rid != rids[0],
                        "status": res.get("status"),
                        "cached": res.get("cached"),
                        "result": res.get("result"), "rtt_s": t1 - t0,
                    })
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def sweep_result(name: str, params: dict):
    """The result of one request run in-process through ``repro.sweep``."""
    from repro.partitioners import deterministic_partition_time
    from repro.sweep.scenario import (ScenarioContext, derive_seed,
                                      get_scenario, jsonify)

    scenario = get_scenario(name)
    merged = {**scenario.params, **params}
    ctx = ScenarioContext(params=merged, seed=derive_seed(name, merged, 0))
    with deterministic_partition_time():
        return jsonify(scenario.run(ctx))


def serve_session(args) -> dict:
    conns = [Connection(args.socket) for _ in range(SERVE_CONNECTIONS)]
    stream = RequestStream(args.seed)
    log: list[dict] = []
    walls: list[float] = []
    start = perf_counter()
    while True:
        phase1, phase2 = stream.next_round()
        r = len(walls)
        t0 = perf_counter()
        run_phase(conns, phase1, f"r{r}a", log)
        conns[0].call({"op": "drain"})
        run_phase(conns, phase2, f"r{r}b", log)
        conns[0].call({"op": "drain"})
        walls.append(perf_counter() - t0)
        # the traced run takes percentiles over executed requests only
        timed_ops = len(walls) * (SERVE_DISTINCT if args.trace else
                                  SERVE_REQUESTS)
        if perf_counter() - start >= args.seconds and timed_ops >= MIN_OPS:
            break
    stats = conns[0].call({"op": "stats"})["stats"]
    conns[1].close()
    conns[0].call({"op": "shutdown"})
    conns[0].close()
    report = wait_for_report(Path(args.server_report))

    import_repro()
    import repro.sweep.builtin  # noqa: F401 - registers the scenarios

    problems = checks.serve_checks(log, stats["counters"], sweep_result)
    result = {
        "problems": problems,
        "attempted": len(log),
        "failed": 0,
        "work_s": statistics.median(walls),
        "ops_ms": [r["rtt_s"] * 1000.0 for r in log],
        "peak_rss_mb": report["peak_rss_mb"],
        "rounds": len(walls),
        "mean_work_s": statistics.fmean(walls),
    }
    if args.trace:
        result["layers"] = serve_layers(log, report, stats["counters"],
                                        walls)
        result["traced_work_s"] = statistics.fmean(walls)
    return result


def wait_for_report(path: Path, timeout_s: float = 60.0) -> dict:
    deadline = perf_counter() + timeout_s
    while not path.exists():
        if perf_counter() > deadline:
            raise TimeoutError(f"no server report at {path}")
        time.sleep(0.01)
    return json.loads(path.read_text())


def serve_layers(log: list[dict], report: dict, counters: dict,
                 walls: list[float]) -> dict[str, float]:
    """The served path split by the server's own job event times.

    Per executed request: queue wait = queued → running, execute =
    running → done, wire = client round trip − queued → done.  Cache
    hits spend their whole round trip on the wire.  A coalesced twin
    is left out: its round trip overlaps its original's on the same
    connection.  The ``*_s`` figures
    are per round and per connection, so with the client remainder
    (barriers, drains, client code) they add up to the traced work_s.
    """
    times: dict[int, dict[str, float]] = {}
    for seq, kind, t in report["events"]:
        times.setdefault(seq, {}).setdefault(kind, t)
    queue_ms, exec_ms, wire_ms = [], [], []
    wire_cached = 0.0
    for req in log:
        if req["twin"]:
            continue
        seq = int(str(req["job"]).rsplit("-", 1)[-1])
        ev = times.get(seq, {})
        if req["cached"] or "queued" not in ev:
            wire_cached += req["rtt_s"]
            continue
        q, run, done = ev["queued"], ev["running"], ev["done"]
        queue_ms.append((run - q) * 1000.0)
        exec_ms.append((done - run) * 1000.0)
        wire_ms.append((req["rtt_s"] - (done - q)) * 1000.0)
    rounds = len(walls)
    share = 1.0 / (rounds * SERVE_CONNECTIONS)
    work_s = statistics.fmean(walls)
    q_s = sum(queue_ms) / 1000.0 * share
    e_s = sum(exec_ms) / 1000.0 * share
    w_s = (sum(wire_ms) / 1000.0 + wire_cached) * share
    qp50, qp90 = percentiles(queue_ms)
    ep50, ep90 = percentiles(exec_ms)
    n = len(log)
    executions = counters.get("executions", 0)
    reuse = counters.get("cache_hits", 0) + counters.get("dedup_hits", 0)
    return {
        "serve.queue_wait_ms.p50": qp50,
        "serve.queue_wait_ms.p90": qp90,
        "serve.execute_ms.p50": ep50,
        "serve.execute_ms.p90": ep90,
        "serve.commit_ms.p50": statistics.median(report["commits_s"]) * 1000,
        "serve.wire_ms.p50": statistics.median(wire_ms),
        "serve.batch_size.mean": report["batch_size_mean"],
        "serve.server_cpu_s": report["cpu_s"] / rounds,
        "serve.cores_busy": report["cpu_s"] / sum(walls),
        "serve.executions": _per_round(executions, rounds),
        "serve.cache_hits": _per_round(counters.get("cache_hits", 0), rounds),
        "serve.dedup_hits": _per_round(counters.get("dedup_hits", 0), rounds),
        "serve.reuse_ratio": reuse / n,
        "serve.queue_wait_s": q_s,
        "serve.execute_s": e_s,
        "serve.wire_s": w_s,
        "serve.client_s": work_s - q_s - e_s - w_s,
        "import_s": report["import_s"],
    }


def _per_round(total: int, rounds: int) -> float:
    """A count per round: an exact integer when every round did the same."""
    return total // rounds if total % rounds == 0 else total / rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--tmp", default=".")
    ap.add_argument("--socket")
    ap.add_argument("--server-report")
    args = ap.parse_args()
    if args.workload == "compare-replay":
        result = replay_session(args, COMPARE_WITH)
    elif args.workload == "adaptive-replay":
        result = replay_session(args, ())
    elif args.workload == "trace-gen":
        result = tracegen_session(args, Path(args.tmp))
    elif args.workload == "serve-closed":
        result = serve_session(args)
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if result is not None:
        emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
