"""The serving scheduler: batch dispatch, retries, timeouts, exactly-once.

A :class:`Scheduler` owns a persistent pool of worker threads draining a
:class:`~repro.serve.queue.JobQueue`.  Each dispatch pulls a *batch* of
compatible jobs (same priority class + shared inputs — see
``JobQueue.take_batch``), pre-warms the batch's shared requirements
once, then executes jobs with:

- **per-job timeouts** — a job that overruns its ``timeout_s`` is failed
  with status ``timeout`` (the runaway attempt is abandoned to a daemon
  thread; its late result is discarded by the commit guard),
- **retry on worker death** — a :class:`WorkerDeath` raised mid-attempt
  (the chaos-injection hook, standing in for a crashed worker process)
  is retried up to ``job.max_retries`` times with the capped
  exponential-backoff ladder of the resilience layer's
  :class:`~repro.agents.message_center.DeliveryPolicy` — the same
  deterministic full-jitter backoff message delivery uses,
- **exactly-once commitment** — every terminal transition goes through a
  per-job commit guard, so a zombie attempt racing its own retry can
  never double-commit a result, and cancellation observed before commit
  wins over a computed result.

The scheduler is execution-agnostic: the server supplies ``execute(job)``
(scenario lookup + run) and ``on_terminal(job)`` (cache write-back +
subscriber fulfillment).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro import obs
from repro.agents.message_center import DeliveryPolicy
from repro.serve.queue import Job, JobQueue

__all__ = ["WorkerDeath", "JobTimeout", "Scheduler"]


class WorkerDeath(RuntimeError):
    """A worker died mid-attempt (raised by the chaos-injection hook)."""


class JobTimeout(RuntimeError):
    """An attempt overran the job's ``timeout_s``."""


#: default retry backoff — the resilience delivery ladder with a short,
#: jittered base so retries desynchronize without stalling the worker
DEFAULT_RETRY_POLICY = DeliveryPolicy(
    backoff_base=0.005, backoff_cap=0.1, backoff_jitter=True
)


class Scheduler:
    """Persistent worker pool turning queued jobs into committed results.

    ``execute`` runs one job and returns its JSON result; ``on_terminal``
    is called exactly once per job after its terminal transition.
    ``death_injector(job, attempt)`` (tests/chaos) may raise
    :class:`WorkerDeath` to simulate a worker crashing ``"before"`` the
    attempt runs or ``"after"`` it computed but before commitment — the
    two windows where at-most-once and at-least-once delivery disagree.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[Job], Any],
        *,
        workers: int = 2,
        max_batch: int = 4,
        retry_policy: DeliveryPolicy | None = None,
        on_terminal: Callable[[Job], None] | None = None,
        warm_requirement: Callable[[str], None] | None = None,
        death_injector: Callable[[Job, int], str | None] | None = None,
        on_event: Callable[[Job, str, float, dict], None] | None = None,
        metrics: Any = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.queue = queue
        self.execute = execute
        self.workers = workers
        self.max_batch = max_batch
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.on_terminal = on_terminal or (lambda job: None)
        self.warm_requirement = warm_requirement or (lambda req: None)
        self.death_injector = death_injector
        self.on_event = on_event
        #: optional always-on registry (the owning server's) that every
        #: scheduler counter is dual-written to, alongside the global
        #: :mod:`repro.obs` helpers (null unless a window is open)
        self.metrics = metrics
        self.clock = clock
        self.sleep = sleep
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False

    def _inc(self, name: str, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()
        obs.counter(name, **labels).inc()

    def _observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, **labels).observe(value)
        obs.histogram(name, **labels).observe(value)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the worker pool is running."""
        return self._started

    @property
    def alive_workers(self) -> int:
        """How many pool threads are currently alive."""
        return sum(1 for t in self._threads if t.is_alive())

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        if self._started:
            return
        self._started = True
        for wid in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                args=(wid,),
                name=f"serve-worker-{wid}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def stop(self, wait: bool = True) -> None:
        """Close the queue and (optionally) join the workers."""
        self._stopping = True
        self.queue.close()
        if wait:
            for t in self._threads:
                t.join(timeout=10.0)
        self._threads = []
        self._started = False

    # -- worker loop -------------------------------------------------------------

    def _worker_loop(self, wid: int) -> None:
        while True:
            batch = self.queue.take_batch(self.max_batch)
            if not batch:
                return
            self._run_batch(batch, wid)

    def step(self, wid: int = 0) -> int:
        """Take and run one batch without blocking; returns its size.

        This is the cooperative face of the worker loop: the simulation
        harness (:mod:`repro.simtest`) drives parked worker tasks through
        it one dispatch at a time, so the exact same batch/retry/commit
        code runs under a controlled schedule.  Returns 0 when the queue
        had nothing pending.
        """
        batch = self.queue.take_batch(self.max_batch, timeout=0)
        if batch:
            self._run_batch(batch, wid)
        return len(batch)

    def _run_batch(self, batch: list[Job], wid: int) -> None:
        self._inc("serve.batches")
        self._observe("serve.batch_size", len(batch))
        for req in sorted({r for job in batch for r in job.requires}):
            try:
                self.warm_requirement(req)
            except Exception:  # noqa: BLE001 - jobs re-warm and fail solo
                pass
        for job in batch:
            self._run_job(job, wid)

    def _transition(self, job: Job, status: str, *,
                    abandoned_only: bool = False,
                    **event_attrs: Any) -> bool:
        """Commit ``job`` to a terminal ``status`` exactly once.

        Returns False when another path (a racing retry, a cancel, an
        earlier commit) already owns the job — the caller's outcome is
        then discarded.  With ``abandoned_only`` the commit additionally
        requires ``subscribers == 0`` *inside* the locked region: cancel
        commits use it so a same-key submit that re-attaches to the job
        between the caller's check and the commit keeps the job alive.

        ``on_terminal`` (cache write-back, inflight pop) runs *before*
        ``done`` wakes the waiting clients, so a client that resubmits
        the key the moment its result returns finds the cached result
        instead of executing the key a second time.
        """
        with job.lock:
            if job.committed:
                return False
            if abandoned_only and job.subscribers > 0:
                return False
            job.committed = True
            job.status = status
            job.finished_t = self.clock()
        self._event(job, status, **event_attrs)
        try:
            self.on_terminal(job)
        finally:
            job.done.set()
        return True

    def _event(self, job: Job, kind: str, **attrs: Any) -> None:
        t = self.clock()
        job.events.append((kind, t, attrs))
        obs.get_timeline().event(f"serve.{kind}", t, job=f"job-{job.seq}",
                                 scenario=job.name, **attrs)
        if self.on_event is not None:
            self.on_event(job, kind, t, attrs)

    def _run_job(self, job: Job, wid: int) -> None:
        if job.cancel_requested:
            # commits only while the job is abandoned; when a dedup
            # attach re-subscribed after the cancel, fall through and
            # run (the while-loop entry handles an already-committed job)
            if self._transition(job, "cancelled", abandoned_only=True,
                                where="pre-dispatch"):
                self._inc("serve.cancelled", where="pre-dispatch")
                return
        attempt = 0
        while True:
            job.attempts += 1
            with job.lock:
                if job.committed:
                    return
                job.status = "running"
                if job.started_t is None:
                    job.started_t = self.clock()
            self._event(job, "running", attempt=attempt, worker=wid)
            try:
                result = self._attempt(job, attempt)
            except WorkerDeath as death:
                self._inc("serve.worker_deaths")
                self._event(job, "worker-death", attempt=attempt,
                            where=str(death))
                if attempt >= job.max_retries:
                    job.error = (
                        f"worker died {attempt + 1} times (retries exhausted)"
                    )
                    self._transition(job, "failed", reason="worker-death")
                    return
                attempt += 1
                job.retries += 1
                self._inc("serve.retries")
                self.sleep(self.retry_policy.backoff(attempt - 1, key=job.seq))
                continue
            except JobTimeout:
                self._inc("serve.timeouts")
                job.error = f"timed out after {job.timeout_s}s"
                self._transition(job, "timeout")
                return
            except Exception as exc:  # noqa: BLE001 - isolate job failures
                job.error = f"{type(exc).__name__}: {exc}"
                self._transition(job, "failed", reason="exception")
                return
            with job.lock:
                cancelled = (
                    job.cancel_requested
                    and not job.committed
                    and job.subscribers == 0
                )
            if cancelled and self._transition(job, "cancelled",
                                              abandoned_only=True,
                                              where="post-run"):
                self._inc("serve.cancelled", where="post-run")
                return
            job.result = result
            if self._transition(job, "done"):
                self._inc("serve.completed")
            return

    def _attempt(self, job: Job, attempt: int) -> Any:
        """One execution attempt, with death injection and timeout.

        The injector is consulted once per attempt; ``"before"`` kills
        the attempt before any work, ``"after"`` kills it after the
        result was computed but before commitment.
        """
        where = (
            self.death_injector(job, attempt)
            if self.death_injector is not None
            else None
        )
        if where == "before":
            raise WorkerDeath("before")
        if job.timeout_s is None:
            result = self.execute(job)
        else:
            box: dict[str, Any] = {}

            def _call() -> None:
                try:
                    box["result"] = self.execute(job)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    box["error"] = exc

            t = threading.Thread(target=_call, daemon=True,
                                 name=f"serve-attempt-{job.seq}")
            t.start()
            t.join(job.timeout_s)
            if t.is_alive():
                raise JobTimeout()
            if "error" in box:
                raise box["error"]
            result = box["result"]
        if where == "after":
            raise WorkerDeath("after")
        return result
