"""Sharded campaign execution over a ``multiprocessing`` pool.

The executor expands a :class:`~repro.campaigns.spec.CampaignSpec`,
drops every trial the store has already completed (resumability),
partitions the remainder into contiguous chunks, and runs the chunks
either in-process (``workers <= 1``) or on a process pool, streaming
finished records into the store as each chunk lands.

Failure model:

* a trial that raises is recorded as an ``error`` record — never fatal
  to the campaign;
* a *worker process* that dies (OOM-kill, segfault, pool breakage) makes
  its chunk's future raise; the parent falls back to re-running that
  chunk serially in-process, trial-by-trial, so one bad worker cannot
  lose work or wedge the run;
* a killed *campaign* (SIGKILL mid-run) leaves at most one torn JSONL
  line, which the store tolerates; the next run skips everything with an
  ``ok`` record and re-executes only the rest.

Determinism: trial results depend only on the trial's parameters and the
campaign's base seed (see :mod:`repro.campaigns.runners`), and
aggregation orders by spec expansion rather than store insertion, so the
same campaign is bit-identical at any worker count.

Multi-host execution (``claim=True``): the full trial list is cut into a
*deterministic* chunk partition — same spec, same chunk size, same
chunks on every host — and each chunk is guarded by a filesystem lease
(:mod:`repro.campaigns.leases`).  A claiming host writes its results to
its own shard (the store's ``host_id``), heartbeats its lease after
every finished trial, retires the chunk with a ``done`` marker, and
rescans the store between chunks so work other hosts completed is
skipped.  A host that dies mid-chunk stops heartbeating; once the TTL
passes, any other host reclaims the chunk and re-runs only its
unfinished trials.  Because trials are deterministic and shard records
idempotent, the merged campaign is byte-identical to a serial
single-host run at any (host, worker) count.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.campaigns.leases import LeaseManager, chunk_id
from repro.campaigns.runners import execute_trial, runnable_trials
from repro.campaigns.spec import CampaignSpec, Trial
from repro.campaigns.store import CampaignStore
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

__all__ = [
    "RunStats", "TrialOutcome", "check_run_options", "claim_chunk_size",
    "run_campaign",
]

_TRIALS_OK = _obs.counter(
    "repro_campaign_trials_total", "finished trials by status",
    {"status": "ok"},
)
_TRIALS_ERROR = _obs.counter(
    "repro_campaign_trials_total", "finished trials by status",
    {"status": "error"},
)


@dataclass(frozen=True)
class TrialOutcome:
    """One finished trial, as produced by a worker."""

    key: str
    kind: str
    params: dict[str, Any]
    status: str  # "ok" | "error"
    result: dict[str, Any] | None
    error: str | None
    elapsed: float


@dataclass
class RunStats:
    """What one ``run_campaign`` invocation did."""

    total: int = 0  # trials in the expanded campaign
    skipped: int = 0  # already completed in the store (resumed past)
    executed: int = 0  # run this invocation (ok + failed)
    failed: int = 0  # error records written this invocation
    remaining: int = 0  # left pending (max_trials cut the run short)
    fallbacks: int = 0  # chunks re-run in-parent after a worker died
    claimed_chunks: int = 0  # chunks this host's leases won (claim mode)
    lease_skips: int = 0  # chunks another live host holds or finished
    reclaimed: int = 0  # stale leases broken (dead-host recovery)
    raced: int = 0  # trials found already done after a claim landed
    elapsed: float = 0.0
    outcomes: list[TrialOutcome] = field(default_factory=list)


ProgressFn = Callable[[TrialOutcome, "RunStats"], None]


def _run_trial(trial: Trial, base_seed: int) -> TrialOutcome:
    started = time.perf_counter()
    with _trace.span("campaign.trial", key=trial.key, kind=trial.kind) as sp:
        try:
            result = execute_trial(trial.kind, trial.params, base_seed)
            status, error = "ok", None
        except Exception:
            result, status = None, "error"
            error = traceback.format_exc(limit=20)
        sp.set(status=status)
    (_TRIALS_OK if status == "ok" else _TRIALS_ERROR).inc()
    return TrialOutcome(
        key=trial.key,
        kind=trial.kind,
        params=trial.params,
        status=status,
        result=result,
        error=error,
        elapsed=time.perf_counter() - started,
    )


def _run_chunk(trials: Sequence[Trial], base_seed: int) -> list[TrialOutcome]:
    """Worker entry point: run one chunk, every trial individually guarded."""
    with _trace.span("campaign.chunk", trials=len(trials)):
        return [_run_trial(trial, base_seed) for trial in trials]


def _chunked(trials: Sequence[Trial], size: int) -> list[list[Trial]]:
    return [list(trials[i : i + size]) for i in range(0, len(trials), size)]


def _default_chunk_size(pending: int, workers: int) -> int:
    # aim for ~4 chunks per worker so a crashed worker loses little and
    # stragglers balance, without paying per-trial IPC for tiny trials
    return max(1, min(32, -(-pending // (workers * 4))))


def claim_chunk_size(total: int) -> int:
    """The lease-partition chunk size every cooperating host derives.

    A pure function of the campaign's *total* trial count (never of the
    per-host pending set, worker count or anything ambient), so all
    hosts cut the identical partition and their chunk ids line up
    without coordination.  ~64 chunks keeps the reclaim unit small while
    leases stay far apart on the filesystem.
    """
    return max(1, min(32, -(-total // 64)))


def check_run_options(
    chunk_size: int | None = None,
    max_trials: int | None = None,
    lease_ttl: float = 60.0,
) -> None:
    """``ValueError`` for a chunk size below 1, a negative trial cap or a
    lease TTL that is not positive (:func:`run_campaign`'s limits)."""
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    if max_trials is not None and max_trials < 0:
        raise ValueError(f"max trials must be >= 0, got {max_trials}")
    if not lease_ttl > 0:
        raise ValueError(f"lease ttl must be positive, got {lease_ttl}")


def _record(store: CampaignStore, outcome: TrialOutcome) -> None:
    store.append(
        key=outcome.key,
        kind=outcome.kind,
        params=outcome.params,
        status=outcome.status,
        result=outcome.result,
        error=outcome.error,
        elapsed=outcome.elapsed,
    )


def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    max_trials: int | None = None,
    retry_errors: bool = True,
    progress: ProgressFn | None = None,
    claim: bool = False,
    lease_ttl: float = 60.0,
) -> RunStats:
    """Run (or resume) a campaign; returns what this invocation did.

    ``store=None`` runs against an ephemeral in-memory store (the
    returned :attr:`RunStats.outcomes` still carry every result).
    ``max_trials`` caps how many pending trials this invocation executes
    — the deterministic stand-in for "the run was interrupted" that the
    resumability tests and the CI smoke job use.  ``retry_errors=False``
    also skips trials whose previous attempt errored.

    ``claim=True`` turns on multi-host chunk claiming (see the module
    docstring): the store must be on disk with a ``host_id``, pending
    work is taken chunk-by-chunk under filesystem leases, and results
    land in this host's shard.  ``chunk_size`` then applies to the lease
    partition and **must agree across cooperating hosts** (the default
    is derived from the spec, so omitting it everywhere always agrees).
    """
    # ValueError before the store is touched
    check_run_options(chunk_size, max_trials, lease_ttl)
    trials = runnable_trials(spec)
    if store is None:
        store = CampaignStore(None)
    store.save_spec(spec)

    stats = RunStats()
    started = time.perf_counter()
    stats.total = len(trials)

    skip = set(store.completed_keys())
    if not retry_errors:
        skip |= set(store.error_keys())
    pending = [trial for trial in trials if trial.key not in skip]
    stats.skipped = stats.total - len(pending)

    if claim:
        if store.root is None or store.host_id is None:
            raise ValueError(
                "claim mode needs an on-disk store opened with a host_id"
            )
        _run_claiming(
            spec, store, stats, trials, workers, chunk_size,
            max_trials, retry_errors, progress, lease_ttl,
        )
        stats.elapsed = time.perf_counter() - started
        return stats

    if max_trials is not None:
        stats.remaining = max(0, len(pending) - max_trials)
        pending = pending[:max_trials]

    def land(outcome: TrialOutcome) -> None:
        _record(store, outcome)
        stats.executed += 1
        if outcome.status != "ok":
            stats.failed += 1
        stats.outcomes.append(outcome)
        if progress is not None:
            progress(outcome, stats)

    if workers <= 1 or len(pending) <= 1:
        for trial in pending:
            land(_run_trial(trial, spec.seed))
    else:
        size = chunk_size or _default_chunk_size(len(pending), workers)
        chunks = _chunked(pending, size)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_chunk, chunk, spec.seed): chunk
                for chunk in chunks
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk = futures[future]
                    try:
                        outcomes = future.result()
                    except Exception:
                        # the worker process died (not a trial error —
                        # those are caught inside the chunk): recover by
                        # re-running this chunk in-parent
                        stats.fallbacks += 1
                        outcomes = _run_chunk(chunk, spec.seed)
                    for outcome in outcomes:
                        land(outcome)

    stats.elapsed = time.perf_counter() - started
    return stats


def _run_claiming(
    spec: CampaignSpec,
    store: CampaignStore,
    stats: RunStats,
    trials: Sequence[Trial],
    workers: int,
    chunk_size: int | None,
    max_trials: int | None,
    retry_errors: bool,
    progress: ProgressFn | None,
    lease_ttl: float,
) -> None:
    """The claim-mode executor body: lease, run, heartbeat, retire.

    The chunk partition covers the *full* trial list (not this host's
    pending view) so every host derives identical chunk ids; a chunk
    whose trials are all complete is retired with a ``done`` marker by
    whichever host notices first.  Within a claimed chunk, trials run on
    this host's own process pool (``workers``) and the lease is
    refreshed each time one lands, so the TTL only needs to outlast the
    slowest single trial.
    """
    leases = LeaseManager(
        store.root, store.host_id, ttl=lease_ttl,
    )
    size = chunk_size or claim_chunk_size(len(trials))
    chunks = _chunked(trials, size)
    executed_budget = max_trials

    pool = (
        ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    )

    def land(outcome: TrialOutcome, chunk_name: str) -> None:
        # another host may have finished the trial while we raced the
        # same reclaimed chunk — its record is already in the manifest
        # and a second byte-identical one would only bloat the shard
        if outcome.status == "ok" and outcome.key in store:
            stats.raced += 1
        else:
            _record(store, outcome)
        stats.executed += 1
        if outcome.status != "ok":
            stats.failed += 1
        stats.outcomes.append(outcome)
        leases.refresh(chunk_name)
        if progress is not None:
            progress(outcome, stats)

    try:
        for chunk in chunks:
            name = chunk_id([trial.key for trial in chunk])
            if leases.is_done(name):
                stats.lease_skips += 1
                continue
            # fold in other hosts' progress before deciding what's left
            store.refresh()
            skip = set(store.completed_keys())
            if not retry_errors:
                skip |= set(store.error_keys())
            todo = [trial for trial in chunk if trial.key not in skip]
            if not todo:
                # complete already: retire it so nobody ever rescans it
                if leases.claim(name):
                    leases.release(name, done=True)
                continue
            if executed_budget is not None and executed_budget <= 0:
                stats.remaining += len(todo)
                continue
            before = leases.reclaimed
            if not leases.claim(name):
                stats.lease_skips += 1
                continue
            stats.reclaimed += leases.reclaimed - before
            stats.claimed_chunks += 1
            if executed_budget is not None and len(todo) > executed_budget:
                stats.remaining += len(todo) - executed_budget
                todo = todo[:executed_budget]
            try:
                with _trace.span(
                    "campaign.chunk", chunk=name, trials=len(todo)
                ):
                    if pool is None:
                        for trial in todo:
                            land(_run_trial(trial, spec.seed), name)
                    else:
                        futures = {
                            pool.submit(_run_trial, trial, spec.seed): trial
                            for trial in todo
                        }
                        outstanding = set(futures)
                        while outstanding:
                            done, outstanding = wait(
                                outstanding, return_when=FIRST_COMPLETED
                            )
                            for future in done:
                                try:
                                    outcome = future.result()
                                except Exception:
                                    stats.fallbacks += 1
                                    outcome = _run_trial(
                                        futures[future], spec.seed
                                    )
                                land(outcome, name)
                if executed_budget is not None:
                    executed_budget -= len(todo)
                # retire the chunk only when every trial (ours or a
                # racing host's) has an ok record; errored trials keep
                # the chunk claimable so a resume can retry them
                store.refresh()
                complete = all(
                    trial.key in store for trial in chunk
                )
                leases.release(name, done=complete)
            except BaseException:
                leases.release(name)
                raise
    finally:
        if pool is not None:
            pool.shutdown()
        leases.release_all()
