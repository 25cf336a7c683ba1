"""``python -m repro.campaigns`` — run, resume, merge and report campaigns.

Subcommands::

    run SPEC [--store DIR] [--workers N] [--chunk-size N]
             [--max-trials N] [--no-retry-errors] [--quiet]
             [--claim] [--host-id ID] [--lease-ttl S]
    status STORE
    profile STORE [--trace FILE]
    merge STORE [--prune]
    report STORE [--out FILE]

``run`` is always a *resume*: trials the store has already completed are
skipped, so interrupting a campaign (Ctrl-C, SIGKILL, a dead machine)
costs only the unfinished trials.  The default store directory is
``.campaigns/<campaign name>`` under the current directory.

``--claim`` cooperates with other hosts on one shared store: pending
work is taken chunk-by-chunk under filesystem leases
(:mod:`repro.campaigns.leases`) and results land in this host's shard
``results-<host id>.jsonl``.  Run the same command on every host;
``merge`` afterwards folds the shards into the canonical
``results.jsonl`` (``--prune`` deletes them once folded).  Reports do
not require a merge — the store scans shards transparently.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
from pathlib import Path

from repro.campaigns.aggregate import render_report
from repro.campaigns.executor import (
    RunStats, TrialOutcome, check_run_options, run_campaign,
)
from repro.campaigns.leases import LeaseManager
from repro.campaigns.runners import runnable_trials
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore, merge_shards

__all__ = ["main"]


def default_host_id() -> str:
    """``<hostname>-<pid>`` — unique enough for cooperating processes on
    one machine and across a cluster alike."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _default_store(spec: CampaignSpec) -> Path:
    return Path(".campaigns") / spec.name


def _open_store_dir(path: str) -> CampaignStore:
    store = CampaignStore(path)
    if store.load_spec() is None:
        raise SystemExit(
            f"{path} is not a campaign store (no spec.json); "
            "run the campaign first"
        )
    return store


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = CampaignSpec.load(args.spec)
        runnable_trials(spec)  # expand and check before any store exists
    except (ValueError, TypeError, OSError) as exc:
        raise SystemExit(f"bad campaign spec {args.spec}: {exc}") from None
    store_dir = Path(args.store) if args.store else _default_store(spec)
    stream = sys.stderr if args.quiet else sys.stdout

    def progress(outcome: TrialOutcome, stats: RunStats) -> None:
        if args.quiet:
            return
        done = stats.skipped + stats.executed
        flag = "ok" if outcome.status == "ok" else "ERR"
        label = " ".join(f"{k}={v}" for k, v in sorted(outcome.params.items()))
        print(
            f"[{done}/{stats.total}] {flag} {outcome.kind} {label} "
            f"({outcome.elapsed:.2f}s)",
            file=stream,
            flush=True,
        )

    host_id = None
    if args.claim:
        host_id = args.host_id or default_host_id()
    elif args.host_id:
        raise SystemExit("--host-id only makes sense with --claim")
    try:
        # every flag is checked before the store directory exists
        check_run_options(args.chunk_size, args.max_trials, args.lease_ttl)
        store = CampaignStore(store_dir, host_id=host_id)
    except ValueError as exc:
        raise SystemExit(f"bad run flags: {exc}") from None

    with store:
        try:
            stats = run_campaign(
                spec,
                store,
                workers=args.workers,
                chunk_size=args.chunk_size,
                max_trials=args.max_trials,
                retry_errors=not args.no_retry_errors,
                progress=progress,
                claim=args.claim,
                lease_ttl=args.lease_ttl,
            )
        except KeyboardInterrupt:
            print(
                "\ninterrupted — completed trials are saved; "
                "re-run to resume",
                file=sys.stderr,
            )
            return 130
    claimed = (
        f", {stats.claimed_chunks} chunks claimed as {host_id} "
        f"({stats.lease_skips} held elsewhere, {stats.reclaimed} reclaimed)"
        if args.claim
        else ""
    )
    print(
        f"campaign {spec.name}: {stats.total} trials, "
        f"{stats.skipped} already done, {stats.executed} run "
        f"({stats.failed} failed), {stats.remaining} remaining, "
        f"{stats.elapsed:.2f}s{claimed}",
        file=stream,
    )
    if stats.failed:
        return 1
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    store = _open_store_dir(args.store)
    shard_names = [path.name for path in store.shard_paths()]
    if not shard_names:
        print(f"{store.root}: no shards to merge")
        return 0
    stats = merge_shards(store.root, prune=args.prune)
    for name in shard_names:
        corrupt = (
            f", {stats.corrupt_lines[name]} torn lines ignored"
            if stats.corrupt_lines.get(name)
            else ""
        )
        print(
            f"{name}: {stats.records[name]} records, "
            f"{stats.merged[name]} merged, "
            f"{stats.duplicates[name]} duplicates{corrupt}"
        )
    print(
        f"merged {stats.total_merged} records into results.jsonl"
        + (f"; pruned {len(stats.pruned)} shards" if stats.pruned else "")
    )
    return 0


def _kind_progress(spec, store):
    """Per-kind ``(total, done, failed, pending, mean_elapsed)`` rows.

    ``mean_elapsed`` comes from the completed trials' recorded wall
    times, or ``None`` for kinds with no completion yet.
    """
    completed = store.completed_keys()
    errors = store.error_keys()
    rows: dict[str, dict] = {}
    for trial in spec.trials():
        row = rows.setdefault(
            trial.kind, {"total": 0, "done": 0, "failed": 0, "elapsed": 0.0}
        )
        row["total"] += 1
        if trial.key in completed:
            row["done"] += 1
            record = store.record_for(trial.key)
            if record is not None:
                row["elapsed"] += float(record.get("elapsed", 0.0))
        elif trial.key in errors:
            row["failed"] += 1
    out = []
    for kind in sorted(rows):
        row = rows[kind]
        pending = row["total"] - row["done"] - row["failed"]
        mean = row["elapsed"] / row["done"] if row["done"] else None
        out.append((kind, row["total"], row["done"], row["failed"],
                    pending, mean))
    return out


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _cmd_status(args: argparse.Namespace) -> int:
    store = _open_store_dir(args.store)
    spec = store.load_spec()
    trials = spec.trials()
    completed = store.completed_keys()
    errors = store.error_keys()
    done = sum(1 for trial in trials if trial.key in completed)
    failed = sum(1 for trial in trials if trial.key in errors)
    pending = len(trials) - done - failed
    print(f"campaign:  {spec.name}")
    if spec.description:
        print(f"about:     {spec.description}")
    print(f"store:     {store.root}")
    print(f"trials:    {len(trials)}")
    print(f"completed: {done}")
    print(f"errored:   {failed}")
    print(f"pending:   {pending}")
    # per-kind progress + a naive serial ETA from recorded wall times:
    # pending x mean(elapsed of completed trials of the same kind).  No
    # worker-count correction — it is an upper bound for parallel runs.
    eta_total = 0.0
    eta_known = True
    for kind, total, kdone, kfailed, kpending, mean in _kind_progress(
        spec, store
    ):
        mean_text = f", ~{mean:.2f}s/trial" if mean is not None else ""
        print(
            f"  {kind}: {kdone}/{total} done"
            + (f", {kfailed} errored" if kfailed else "")
            + (f", {kpending} pending" if kpending else "")
            + mean_text
        )
        if kpending:
            if mean is None:
                eta_known = False
            else:
                eta_total += kpending * mean
    if pending and eta_total:
        qualifier = "" if eta_known else ">="
        print(
            f"eta:       {qualifier}{_format_eta(eta_total)} serial "
            "(naive: pending x mean elapsed per kind)"
        )
    shards = store.shard_paths()
    if shards:
        print(f"shards:    {len(shards)} ({', '.join(p.name for p in shards)})")
        # claim-mode breakdown: which host's shard carries how many records
        for path in shards:
            count = store.file_record_counts.get(path.name, 0)
            print(f"  {path.name}: {count} records")
    leases = (
        LeaseManager(store.root, "status-probe").active()
        if (store.root / "claims").is_dir()
        else []
    )
    for lease in leases:
        print(
            f"lease:     chunk {lease.chunk} held by {lease.host} "
            f"(ttl {lease.ttl:.0f}s)"
        )
    if store.corrupt_lines:
        for name, count in sorted(store.file_corrupt_lines.items()):
            print(f"torn lines ignored in {name}: {count}")
    return 0 if pending == 0 and failed == 0 else 3


def _read_spans(path: Path) -> list[dict]:
    """Decode a trace sink, tolerating torn lines like the store scanner."""
    spans = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "span" not in record:
                    continue
            except json.JSONDecodeError:
                continue
            spans.append(record)
    return spans


def _cmd_profile(args: argparse.Namespace) -> int:
    store = _open_store_dir(args.store)
    spec = store.load_spec()
    print(f"campaign:  {spec.name}")
    print(f"store:     {store.root}")

    # -- where the time went, from recorded trial wall times ----------------
    kinds = _kind_progress(spec, store)
    grand = sum(
        (mean or 0.0) * kdone for _, _, kdone, _, _, mean in kinds
    )
    print("per-kind elapsed (completed trials):")
    for kind, total, kdone, kfailed, kpending, mean in kinds:
        if not kdone or mean is None:
            print(f"  {kind}: no completed trials yet")
            continue
        spent = mean * kdone
        share = 100.0 * spent / grand if grand else 0.0
        print(
            f"  {kind}: {spent:.2f}s over {kdone} trials "
            f"({mean:.3f}s mean, {share:.0f}%)"
        )
    eta_total = sum(
        kpending * mean
        for _, _, _, _, kpending, mean in kinds
        if mean is not None
    )
    pending_total = sum(kpending for _, _, _, _, kpending, _ in kinds)
    if pending_total:
        print(
            f"eta:       ~{_format_eta(eta_total)} serial "
            f"for {pending_total} pending trials"
        )

    # -- where the time went, by trace span ---------------------------------
    trace_path = None
    if args.trace:
        trace_path = Path(args.trace)
    else:
        candidate = store.root / "trace.jsonl"
        if candidate.exists():
            trace_path = candidate
    if trace_path is None or not trace_path.exists():
        print(
            "trace:     none (run with REPRO_TRACE=<store>/trace.jsonl "
            "or pass --trace)"
        )
        return 0
    spans = _read_spans(trace_path)
    print(f"trace:     {trace_path} ({len(spans)} spans)")
    by_name: dict[str, list[int]] = {}
    for record in spans:
        try:
            dur = int(record["dur_ns"])
        except (KeyError, TypeError, ValueError):
            continue
        by_name.setdefault(str(record["span"]), []).append(dur)
    total_ns = sum(sum(durs) for durs in by_name.values())
    # layers sort by where the time went, heaviest first; ties by name
    # keep the report deterministic
    for name in sorted(
        by_name, key=lambda k: (-sum(by_name[k]), k)
    ):
        durs = by_name[name]
        spent = sum(durs)
        share = 100.0 * spent / total_ns if total_ns else 0.0
        print(
            f"  {name}: {spent / 1e9:.3f}s over {len(durs)} spans "
            f"({spent / len(durs) / 1e6:.3f}ms mean, {share:.0f}%)"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = _open_store_dir(args.store)
    spec = store.load_spec()
    text = render_report(spec, store)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaigns",
        description="Declarative, parallel, resumable experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run (or resume) a campaign spec")
    run.add_argument("spec", help="path to a campaign spec JSON file")
    run.add_argument("--store", help="result store directory")
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1 = in-process serial)",
    )
    run.add_argument(
        "--chunk-size", type=int, default=None,
        help="trials per worker chunk (default: auto)",
    )
    run.add_argument(
        "--max-trials", type=int, default=None,
        help="execute at most this many pending trials, then stop",
    )
    run.add_argument(
        "--no-retry-errors", action="store_true",
        help="also skip trials whose previous attempt errored",
    )
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--claim", action="store_true",
        help="cooperate with other hosts: take pending work chunk-by-chunk "
        "under filesystem leases, writing to this host's shard",
    )
    run.add_argument(
        "--host-id", default=None,
        help="shard / lease identity (default: <hostname>-<pid>)",
    )
    run.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds before an unrefreshed lease counts as dead "
        "(default 60; must outlast the slowest single trial)",
    )
    run.set_defaults(fn=_cmd_run)

    status = sub.add_parser("status", help="summarise a campaign store")
    status.add_argument("store", help="campaign store directory")
    status.set_defaults(fn=_cmd_status)

    profile = sub.add_parser(
        "profile",
        help="per-kind / per-layer time breakdown from recorded trial "
        "elapsed and (if present) a REPRO_TRACE span sink",
    )
    profile.add_argument("store", help="campaign store directory")
    profile.add_argument(
        "--trace", default=None,
        help="trace JSONL sink (default: <store>/trace.jsonl if present)",
    )
    profile.set_defaults(fn=_cmd_profile)

    merge = sub.add_parser(
        "merge", help="fold per-host result shards into results.jsonl"
    )
    merge.add_argument("store", help="campaign store directory")
    merge.add_argument(
        "--prune", action="store_true",
        help="delete each shard after folding it",
    )
    merge.set_defaults(fn=_cmd_merge)

    report = sub.add_parser(
        "report", help="render a completed campaign's report"
    )
    report.add_argument("store", help="campaign store directory")
    report.add_argument("--out", help="also write the report to this file")
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
