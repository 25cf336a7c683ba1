"""The campaign subsystem: spec expansion, store integrity, sharded
execution, resumability, and aggregation equivalence.

The load-bearing guarantees under test:

* trial identity is content-addressed — spellings, orderings and
  absent-vs-None never change a key, and nothing ambient enters it;
* ``Fraction`` alphas and results survive the JSONL store *exactly*;
* a campaign is bit-identical at any worker count;
* an interrupted campaign resumes past exactly the completed trials
  (including a SIGKILL mid-run, torn final line and all);
* campaign aggregation reproduces the in-process reference paths
  (the cooperation-ladder example table, ``convergence_study``)
  bit-for-bit.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro._rng import coerce_rng, derive_seed, spawn_rng, trial_seed
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    render_report,
    run_campaign,
    trial_key,
)
from repro.campaigns.aggregate import convergence_stats
from repro.campaigns.cli import main as cli_main
from repro.campaigns.spec import from_jsonable, to_jsonable
from repro.core.concepts import Concept

REPO_ROOT = Path(__file__).parent.parent
CAMPAIGNS_DIR = REPO_ROOT / "campaigns"


def tiny_spec(**overrides) -> CampaignSpec:
    """A mixed PoA + dynamics campaign small enough for unit tests."""
    payload = dict(
        name="tiny",
        kind="tree_poa",
        seed=7,
        grids=(
            {"n": 6, "alpha": [2, "9/2"], "concept": ["PS", "BGE"]},
            {
                "kind": "dynamics",
                "concept": "PS",
                "n": 7,
                "alpha": 3,
                "max_rounds": 200,
                "index": {"$range": 3},
            },
        ),
    )
    payload.update(overrides)
    return CampaignSpec(**payload)


# -- spec + trial identity ---------------------------------------------------


class TestSpecExpansion:
    def test_grid_product_counts_and_determinism(self):
        spec = tiny_spec()
        trials = spec.trials()
        assert len(trials) == 2 * 2 + 3
        assert trials == spec.trials()  # expansion is pure
        assert len({trial.key for trial in trials}) == len(trials)

    def test_exact_alpha_normalisation(self):
        spec = tiny_spec()
        alphas = {
            trial.params["alpha"]
            for trial in spec.trials()
            if trial.kind == "tree_poa"
        }
        assert alphas == {Fraction(2), Fraction(9, 2)}

    def test_duplicate_trials_collapse(self):
        spec = tiny_spec(
            grids=(
                {"n": 6, "alpha": [2, 2], "concept": "PS"},
                {"n": 6, "alpha": 2, "concept": "PS"},
            )
        )
        assert len(spec.trials()) == 1

    def test_range_axis(self):
        spec = tiny_spec(
            grids=(
                {
                    "kind": "dynamics",
                    "concept": "PS",
                    "n": 5,
                    "alpha": 2,
                    "index": {"$range": [2, 5]},
                },
            )
        )
        assert [t.params["index"] for t in spec.trials()] == [2, 3, 4]

    def test_key_is_spelling_invariant(self):
        base = trial_key(
            "tree_poa", {"n": 6, "alpha": Fraction(9, 2), "concept": Concept.PS}
        )
        assert base == trial_key(
            "tree_poa", {"alpha": "9/2", "concept": "PS", "n": 6}
        )
        assert base == trial_key(
            "tree_poa",
            {"n": 6, "alpha": 4.5, "concept": Concept.PS, "k": None},
        )
        assert base != trial_key(
            "tree_poa", {"n": 6, "alpha": "9/2", "concept": "PS", "k": 3}
        )
        assert base != trial_key(
            "graph_poa", {"n": 6, "alpha": "9/2", "concept": "PS"}
        )

    def test_json_round_trip_is_lossless(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = CampaignSpec.load(path)
        assert loaded == spec
        assert [t.key for t in loaded.trials()] == [
            t.key for t in spec.trials()
        ]
        # and committed specs parse with exact alphas
        ladder = CampaignSpec.load(CAMPAIGNS_DIR / "cooperation_ladder.json")
        assert {t.params["alpha"] for t in ladder.trials()} == {
            Fraction(a) for a in (2, 4, 8, 16, 32, 64)
        }

    def test_jsonable_codec_round_trips_exactly(self):
        values = {
            "alpha": Fraction(1045, 10),
            "concept": Concept.BSWE,
            "nested": [Fraction(1, 3), {"k": None, "flag": True}],
            "plain": "text",
        }
        assert from_jsonable(json.loads(json.dumps(to_jsonable(values)))) == values


class TestRngDerivation:
    def test_derive_seed_is_stable_and_sensitive(self):
        a = derive_seed(7, "dynamics", Fraction(9, 2), 3)
        assert a == derive_seed(7, "dynamics", Fraction(9, 2), 3)
        assert a != derive_seed(8, "dynamics", Fraction(9, 2), 3)
        assert a != derive_seed(7, "dynamics", Fraction(9, 2), 4)
        assert 0 <= a < 2**64

    def test_spawn_rng_routes_through_coerce(self):
        seed = derive_seed(3, "x")
        assert spawn_rng(3, "x").random() == coerce_rng(seed).random()

    def test_trial_seed_matches_historical_formula(self):
        assert trial_seed(42, 5) == 42 * 100_003 + 5


# -- store integrity ---------------------------------------------------------


class TestStore:
    def test_fractions_survive_the_jsonl_exactly(self, tmp_path):
        spec = tiny_spec(grids=({"n": 6, "alpha": "9/2", "concept": "PS"},))
        with CampaignStore(tmp_path / "store") as store:
            run_campaign(spec, store)
        reopened = CampaignStore(tmp_path / "store")
        (trial,) = spec.trials()
        result = reopened.result(trial.key)
        assert isinstance(result["poa"], Fraction)
        assert result["poa"].denominator > 1  # a genuinely non-integral rho
        assert result == CampaignStore(tmp_path / "store").result(trial.key)

    def test_duplicate_ok_record_is_refused(self, tmp_path):
        args = dict(
            kind="tree_poa", params={"n": 6}, status="ok",
            result={"poa": Fraction(1)}, error=None, elapsed=0.1,
        )
        with CampaignStore(tmp_path / "store") as store:
            store.append(key="k1", **args)
            with pytest.raises(ValueError, match="duplicate ok record"):
                store.append(key="k1", **args)

    def test_torn_final_line_is_tolerated_and_rerun(self, tmp_path):
        spec = tiny_spec(grids=({"n": 6, "alpha": [2, 3], "concept": "PS"},))
        store_dir = tmp_path / "store"
        with CampaignStore(store_dir) as store:
            run_campaign(spec, store)
        path = store_dir / "results.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        # simulate a SIGKILL mid-append: last record only half written
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with CampaignStore(store_dir) as reopened:
            assert reopened.corrupt_lines == 1
            assert len(reopened.completed_keys()) == 1
            stats = run_campaign(spec, reopened)
        assert stats.skipped == 1 and stats.executed == 1
        final = CampaignStore(store_dir)
        assert final.corrupt_lines == 1  # the torn line stays, ignored
        keys = [
            json.loads(line)["key"]
            for line in path.read_text().splitlines()
            if line.strip() and _decodes(line)
        ]
        # no key is ever recorded ok twice
        assert len(final.completed_keys()) == 2
        assert len(keys) == len(set(keys)) == 2

    def test_error_records_not_fatal_and_retryable(self, tmp_path):
        # an edge-count layer outside 4..10 passes the spec checks but
        # raises when run: it must record an error, not crash
        spec = tiny_spec(
            grids=(
                {"kind": "exact_poa", "family": "graphs", "n": 5,
                 "m": [4, 20], "alpha": 2, "concept": "PS"},
            )
        )
        store_dir = tmp_path / "store"
        with CampaignStore(store_dir) as store:
            stats = run_campaign(spec, store)
        assert stats.executed == 2 and stats.failed == 1
        reopened = CampaignStore(store_dir)
        assert len(reopened.completed_keys()) == 1
        assert len(reopened.error_keys()) == 1
        record = reopened.record_for(next(iter(reopened.error_keys())))
        assert "have 4..10 edges, not 20" in record["error"]
        # default resume retries the error; --no-retry-errors skips it
        assert run_campaign(spec, reopened, retry_errors=False).executed == 0
        with CampaignStore(store_dir) as store:
            retried = run_campaign(spec, store)
        assert retried.executed == 1 and retried.failed == 1

    def test_store_refuses_foreign_campaign(self, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            run_campaign(tiny_spec(), store)
        with pytest.raises(ValueError, match="belongs to campaign"):
            run_campaign(tiny_spec(name="other"), CampaignStore(tmp_path / "store"))


# -- execution: determinism, resumability, crash tolerance -------------------


def _comparable_records(store: CampaignStore) -> dict:
    records = {}
    for record in store.ok_records():
        stripped = dict(record)
        stripped.pop("elapsed")
        records[record["key"]] = stripped
    return records


class TestExecution:
    def test_serial_and_pooled_runs_are_bit_identical(self, tmp_path):
        spec = tiny_spec()
        serial = CampaignStore(tmp_path / "serial")
        pooled = CampaignStore(tmp_path / "pooled")
        with serial, pooled:
            stats_serial = run_campaign(spec, serial, workers=1)
            stats_pooled = run_campaign(spec, pooled, workers=4, chunk_size=2)
        assert stats_serial.failed == stats_pooled.failed == 0
        assert _comparable_records(serial) == _comparable_records(pooled)
        # and the aggregated report is byte-identical
        assert render_report(spec, serial) == render_report(spec, pooled)

    def test_resume_skips_exactly_the_completed_trials(self, tmp_path):
        spec = tiny_spec()
        total = len(spec.trials())
        store_dir = tmp_path / "store"
        k = 3
        with CampaignStore(store_dir) as store:
            first = run_campaign(spec, store, max_trials=k)
        assert first.executed == k and first.remaining == total - k
        reopened = CampaignStore(store_dir)
        assert len(reopened.completed_keys()) == k
        with reopened:
            second = run_campaign(spec, reopened, workers=2)
        assert second.skipped == k
        assert second.executed == total - k
        lines = (store_dir / "results.jsonl").read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines]
        assert len(keys) == len(set(keys)) == total
        # a third run has nothing to do
        third = run_campaign(spec, CampaignStore(store_dir))
        assert third.executed == 0 and third.skipped == total

    def test_sigkilled_campaign_resumes_without_rerunning(self, tmp_path):
        """The real thing: SIGKILL a 2-worker CLI run mid-flight, resume."""
        spec = tiny_spec(
            name="killable",
            grids=(
                {
                    "kind": "dynamics",
                    "concept": "BGE",
                    "n": 22,
                    "alpha": 3,
                    "max_rounds": 500,
                    "index": {"$range": 10},
                },
            ),
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaigns", "run",
                str(spec_path), "--store", str(store_dir),
                "--workers", "2", "--chunk-size", "1", "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # its own process group, so the kill below takes the pool
            # workers down with the CLI instead of orphaning them
            start_new_session=True,
        )
        results = store_dir / "results.jsonl"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if results.exists() and results.read_text().count("\n") >= 2:
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill it — still fine
                time.sleep(0.05)
            else:
                pytest.fail("campaign produced no records within 120s")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group has already exited
            proc.wait(timeout=60)

        interrupted = CampaignStore(store_dir)
        completed = len(interrupted.completed_keys())
        assert completed >= 1
        with interrupted:
            resumed = run_campaign(spec, interrupted)
        assert resumed.skipped == completed
        assert resumed.executed == len(spec.trials()) - completed
        keys = [
            json.loads(line)["key"]
            for line in results.read_text().splitlines()
            if _decodes(line)
        ]
        ok_keys = [k for k in keys]
        assert len(set(ok_keys)) == len(spec.trials())
        # the resumed store agrees with a from-scratch serial run
        fresh = CampaignStore(None)
        run_campaign(spec, fresh)
        assert _comparable_records(CampaignStore(store_dir)) == (
            _comparable_records(fresh)
        )


def _decodes(line: str) -> bool:
    try:
        json.loads(line)
        return True
    except json.JSONDecodeError:
        return False


# -- aggregation equivalence -------------------------------------------------


class TestAggregation:
    def test_ladder_campaign_matches_direct_computation(self):
        """The campaign table == the pre-subsystem example code, bit-for-bit."""
        from repro.analysis.poa import empirical_tree_poa
        from repro.analysis.tables import render_table

        sys.path.insert(0, str(REPO_ROOT / "examples"))
        try:
            from cooperation_ladder import ladder_spec
        finally:
            sys.path.pop(0)

        n, alphas = 6, (2, 4, 8)
        spec = ladder_spec(n, alphas)
        store = CampaignStore(None)
        stats = run_campaign(spec, store, workers=1)
        assert stats.failed == 0
        report = render_report(spec, store)

        # the original examples/cooperation_ladder.py main loop, verbatim
        rows = []
        for alpha in alphas:
            ps = empirical_tree_poa(n, alpha, Concept.PS)
            bswe = empirical_tree_poa(n, alpha, Concept.BSWE)
            bge = empirical_tree_poa(n, alpha, Concept.BGE)
            three = empirical_tree_poa(n, alpha, Concept.BGE, k=3)
            rows.append(
                [
                    alpha,
                    float(ps.poa) if ps.poa else "-",
                    float(bswe.poa) if bswe.poa else "-",
                    float(bge.poa) if bge.poa else "-",
                    float(three.poa) if three.poa else "-",
                ]
            )
        expected = render_table(
            ["alpha", "PoA(PS)", "PoA(BSwE)", "PoA(BGE)", "PoA(3-BSE)"],
            rows,
            title=f"Exact tree PoA by cooperation level (all trees, n={n})",
        )
        assert report.split("\n\n")[0] == expected

    def test_committed_ladder_spec_equals_example_spec(self):
        """The committed JSON and the example's in-code spec are the same
        campaign: identical trial keys and identical report config, so a
        CLI run of campaigns/cooperation_ladder.json is byte-identical to
        examples/cooperation_ladder.py (execution equivalence at n = 6 is
        proven above; here the committed n = 9 artefact is pinned)."""
        sys.path.insert(0, str(REPO_ROOT / "examples"))
        try:
            from cooperation_ladder import ladder_spec
        finally:
            sys.path.pop(0)
        committed = CampaignSpec.load(CAMPAIGNS_DIR / "cooperation_ladder.json")
        in_code = ladder_spec(9)
        # same trial set (expansion order differs; the poa_table reducer
        # orders by its options, so order never reaches the report)
        assert {t.key for t in committed.trials()} == {
            t.key for t in in_code.trials()
        }
        assert committed.report == in_code.report
        assert committed.kind == in_code.kind

    def test_convergence_stats_match_convergence_study(self):
        from repro.dynamics.convergence import convergence_study

        concept, n, alpha, runs, seed, max_rounds = (
            Concept.PS, 8, 3, 4, 5, 300,
        )
        spec = CampaignSpec(
            name="dyn-equivalence",
            kind="dynamics",
            seed=seed,
            grids=(
                {
                    "concept": concept.name,
                    "n": n,
                    "alpha": alpha,
                    "max_rounds": max_rounds,
                    "index": {"$range": runs},
                },
            ),
        )
        store = CampaignStore(None)
        stats = run_campaign(spec, store, workers=2, chunk_size=1)
        assert stats.failed == 0
        ((params, aggregated),) = convergence_stats(spec, store)
        reference = convergence_study(
            concept, n=n, alpha=alpha, runs=runs, seed=seed,
            max_rounds=max_rounds,
        )
        assert aggregated == reference  # dataclass equality: every field

    def test_report_is_byte_stable_across_store_reopen(self, tmp_path):
        """Live records (runner dict order) and reopened records (JSONL
        sorted keys) must render the same report."""
        spec = tiny_spec()
        store = CampaignStore(tmp_path / "store")
        with store:
            run_campaign(spec, store)
            live = render_report(spec, store)
        assert live == render_report(spec, CampaignStore(tmp_path / "store"))

    def test_report_marks_missing_trials(self):
        spec = tiny_spec(grids=({"n": 6, "alpha": 2, "concept": "PS"},))
        spec = CampaignSpec(
            name=spec.name, kind=spec.kind, grids=spec.grids, seed=spec.seed,
            report={
                "reducer": "poa_table",
                "options": {
                    "n": 6,
                    "alphas": [2],
                    "columns": [{"header": "PoA(PS)", "concept": "PS"}],
                },
            },
        )
        assert "?" in render_report(spec, CampaignStore(None))


# -- the CLI -----------------------------------------------------------------


class TestCli:
    def test_run_status_report_lifecycle(self, tmp_path, capsys):
        spec = tiny_spec(grids=({"n": 6, "alpha": [2, 3], "concept": "PS"},))
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store = tmp_path / "store"

        assert cli_main(
            ["run", str(spec_path), "--store", str(store), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "completed: 2" in out and "pending:   0" in out

        report_file = tmp_path / "report.txt"
        assert cli_main(
            ["report", str(store), "--out", str(report_file)]
        ) == 0
        assert "tree_poa" in report_file.read_text()

    def test_status_on_partial_store_signals_pending(self, tmp_path, capsys):
        spec = tiny_spec(grids=({"n": 6, "alpha": [2, 3], "concept": "PS"},))
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store = tmp_path / "store"
        cli_main(
            ["run", str(spec_path), "--store", str(store), "--max-trials",
             "1", "--quiet"]
        )
        capsys.readouterr()
        assert cli_main(["status", str(store)]) == 3
        assert "pending:   1" in capsys.readouterr().out

    def test_report_on_non_store_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="not a campaign store"):
            cli_main(["report", str(tmp_path)])

    GOOD_GRID = {"n": 5, "alpha": 2, "concept": "PS"}

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"kind": "tree_poa", "grids": [GOOD_GRID]}),
            json.dumps({"name": "bad", "grids": [GOOD_GRID]}),
            json.dumps({"name": "bad", "kind": "tree_poa"}),
            json.dumps({"name": "bad", "kind": "tree_poa", "grids": 5}),
            json.dumps({"name": "bad", "kind": "tree_poa", "grids": [5]}),
            json.dumps({"name": "bad", "kind": "tree_poa", "seed": 2.7,
                        "grids": [GOOD_GRID]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, concept="XX")]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, alpha="abc")]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, m={"$range": "abc"})]}),
            json.dumps([{"name": "bad", "kind": "tree_poa",
                         "grids": [GOOD_GRID]}]),
            '{"name": "bad", "kind": ',
            None,  # no spec file at all
            json.dumps({"name": "bad", "kind": "tree_poaa",
                        "grids": [GOOD_GRID]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, nn=5)]}),
            json.dumps({"name": "bad", "kind": "ladder_classify",
                        "grids": [{"n": 5, "alpha": 2, "index": 0,
                                   "probe_sample": 10}]}),
            json.dumps({"name": "bad", "kind": "dynamics",
                        "grids": [{"n": 5, "alpha": 2, "concept": "PS",
                                   "index": 0, "max_round": 5}]}),
            json.dumps({"name": "bad", "kind": "conjecture_hunt",
                        "grids": [{"n": 4, "alpha": 2,
                                   "max_certificate": 1}]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, n=5.5)]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, n="5")]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, n=True)]}),
            json.dumps({"name": "bad", "kind": "ladder_classify",
                        "grids": [{"n": 5, "alpha": 2, "index": 0,
                                   "probe_samples": -5}]}),
            json.dumps({"name": "bad", "kind": "ladder_classify",
                        "grids": [{"n": 5, "alpha": 2, "index": 0,
                                   "max_coalition_size": 0}]}),
            json.dumps({"name": "bad", "kind": "dynamics",
                        "grids": [{"n": 5, "alpha": 2, "concept": "PS",
                                   "index": 0, "max_rounds": -1}]}),
            json.dumps({"name": "bad", "kind": "conjecture_hunt",
                        "grids": [{"n": 4, "alpha": 2,
                                   "max_certificates": -1}]}),
            json.dumps({"name": "bad", "kind": "tree_poa",
                        "grids": [dict(GOOD_GRID, alpha=0)]}),
            json.dumps({"name": "bad", "kind": "weighted_poa",
                        "grids": [dict(GOOD_GRID,
                                       traffic={"model": "nope"})]}),
        ],
        ids=[
            "missing-name", "missing-kind", "missing-grids", "grids-int",
            "grid-not-object", "float-seed", "unknown-concept", "bad-alpha",
            "bad-range", "top-level-list", "broken-json", "missing-file",
            "unknown-kind", "unknown-poa-axis", "ladder-probe-sample",
            "dynamics-max-round", "hunt-max-certificate", "float-n",
            "string-n", "bool-n", "negative-probe-samples",
            "zero-max-coalition-size", "negative-max-rounds",
            "negative-max-certificates", "zero-alpha",
            "unknown-traffic-model",
        ],
    )
    def test_malformed_spec_is_one_line_and_leaves_no_store(
        self, tmp_path, text
    ):
        spec_path = tmp_path / "spec.json"
        if text is not None:
            spec_path.write_text(text)
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="^bad campaign spec "):
            cli_main(["run", str(spec_path), "--store", str(store), "--quiet"])
        assert not store.exists()

    @pytest.mark.parametrize(
        "kind, grid, field",
        [
            ("tree_poa", dict(GOOD_GRID, alpha=0), "alpha"),
            ("tree_poa", dict(GOOD_GRID, alpha="-1/2"), "alpha"),
            ("weighted_poa", dict(GOOD_GRID, traffic={"model": "nope"}),
             "traffic"),
            ("weighted_poa",
             dict(GOOD_GRID, traffic={"model": "gravity",
                                      "weights": [1, 2, 3, 4]}),
             "traffic"),
            ("generalized_poa", dict(GOOD_GRID, costmodel={"model": "nope"}),
             "costmodel"),
            ("dynamics",
             {"n": 5, "alpha": 2, "concept": "PS", "index": 0,
              "costmodel": {"model": "table", "values": [0, 1]}},
             "costmodel"),
        ],
        ids=["zero-alpha", "negative-alpha", "unknown-traffic-model",
             "traffic-for-4-agents", "unknown-cost-model", "short-table"],
    )
    def test_unplayable_regimes_fail_before_any_store(
        self, tmp_path, kind, grid, field
    ):
        from repro.campaigns.runners import runnable_trials

        spec = CampaignSpec.from_dict(
            {"name": "bad", "kind": kind, "grids": [grid]}
        )
        with pytest.raises(ValueError, match=field):
            runnable_trials(spec)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError, match=field):
            run_campaign(spec, store)
        assert store.load_spec() is None

    @pytest.mark.parametrize("n", (0, -1))
    def test_n_below_one_fails_before_any_store(self, tmp_path, n):
        from repro.campaigns.runners import runnable_trials

        spec = CampaignSpec.from_dict(
            {"name": "bad", "kind": "tree_poa",
             "grids": [dict(self.GOOD_GRID, n=n)]}
        )
        with pytest.raises(ValueError, match="'n' must be an int >= 1"):
            runnable_trials(spec)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError, match="'n'"):
            run_campaign(spec, store)
        assert store.load_spec() is None
        assert not list(store.root.iterdir())

    def test_every_committed_spec_loads(self):
        from repro.campaigns.runners import runnable_trials

        paths = sorted(CAMPAIGNS_DIR.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            assert runnable_trials(CampaignSpec.load(path)), path.name

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2", "--chunk-size", "-3"],
            ["--max-trials", "-1"],
            ["--claim", "--lease-ttl", "-5"],
            ["--claim", "--host-id", "a/b"],
        ],
        ids=["chunk-size", "max-trials", "lease-ttl", "host-id"],
    )
    def test_bad_run_flags_are_one_line_and_leave_no_store(
        self, tmp_path, flags
    ):
        spec = tiny_spec(grids=({"n": 5, "alpha": [2, 3, 4], "concept": "PS"},))
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                ["run", str(spec_path), "--store", str(store), "--quiet",
                 *flags]
            )
        message = str(exit_info.value.code)
        assert message.startswith("bad run flags: ") and "\n" not in message
        assert not store.exists()

    @pytest.mark.parametrize(
        "limits",
        [{"chunk_size": 0}, {"max_trials": -1}, {"lease_ttl": 0}],
        ids=["chunk-size", "max-trials", "lease-ttl"],
    )
    def test_bad_run_limits_raise_before_the_spec_is_saved(
        self, tmp_path, limits
    ):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError):
            run_campaign(tiny_spec(), store, **limits)
        assert store.load_spec() is None

    @pytest.mark.parametrize(
        "kind,grid",
        [
            ("tree_poaa", GOOD_GRID),
            ("dynamics", {"n": 5, "alpha": 2, "concept": "PS", "index": 0,
                          "max_round": 5}),
            ("tree_poa", dict(GOOD_GRID, n=5.5)),
            ("tree_poa", dict(GOOD_GRID, k=True)),
        ],
        ids=["unknown-kind", "unread-axis", "float-n", "bool-k"],
    )
    def test_unrunnable_trials_raise_before_the_store(
        self, tmp_path, kind, grid
    ):
        from repro.campaigns.runners import execute_trial

        spec = CampaignSpec.from_dict(
            {"name": "bad", "kind": kind, "grids": [grid]}
        )
        (trial,) = spec.trials()
        with pytest.raises(ValueError):
            execute_trial(trial.kind, trial.params, base_seed=0)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError):
            run_campaign(spec, store)
        assert store.load_spec() is None
        assert not list(store.root.iterdir())


# -- new runner kinds + reducers (traffic / constructions / ladder / fits) ---


class TestNewRunnerKinds:
    def test_weighted_poa_runner_uniform_matches_tree_poa(self):
        from repro.analysis.poa import empirical_tree_poa
        from repro.campaigns.runners import execute_trial

        reference = empirical_tree_poa(6, 4, Concept.PS)
        result = execute_trial(
            "weighted_poa",
            {
                "n": 6,
                "alpha": Fraction(4),
                "concept": Concept.PS,
                "traffic": {"model": "uniform"},
            },
            base_seed=0,
        )
        assert result["poa"] == reference.poa
        assert result["equilibria"] == reference.equilibria
        assert result["candidates"] == reference.candidates

    def test_weighted_poa_traffic_enters_the_trial_key(self):
        base = {"n": 6, "alpha": Fraction(2), "concept": Concept.PS}
        uniform = trial_key(
            "weighted_poa", base | {"traffic": {"model": "uniform"}}
        )
        hubbed = trial_key(
            "weighted_poa",
            base | {"traffic": {"model": "broadcast", "sources": [0]}},
        )
        assert uniform != hubbed
        # key order inside the traffic spec does not matter
        reordered = trial_key(
            "weighted_poa",
            base | {"traffic": {"sources": [0], "model": "broadcast"}},
        )
        assert hubbed == reordered

    @pytest.mark.parametrize(
        "kind",
        ["tree_poa", "graph_poa", "weighted_poa", "generalized_poa",
         "exact_poa"],
    )
    @pytest.mark.parametrize(
        "axis",
        ["traffic", "costmodel", "trees", "graphs", "labelled_trees",
         "layer", "layer_on_graphs", "unknown"],
    )
    def test_every_poa_kind_honours_every_axis(self, kind, axis):
        """No PoA kind answers for a game its trial key does not name:
        each axis either reaches the one family scan or raises."""
        from repro.analysis.poa import family_poa
        from repro.campaigns.runners import execute_trial
        from repro.core.costmodel import LinearCost, MaxCost
        from repro.core.traffic import TrafficMatrix

        gravity = {"model": "gravity", "weights": [3, 1, 2, 1, 1]}
        default_family = {
            "tree_poa": "trees", "graph_poa": "graphs",
            "weighted_poa": "trees", "generalized_poa": "trees",
            "exact_poa": "graphs",
        }[kind]
        params = {"n": 5, "alpha": Fraction(4), "concept": Concept.PS}
        # the axis each kind requires, at its paper-game spelling
        if kind == "weighted_poa":
            params["traffic"] = {"model": "uniform"}
        if kind == "generalized_poa":
            params["costmodel"] = {"model": "linear"}
        params |= {
            "traffic": {"traffic": gravity},
            "costmodel": {"costmodel": {"model": "max"}},
            "trees": {"family": "trees"},
            "graphs": {"family": "graphs"},
            "labelled_trees": {"family": "labelled_trees"},
            "layer": {"m": 5},
            "layer_on_graphs": {"family": "graphs", "m": 5},
            "unknown": {"index": 0},
        }[axis]
        family = params.get("family", default_family)

        if axis == "unknown":
            with pytest.raises(ValueError, match="index"):
                execute_trial(kind, params, base_seed=0)
            return
        if "m" in params and family != "graphs":
            with pytest.raises(ValueError, match="'m'"):
                execute_trial(kind, params, base_seed=0)
            return
        if family == "labelled_trees" and "traffic" not in params:
            with pytest.raises(ValueError, match="traffic"):
                execute_trial(kind, params, base_seed=0)
            return

        traffic = {
            None: None,
            "uniform": TrafficMatrix.uniform(5),
            "gravity": TrafficMatrix.gravity(gravity["weights"]),
        }[params.get("traffic", {}).get("model")]
        cost_model = {
            None: None,
            "linear": LinearCost(),
            "max": MaxCost(),
        }[params.get("costmodel", {}).get("model")]
        scan = family_poa(
            family, 5, 4, Concept.PS, m=params.get("m"),
            traffic=traffic, cost_model=cost_model,
        )
        result = execute_trial(kind, params, base_seed=0)
        assert result["poa"] == scan.poa
        assert result["equilibria"] == scan.equilibria
        assert result["candidates"] == scan.candidates
        relative = traffic is not None or cost_model is not None
        assert ("best_cost" in result) == relative
        if relative:
            assert result["worst_cost"] == scan.worst_cost
            assert result["best_cost"] == scan.best_cost
        assert ("witness_key" in result) == (kind == "exact_poa")

    def test_constructions_runner_reproduces_figure_claims(self):
        from repro.campaigns.runners import execute_trial

        fig6 = execute_trial(
            "constructions", {"figure": "figure6"}, base_seed=0
        )
        assert fig6["n"] == 10 and fig6["re"] and fig6["bae"] and fig6["bge"]
        fig2 = execute_trial(
            "constructions", {"figure": "figure2"}, base_seed=0
        )
        assert not fig2["re"]  # the Corbo-Parkes refutation: not PS
        with pytest.raises(ValueError, match="unknown figure"):
            execute_trial("constructions", {"figure": "figure99"}, 0)

    def test_ladder_classify_is_seed_deterministic(self):
        from repro.campaigns.runners import execute_trial

        params = {
            "n": 7,
            "alpha": Fraction(3),
            "start": "tree",
            "index": 2,
        }
        first = execute_trial("ladder_classify", params, base_seed=11)
        second = execute_trial("ladder_classify", params, base_seed=11)
        assert first == second
        other_seed = execute_trial("ladder_classify", params, base_seed=12)
        assert set(first["ladder"]) == set(other_seed["ladder"])
        assert "RE" in first["ladder"] and "BSE" in first["ladder"]

    def test_committed_traffic_regimes_spec_runs_end_to_end(self):
        spec = CampaignSpec.load(CAMPAIGNS_DIR / "traffic_regimes.json")
        store = CampaignStore(None)
        stats = run_campaign(spec, store, max_trials=6)
        assert stats.executed == 6 and stats.failed == 0
        report = render_report(spec, store)
        assert "traffic" in report and "PoA(PS)" in report

    def test_committed_paper_figures_spec_expands_and_runs_a_slice(self):
        spec = CampaignSpec.load(CAMPAIGNS_DIR / "paper_figures.json")
        trials = spec.trials()
        kinds = {trial.kind for trial in trials}
        assert kinds == {"constructions", "ladder_classify"}
        store = CampaignStore(None)
        stats = run_campaign(spec, store, max_trials=2)
        assert stats.failed == 0

    def test_poa_fit_reducer_is_deterministic_and_matches_fitting(self):
        from repro.analysis.fitting import fit_log_slope

        spec = CampaignSpec.load(CAMPAIGNS_DIR / "poa_scaling.json")
        store = CampaignStore(None)
        stats = run_campaign(spec, store)
        assert stats.failed == 0
        report = render_report(spec, store)
        assert report == render_report(spec, store)  # byte-stable
        assert "log2 slope" in report and "power exp" in report
        # re-derive one column's log fit straight from the records
        alphas, rhos = [], []
        for alpha in (2, 4, 8, 16, 32, 64):
            key = trial_key(
                "tree_poa",
                {"n": 8, "alpha": Fraction(alpha), "concept": Concept.PS},
            )
            result = store.result(key)
            assert result is not None
            alphas.append(alpha)
            rhos.append(result["poa"])
        fit = fit_log_slope(alphas, rhos)
        assert f"{fit.slope:.4g}" in report

    def test_weighted_campaign_bit_identical_across_workers(self, tmp_path):
        spec = CampaignSpec(
            name="weighted-workers",
            kind="weighted_poa",
            grids=(
                {
                    "n": 6,
                    "alpha": [2, 4],
                    "concept": "PS",
                    "traffic": [
                        {"model": "uniform"},
                        {"model": "broadcast", "sources": [0]},
                    ],
                },
            ),
            report={"reducer": "trial_table"},
        )
        serial = CampaignStore(tmp_path / "serial")
        pooled = CampaignStore(tmp_path / "pooled")
        with serial, pooled:
            run_campaign(spec, serial, workers=1)
            run_campaign(spec, pooled, workers=2)
        assert _comparable_records(serial) == _comparable_records(pooled)
        assert render_report(spec, serial) == render_report(spec, pooled)


class TestExactPoACampaigns:
    def test_exact_poa_trees_family_matches_direct(self):
        from repro.analysis.poa import empirical_tree_poa
        from repro.campaigns.runners import execute_trial

        reference = empirical_tree_poa(7, 3, Concept.PS)
        result = execute_trial(
            "exact_poa",
            {
                "family": "trees",
                "n": 7,
                "alpha": Fraction(3),
                "concept": Concept.PS,
            },
            base_seed=0,
        )
        assert result["poa"] == reference.poa
        assert result["equilibria"] == reference.equilibria
        assert result["candidates"] == reference.candidates

    def test_exact_poa_layers_partition_the_whole_family(self):
        from repro.campaigns.runners import execute_trial
        from repro.graphs.enumerate import max_edge_count

        n, alpha = 5, Fraction(2)
        base = {"family": "graphs", "n": n, "alpha": alpha,
                "concept": Concept.PS}
        whole = execute_trial("exact_poa", base, base_seed=0)
        layers = [
            execute_trial("exact_poa", base | {"m": m}, base_seed=0)
            for m in range(n - 1, max_edge_count(n) + 1)
        ]
        assert sum(r["candidates"] for r in layers) == whole["candidates"]
        assert sum(r["equilibria"] for r in layers) == whole["equilibria"]
        layer_poas = [r["poa"] for r in layers if r["poa"] is not None]
        assert max(layer_poas) == whole["poa"]
        # the worst witness lives in exactly one layer, same certificate
        worst = max(
            (r for r in layers if r["poa"] == whole["poa"]),
            key=lambda r: r["poa"],
        )
        assert worst["witness_key"] == whole["witness_key"]

    def test_exact_poa_witness_certificate_replays(self):
        import hashlib

        import networkx as nx

        from repro.campaigns.runners import execute_trial
        from repro.graphs.canonical import canonical_key

        result = execute_trial(
            "exact_poa",
            {
                "family": "graphs",
                "n": 5,
                "alpha": Fraction(2),
                "concept": Concept.PS,
            },
            base_seed=0,
        )
        witness = nx.Graph(
            (u, v) for u, v in result["witness_edges"]
        )
        witness.add_nodes_from(range(5))
        digest = hashlib.blake2b(
            canonical_key(witness), digest_size=16
        ).hexdigest()
        assert digest == result["witness_key"]

    def test_exact_poa_labelled_trees_requires_traffic(self):
        from repro.campaigns.runners import execute_trial

        with pytest.raises(ValueError, match="traffic"):
            execute_trial(
                "exact_poa",
                {
                    "family": "labelled_trees",
                    "n": 5,
                    "alpha": Fraction(2),
                    "concept": Concept.PS,
                },
                base_seed=0,
            )

    def test_exact_poa_labelled_trees_uniform_degenerates(self):
        from repro.analysis.poa import family_poa
        from repro.campaigns.runners import execute_trial
        from repro.core.traffic import TrafficMatrix

        reference = family_poa(
            "trees", 5, 3, Concept.PS, traffic=TrafficMatrix.uniform(5)
        )
        result = execute_trial(
            "exact_poa",
            {
                "family": "labelled_trees",
                "n": 5,
                "alpha": Fraction(3),
                "concept": Concept.PS,
                "traffic": {"model": "uniform"},
            },
            base_seed=0,
        )
        assert result["poa"] == reference.poa
        assert result["candidates"] == reference.candidates
        assert result["best_cost"] == reference.best_cost

    @pytest.mark.parametrize(
        "reducer",
        ["exact_poa_table", "poa_table", "poa_fit", "costmodel_poa_table"],
        ids=["exact", "poa_table", "poa_fit", "costmodel"],
    )
    def test_exact_poa_table_layered_equals_whole(self, reducer):
        # the load-bearing resume property: a campaign sharded into
        # edge-count layers renders byte-identically to an unsharded one,
        # under every reducer that reads PoA cells
        from repro.graphs.enumerate import max_edge_count

        n, alphas, regime = 5, [2, 3], {}
        if reducer == "costmodel_poa_table":
            # family-relative cells: at these prices the max of the
            # layers' ratios is not the whole family's ratio
            alphas, regime = ["1/2", 1], {"costmodel": {"model": "max"}}
        report = {
            "reducer": reducer,
            "options": {
                "n": n,
                "alphas": alphas,
                "columns": [
                    {"header": "PoA(PS)", "concept": "PS",
                     "params": {"family": "graphs"}},
                ],
            },
        }
        if regime:
            report["options"]["models"] = [{"label": "max", **regime}]
        layered = CampaignSpec(
            name="layered", kind="exact_poa", report=report,
            grids=(
                {
                    "family": "graphs", "n": n, "alpha": alphas,
                    "concept": "PS",
                    "m": {"$range": [n - 1, max_edge_count(n) + 1]},
                    **regime,
                },
            ),
        )
        whole = CampaignSpec(
            name="whole", kind="exact_poa", report=report,
            grids=(
                {"family": "graphs", "n": n, "alpha": alphas,
                 "concept": "PS", **regime},
            ),
        )
        layered_store = CampaignStore(None)
        whole_store = CampaignStore(None)
        assert run_campaign(layered, layered_store, workers=2).failed == 0
        assert run_campaign(whole, whole_store).failed == 0
        left = render_report(layered, layered_store)
        right = render_report(whole, whole_store)
        assert left.split("\n", 1)[1] == right.split("\n", 1)[1]
        assert "?" not in left
        if reducer == "poa_fit":
            # both alphas count as points, layered or whole
            assert left.splitlines()[-1].split()[:2] == ["PoA(PS)", "2"]

    def test_conjecture_hunt_runner_finds_prop_2_3(self):
        import networkx as nx

        from repro.campaigns.runners import execute_trial
        from repro.core.state import GameState
        from repro.equilibria.nash import (
            EdgeAssignment,
            is_nash_equilibrium,
        )
        from repro.equilibria.pairwise import find_pairwise_violation

        result = execute_trial(
            "conjecture_hunt",
            {"n": 5, "alpha": Fraction(2)},
            base_seed=0,
        )
        assert result["candidates"] == 21
        assert result["counterexample_graphs"] == 1
        assert result["ne_graphs"] >= 1
        [cert] = [
            c for c in result["certificates"]
            if c["break_type"] == "RemoveEdge"
        ]
        # the certificate replays: its assignment is a genuine NE on its
        # graph, and the graph genuinely breaks pairwise stability
        graph = nx.Graph((u, v) for u, v in cert["edges"])
        state = GameState(graph, 2)
        assignment = EdgeAssignment.from_pairs(
            (owner, other) for owner, other in cert["owners"]
        )
        assert is_nash_equilibrium(state, assignment)
        assert find_pairwise_violation(state) is not None

    def test_committed_conjecture_spec_equals_example_spec(self):
        sys.path.insert(0, str(REPO_ROOT / "examples"))
        try:
            from conjecture_hunt import hunt_spec
        finally:
            sys.path.pop(0)
        committed = CampaignSpec.load(CAMPAIGNS_DIR / "conjecture_hunt.json")
        in_code = hunt_spec()
        assert {t.key for t in committed.trials()} == {
            t.key for t in in_code.trials()
        }
        assert committed.report == in_code.report
        assert committed.kind == in_code.kind

    def test_committed_exact_poa_spec_expands_and_runs_a_slice(self):
        spec = CampaignSpec.load(CAMPAIGNS_DIR / "exact_poa.json")
        trials = spec.trials()
        assert len(trials) == 92  # 22 layers x 2 alphas x 2 concepts + 4
        families = {trial.params["family"] for trial in trials}
        assert families == {"graphs", "trees"}
        store = CampaignStore(None)
        stats = run_campaign(spec, store, max_trials=4)
        assert stats.executed == 4 and stats.failed == 0
        report = render_report(spec, store)
        assert "?" in report  # 88 layers still pending render as ?

    def test_conjecture_table_marks_pending_cells(self):
        spec = CampaignSpec(
            name="pending-hunt", kind="conjecture_hunt",
            grids=({"n": 4, "alpha": [2, 3]},),
            report={"reducer": "conjecture_table"},
        )
        store = CampaignStore(None)
        run_campaign(spec, store, max_trials=1)
        report = render_report(spec, store)
        assert "?" in report
        run_campaign(spec, store)
        assert "?" not in render_report(spec, store)
