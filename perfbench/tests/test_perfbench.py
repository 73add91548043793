"""Tests of the benchmark itself: tracing is transparent, corrupt outputs
count as failures, and check-brauer inputs follow the seed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from tracer import Tracer, layer_metrics
from workloads import Op, brauer_items, check_brauer_ops, check_vpa_report, solutions_digest

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cli():
    return run.import_helpzc()


def _outputs(cli, ops, workdir, tracer=None):
    records = run.run_pass(cli, ops, workdir, tracer)
    texts = [(workdir / f"op{i:02d}.out").read_text() for i in range(len(ops))]
    return records, texts


def _always_ok(code, text):
    return None


def test_tracer_keeps_outputs_and_restores_originals(cli, tmp_path):
    from helpzc import cyclotomic, help_core, psl2, solver

    ops = [
        Op("verify-main", ("verify-main", "--q", "19", "--t", "5", "--format", "json"), _always_ok),
        check_brauer_ops(3, tmp_path)[1],
    ]
    originals = {
        (psl2, "char_value"): psl2.char_value,
        (help_core, "char_value"): help_core.char_value,
        (cli, "char_value"): cli.char_value,
        (solver, "rank_check"): solver.rank_check,
        (solver, "derive_bounds"): solver.derive_bounds,
        (solver, "enumerate_solutions"): solver.enumerate_solutions,
        (solver, "build_constraints"): solver.build_constraints,
        (cli, "main"): cli.main,
        (cyclotomic.CycSum, "trace"): cyclotomic.CycSum.__dict__["trace"],
    }
    plain_records, plain = _outputs(cli, ops, tmp_path)

    tracer = Tracer()
    with tracer:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, name
        traced_records, traced = _outputs(cli, ops, tmp_path, tracer)

    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name
    assert traced == plain
    assert all(r.failure is None for r in plain_records + traced_records)
    names = {s.name for s in tracer.finished()}
    assert {"cli.main", "solver.derive_bounds", "help_core.verify_v4",
            "psl2.char_value", "cyclotomic.trace"} <= names
    metrics = layer_metrics(tracer, 1.0, 1.0)
    assert metrics["solver.derive_bounds_calls"] == (1, "count")
    assert metrics["solver.rank_check_calls"] == (2, "count")
    assert metrics["solver.solutions"] == (4, "count")
    assert metrics["help_core.rows"] == (90, "count")
    assert metrics["help_core.distinct_rows"] == (33, "count")


def _corrupting(cli, edit, exit_code=None):
    """A stand-in for helpzc.cli whose main rewrites the report it wrote."""

    def main(argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1])
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return code if exit_code is None else exit_code

    return SimpleNamespace(main=main)


def _drop_solution(payload):
    payload["solutions"].pop()
    payload["solution_count"] -= 1
    return payload


def _flip_verdict(payload):
    payload["ok"] = not payload["ok"]
    return payload


SETUP = [run.Timed(0.0, 0.1, 0.1)]


def _unadjusted(start, end):
    return 1.0


def test_corrupted_outputs_count_as_failures(cli, tmp_path):
    argv = ("vpa", "--q", "19", "--n", "10", "--format", "json", "--workers", "1")
    out = tmp_path / "ref.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    reference = json.loads(out.read_text())["solutions"]
    vpa = Op("vpa", argv, partial(check_vpa_report, count=4, digest=solutions_digest(reference)))
    brauer = check_brauer_ops(5, tmp_path)[:2]  # a TPA distribution and its perturbation
    ops = [vpa, *brauer]

    good = run.run_pass(cli, ops, tmp_path)
    assert [r.failure for r in good] == [None] * 3
    assert run.end_to_end_metrics([good], SETUP, _unadjusted)["ok_frac"]["value"] == 1.0

    dropped = run.run_pass(_corrupting(cli, _drop_solution), [vpa], tmp_path)
    flipped = run.run_pass(_corrupting(cli, _flip_verdict, exit_code=1), brauer[:1], tmp_path)
    assert all(r.failure is not None for r in dropped + flipped)
    metrics = run.end_to_end_metrics([good, dropped + flipped], SETUP, _unadjusted)
    assert metrics["ok_frac"]["value"] == pytest.approx(3 / 5)


def test_brauer_items_follow_the_seed(cli):
    def dump(items):
        return [(item.label, item.valid, item.distribution.to_json()) for item in items]

    first = dump(brauer_items(7))
    assert first == dump(brauer_items(7))
    assert first != dump(brauer_items(8))
    items = brauer_items(7)
    assert len(items) == 44 and sum(item.valid for item in items) == 22
    assert all(not item.distribution.violations() for item in items)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-brauer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
