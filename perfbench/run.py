"""helpzc benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload verify-main --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: helpzc is imported from ./src, never
from an installed copy.  Set-up (importing helpzc and making the
workload's inputs from the seed) is repeated SETUP_REPEATS times and
timed.  The run then makes whole untraced passes over the workload's
operations until --seconds have elapsed (at least one pass).  With
--trace 0 it reports the end-to-end metrics, in seconds adjusted to the
reference machine speed (see speed.py); with --trace 1 it adds one traced
pass and reports the per-layer metrics instead.  Every output is checked; the
last line of stdout is the result object, the line before it the run
record and the raw times.  The same, with every operation's time, goes to
./.perfbench/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from speed import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 21


@dataclass(frozen=True)
class Timed:
    """A measured interval: perf_counter stamps and its duration minus the
    time the speed probe took inside it."""

    start: float
    end: float
    seconds: float


@dataclass(frozen=True)
class OpRecord:
    label: str
    time: Timed
    exit_code: int | None
    failure: str | None


class Stopwatch:
    """Times an interval, leaving out what the probe (if any) spent in it."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe

    def __enter__(self) -> Stopwatch:
        self._stolen = self.probe.stolen if self.probe else 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        stolen = (self.probe.stolen if self.probe else 0.0) - self._stolen
        self.time = Timed(self._start, end, end - self._start - stolen)


def import_helpzc():
    """Import helpzc afresh from ./src, dropping any copy already loaded."""
    for key in [k for k in sys.modules if k == "helpzc" or k.startswith("helpzc.")]:
        del sys.modules[key]
    import helpzc.cli

    if Path(helpzc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"helpzc was imported from {helpzc.__file__}, not from {SRC}")
    return helpzc.cli


def set_up(workload: str, seed: int, workdir: Path, probe: SpeedProbe):
    """SETUP_REPEATS fresh imports plus input generations; keeps the last.

    The discarded copies are collected between repeats, so they do not
    add to the run's peak memory."""
    times = []
    for _ in range(SETUP_REPEATS):
        cli = ops = None
        gc.collect()
        with Stopwatch(probe) as watch:
            cli = import_helpzc()
            ops = WORKLOADS[workload](seed, workdir)
        times.append(watch.time)
    return cli, ops, times


def run_pass(cli, ops, workdir: Path, tracer: Tracer | None = None,
             probe: SpeedProbe | None = None) -> list[OpRecord]:
    records = []
    for i, op in enumerate(ops):
        out = workdir / f"op{i:02d}.out"
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = i
        code, failure = None, None
        with Stopwatch(probe) as watch:
            try:
                code = cli.main([*op.argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                failure = "raised: " + traceback.format_exc(limit=3)
        if failure is None:
            try:
                text = out.read_text(encoding="utf-8") if out.exists() else ""
                failure = op.check(code, text)
            except Exception as exc:
                failure = f"output check raised {exc!r}"
        if failure is not None:
            print(f"FAIL {op.label}: {failure}", file=sys.stderr)
        records.append(OpRecord(op.label, watch.time, code, failure))
    return records


def run_record() -> dict:
    """Where and on what the numbers were taken."""
    files = sorted((SRC / "helpzc").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def git_commit() -> str | None:
    """HEAD of ./.git when the tree is a git checkout; read, not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: list[list[OpRecord]], setups: list[Timed],
                       factor: Callable[[float, float], float]) -> dict:
    """Times scaled by factor(start, end); a failed operation lowers ok_frac."""

    def adjusted(t: Timed) -> float:
        return t.seconds * factor(t.start, t.end)

    records = [r for p in passes for r in p]
    failed = sum(r.failure is not None for r in records)
    return {
        "wall_s": metric(statistics.median(sum(adjusted(r.time) for r in p) for p in passes), "s"),
        "op_s_p50": metric(statistics.median(adjusted(r.time) for r in records), "s"),
        "setup_s": metric(statistics.median(adjusted(t) for t in setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(1 - failed / len(records), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "helpzc" / "__init__.py").is_file():
        print(f"error: no helpzc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        tracer = Tracer() if args.trace else None
        with SpeedProbe() as probe:
            cli, ops, setups = set_up(args.workload, args.seed, workdir, probe)
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(cli, ops, workdir, probe=probe))
            if tracer is not None:
                with tracer:
                    traced = run_pass(cli, ops, workdir, tracer, probe)
        metrics = end_to_end_metrics(passes, setups, probe.factor)
        raw = end_to_end_metrics(passes, setups, lambda start, end: 1.0)
        if tracer is not None:
            tracer.write(OUT_DIR / f"{stem}-spans.tsv.gz")
            traced_s = sum(r.time.seconds * probe.factor(r.time.start, r.time.end) for r in traced)
            layers = layer_metrics(tracer, traced_s, metrics["wall_s"]["value"])
            metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failed = sum(r.failure is not None for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    context = {"record": run_record(), "raw": {k: v["value"] for k, v in raw.items()},
               "speed_samples": len(probe.loops)}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **context, "setups": [asdict(t) for t in setups],
        "passes": [[asdict(r) for r in p] for p in passes], "result": result,
        "speed": {"mids": probe.mids, "loops": probe.loops},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
