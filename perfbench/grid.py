"""One-shot grid report: the ROADMAP baseline table, from traced `vpa` runs.

    python3 perfbench/grid.py > perfbench/results/grid.md

Not a workload and not gated.  Each (q, n) runs `vpa --chars paper` once
in-process under the benchmark's tracer, and the table lists what the
spans and returned reports show: variables, constraint rows, distinct
rows, LP bounds time (derive_bounds), search time (enumerate_solutions,
self), nodes and solutions.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
from tracer import Tracer, layer_metrics

GRID = ((13, 6), (19, 10), (29, 14), (31, 15), (43, 22), (53, 26))
COLUMNS = (
    ("vars", "solver.vars", "{:d}"),
    ("rows", "help_core.rows", "{:d}"),
    ("distinct rows", "help_core.distinct_rows", "{:d}"),
    ("LP box (s)", "solver.derive_bounds_s", "{:.2f}"),
    ("search (s)", "solver.enumerate_s", "{:.3f}"),
    ("nodes", "solver.nodes", "{:d}"),
    ("solutions", "solver.solutions", "{:d}"),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_helpzc()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        lines = [
            "| q | n | " + " | ".join(title for title, _k, _f in COLUMNS) + " |",
            "|---" * (2 + len(COLUMNS)) + "|",
        ]
        for q, n in GRID:
            out = f"{workdir}/vpa.json"
            tracer = Tracer()
            with tracer:
                code = cli.main(["vpa", "--q", str(q), "--n", str(n), "--chars", "paper",
                                 "--format", "json", "--workers", "1", "--out", out])
            if code != 0:
                print(f"error: vpa --q {q} --n {n} exited {code}", file=sys.stderr)
                return 1
            metrics = layer_metrics(tracer, 1.0, 1.0)
            cells = [fmt.format(metrics[key][0]) for _t, key, fmt in COLUMNS]
            lines.append(f"| {q} | {n} | " + " | ".join(cells) + " |")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print()
    print("Run record: `" + json.dumps(run.run_record()) + "`")
    return 0


if __name__ == "__main__":
    sys.exit(main())
