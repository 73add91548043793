"""The benchmark's workloads: inputs made from a seed, and a check per output.

Every operation is one `helpzc` command line run in-process through
`helpzc.cli.main` with `--out <file>`.  Its check turns the exit code and
the written report into a failure reason, or None when the output is
correct.  helpzc is imported inside the functions, so they always use the
modules currently loaded (the harness re-imports helpzc while it times
set-up).

Why these three workloads: see README.md in this directory.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# verify-main cases (q, t) and the size of the enumerated set each must report
VERIFY_CASES = {(13, 3): 1, (19, 5): 4, (29, 7): 6, (43, 11): 10}

VPA_ARGV = (
    "vpa", "--q", "289", "--n", "12", "--chars", "paper",
    "--node-budget", "40000000", "--format", "json", "--workers", "1",
)
# recorded from the slow reference path; a faster path must reproduce it exactly
VPA_SOLUTIONS = 560
VPA_DIGEST = "e593a37a78534431eaa3b10d6fa56822d98ed8258a27e5d676b75a8e7c147bdf"

# frames (q, n) whose TPA and exceptional distributions feed check-brauer
BRAUER_FRAMES = ((43, 22), (53, 26))


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


def solutions_digest(solutions: list) -> str:
    """sha256 of the canonical JSON of a report's `solutions` list."""
    text = json.dumps(solutions, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _expect_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def verify_main_ops(seed: int) -> list[Op]:
    cases = sorted(VERIFY_CASES)
    random.Random(seed).shuffle(cases)
    ops = []
    for q, t in cases:
        want = VERIFY_CASES[(q, t)]

        def check(code: int, text: str, want=want) -> str | None:
            if (bad := _expect_exit(code, 0)) is not None:
                return bad
            payload = json.loads(text)
            if payload["ok"] is not True:
                return "verify-main reports ok = false"
            if payload["enumerated"] != want:
                return f"enumerated {payload['enumerated']}, expected {want}"
            return None

        argv = ("verify-main", "--q", str(q), "--t", str(t), "--format", "json", "--workers", "1")
        ops.append(Op(f"verify-main q={q} t={t}", argv, check))
    return ops


def check_vpa_report(code: int, text: str, count: int = VPA_SOLUTIONS,
                     digest: str = VPA_DIGEST) -> str | None:
    if (bad := _expect_exit(code, 0)) is not None:
        return bad
    payload = json.loads(text)
    if payload["complete"] is not True:
        return "search reports complete = false"
    if payload["solution_count"] != count or len(payload["solutions"]) != count:
        return f"{len(payload['solutions'])} solutions, expected {count}"
    if solutions_digest(payload["solutions"]) != digest:
        return "solutions differ from the reference digest"
    return None


def vpa_search_ops(seed: int) -> list[Op]:
    del seed  # one fixed search; the seed only varies the other workloads
    return [Op("vpa q=289 n=12", VPA_ARGV, check_vpa_report)]


@dataclass(frozen=True)
class BrauerItem:
    label: str
    distribution: object  # helpzc.help_core.PADistribution
    valid: bool  # a TPA or exceptional distribution, in VPA_n by the paper


def brauer_items(seed: int) -> list[BrauerItem]:
    """The TPA and exceptional distributions of BRAUER_FRAMES, each followed
    by one seeded level-1 perturbation: +1 on one class and -1 on another,
    both where eps_1 is 0.  That keeps (V1)-(V3) and adds exactly two
    entries, so every seed asks for the same amount of work."""
    from helpzc.help_core import PADistribution, exceptional_set, tpa_set
    from helpzc.psl2 import make_context, make_frame

    rng = random.Random(seed)
    items = []
    for q, n in BRAUER_FRAMES:
        frame = make_frame(make_context(q), n)
        bases = [("tpa", pa) for pa in tpa_set(frame)]
        bases += [("exc", pa) for pa in exceptional_set(frame, n // 2)]
        for kind, pa in bases:
            tag = f"q={q} n={n} {kind} {pa.sort_key()[0][1]}"
            items.append(BrauerItem(tag, pa, True))
            free = [cls for cls in frame.classes() if cls.exp and not pa.value(1, cls)]
            plus, minus = rng.sample(free, 2)
            levels = {d: {cls: pa.value(d, cls) for cls in frame.classes()}
                      for d in {d for d, _c, _v in pa.entries()} | {1}}
            levels[1][plus] += 1
            levels[1][minus] -= 1
            items.append(BrauerItem(f"{tag} +g^{plus.exp} -g^{minus.exp}",
                                    PADistribution(frame, levels), False))
    return items


class RowOracle:
    """Independent verdict for a distribution: every row a.x + c of
    build_constraints(frame, brauer-p) is >= 0 and = 0 mod n at its vector."""

    def __init__(self):
        self._systems = {}

    def __call__(self, pa) -> bool:
        from helpzc.help_core import build_constraints
        from helpzc.solver import character_family

        key = (pa.q, pa.n)
        if key not in self._systems:
            chars, family = character_family(pa.frame, "brauer-p")
            self._systems[key] = build_constraints(pa.frame, chars, family=family)
        system = self._systems[key]
        x = [pa.value(d, cls) for d, cls in system.layout.variables]
        for row in system.rows:
            s = sum(a * v for a, v in zip(row.coeffs, x)) + row.const
            if s < 0 or s % pa.n:
                return False
        return True


def check_brauer_ops(seed: int, workdir: Path) -> list[Op]:
    oracle = RowOracle()
    ops = []
    for i, item in enumerate(brauer_items(seed)):
        path = workdir / f"item{i:02d}.json"
        path.write_text(item.distribution.to_json(), encoding="utf-8")

        def check(code: int, text: str, item=item) -> str | None:
            if item.valid and code != 0:
                return f"valid distribution rejected (exit code {code})"
            payload = json.loads(text)
            if not (payload["v1"] and payload["v2"] and payload["v3"]):
                return "(V1)-(V3) reported broken on an input that keeps them"
            if payload["ok"] is not (code == 0):
                return f"report ok = {payload['ok']} disagrees with exit code {code}"
            return _expect_exit(code, 0 if oracle(item.distribution) else 1)

        argv = ("check", str(path), "--chars", "brauer-p", "--format", "json")
        ops.append(Op(f"check {item.label}", argv, check))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "verify-main": lambda seed, workdir: verify_main_ops(seed),
    "vpa-search": lambda seed, workdir: vpa_search_ops(seed),
    "check-brauer": check_brauer_ops,
}
