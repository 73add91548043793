"""Command line front end: enumeration, verification, and table dumps.

Exit codes: 0 success, 1 verification failure, 2 precondition or input
error, 3 incomplete search.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache

from .cyclotomic import is_prime, trace_root
from .help_core import (
    PADistribution,
    SolutionSet,
    accumulated,
    check_wagner,
    exceptional_set,
    json_text,
    tpa_set,
    verify_v4,
)
from .psl2 import CharRestriction, char_value, decompose_chi, make_context, make_frame
from .solver import (
    DEFAULT_NODE_BUDGET,
    SearchIncomplete,
    character_family,
    compare_sets,
    solve_vpa,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_INCOMPLETE = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_weights(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _characters_from_file(path: str) -> tuple[CharRestriction, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            items = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read character file {path}: {exc}") from exc
    except ValueError as exc:
        # not JSON, or not UTF-8
        raise ValueError(f"malformed character file {path}: {exc}") from exc
    out = []
    try:
        for item in items:
            kind = item.get("kind")
            if kind == "trivial":
                out.append(CharRestriction.trivial())
            elif kind == "phi":
                out.append(CharRestriction.phi(item["h"]))
            elif kind == "psi":
                out.append(CharRestriction.psi(item["h"]))
            elif kind == "brauer":
                out.append(CharRestriction.brauer(item["weights"]))
            else:
                raise ValueError(f"unknown character kind {kind!r}")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed character file {path}: {exc}") from exc
    if not out:
        raise ValueError(f"character file {path} lists no character")
    return tuple(out)


def _resolve_characters(frame, spec: str):
    """A character family preset, or else a JSON character file."""
    try:
        return character_family(frame, spec)
    except ValueError:
        if not os.path.exists(spec):
            raise
    return _characters_from_file(spec), f"file:{os.path.basename(spec)}"


def _solution_set_payload(command: str, frame, solutions: SolutionSet, **extra) -> dict:
    payload = {
        "command": command,
        "q": frame.ctx.q,
        "n": frame.m,
        "epsilon": frame.epsilon,
        "family": solutions.family,
        "solution_count": len(solutions),
        "solutions": [pa.to_json_dict() for pa in solutions],
    }
    payload.update(extra)
    return payload


def _solutions_csv(solutions: SolutionSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["solution", "d", "order", "exp", "value"])
    for i, pa in enumerate(solutions):
        for d, cls, v in pa.entries():
            writer.writerow([i, d, cls.order, cls.exp, v])
    return buf.getvalue().rstrip("\n")


def _solutions_text(payload: dict, solutions: SolutionSet) -> str:
    lines = [
        f"q={payload['q']} n={payload['n']} family={payload['family']} "
        f"solutions={payload['solution_count']}"
    ]
    for key in ("rank", "variables", "node_count", "complete"):
        if key in payload:
            lines[0] += f" {key}={payload[key]}"
    for i, pa in enumerate(solutions):
        body = " ".join(f"eps_{d}(g^{cls.exp})={v}" for d, cls, v in pa.entries())
        lines.append(f"[{i}] {body}")
    return "\n".join(lines)


def _render_solutions(args, payload: dict, solutions: SolutionSet) -> str:
    if args.format == "json":
        return json_text(payload)
    if args.format == "csv":
        return _solutions_csv(solutions)
    return _solutions_text(payload, solutions)


def cmd_vpa(args) -> int:
    ctx = make_context(args.q)
    frame = make_frame(ctx, args.n)
    chars, family = _resolve_characters(frame, args.chars)
    report = solve_vpa(
        frame,
        chars=chars,
        family=family,
        node_budget=args.node_budget,
    )
    payload = _solution_set_payload(
        "vpa",
        frame,
        report.solutions,
        characters=[c.label for c in chars],
        rank=report.rank,
        variables=len(report.bounds.lo),
        node_count=report.node_count,
        complete=report.complete,
    )
    _emit(_render_solutions(args, payload, report.solutions), args.out)
    return EXIT_OK


def cmd_tpa(args) -> int:
    frame = make_frame(make_context(args.q), args.n)
    solutions = tpa_set(frame)
    payload = _solution_set_payload("tpa", frame, solutions)
    _emit(_render_solutions(args, payload, solutions), args.out)
    return EXIT_OK


def _trace_identity_checks(frame, t: int) -> list[dict]:
    """Recompute the closed trace values of chi_2 and chi_4 at g0^2 against
    their index-set forms t*w_l - 3 and t*W_l - 5.

    The index sets presuppose t >= 5 (for t = 3 the five roots inside
    chi_4(g0^2) collide), so the caller skips this block for t = 3.
    """
    checks = []
    chi2 = CharRestriction.brauer((2,))
    val2 = char_value(frame, chi2, frame.class_of(2))
    include4 = frame.ctx.p >= 5
    if include4:
        val4 = char_value(frame, CharRestriction.brauer((4,)), frame.class_of(2))
    for l in range(1, t):
        w = 1 if l in (1, t - 1) else 0
        got2 = val2.mul_root(-2 * l).trace()
        checks.append(
            {"character": "chi_2", "l": l, "value": got2, "expected": t * w - 3,
             "ok": got2 == t * w - 3}
        )
        if include4:
            ww = 1 if l in (1, 2, t - 2, t - 1) else 0
            got4 = val4.mul_root(-2 * l).trace()
            checks.append(
                {"character": "chi_4", "l": l, "value": got4, "expected": t * ww - 5,
                 "ok": got4 == t * ww - 5}
            )
    return checks


def cmd_verify_main(args) -> int:
    t = args.t
    if not is_prime(t) or t == 2:
        raise ValueError("t must be an odd prime")
    ctx = make_context(args.q)
    frame = make_frame(ctx, 2 * t)  # exists iff q = +-1 mod 4t
    report = solve_vpa(frame, "paper", node_budget=args.node_budget)

    tpa = tpa_set(frame)
    expected_items = list(tpa)
    exceptionals = exceptional_set(frame, t) if t >= 5 else SolutionSet.build([], "exceptional")
    expected_items += list(exceptionals)
    expected = SolutionSet.build(expected_items, family="tpa+exceptional")
    diff = compare_sets(report.solutions, expected)

    brauer, _ = character_family(frame, "brauer-p")
    sufficiency = []
    for pa in exceptionals:
        v4 = verify_v4(pa, brauer)
        sufficiency.append(
            {"distribution": pa.to_json_dict(), "characters": len(brauer), "ok": v4.ok}
        )

    per_solution = []
    for pa in report.solutions:
        acc = {f"order_{k}": accumulated(pa, 1, k) for k in (2, t, 2 * t)}
        per_solution.append(
            {
                "accumulated": acc,
                "accumulated_ok": list(acc.values()) == [0, 0, 1],
                "wagner_ok": check_wagner(pa, 2, t),
            }
        )
    trace_checks = _trace_identity_checks(frame, t) if t >= 5 else []

    sufficiency_ok = all(s["ok"] for s in sufficiency)
    solutions_ok = all(s["accumulated_ok"] and s["wagner_ok"] for s in per_solution)
    traces_ok = all(c["ok"] for c in trace_checks)
    ok = diff.equal and sufficiency_ok and solutions_ok and traces_ok
    payload = {
        "command": "verify-main",
        "q": args.q,
        "t": t,
        "n": 2 * t,
        "epsilon": frame.epsilon,
        "family": report.solutions.family,
        "enumerated": len(report.solutions),
        "tpa": len(tpa),
        "exceptional": len(exceptionals),
        "node_count": report.node_count,
        "rank": report.rank,
        "match": diff.equal,
        "diff": {
            "only_found": [pa.to_json_dict() for pa in diff.only_found],
            "only_expected": [pa.to_json_dict() for pa in diff.only_expected],
        },
        "sufficiency": sufficiency,
        "solution_checks": per_solution,
        "trace_identity_checks": trace_checks,
        "ok": ok,
    }
    if args.format == "json":
        _emit(json_text(payload), args.out)
    else:
        lines = [
            f"q={args.q} t={t}: enumerated {len(report.solutions)} = "
            f"{len(tpa)} TPA + {len(exceptionals)} exceptional",
            f"set equality: {'ok' if diff.equal else 'MISMATCH'}",
            f"sufficiency (brauer-p, {len(brauer)} characters): "
            f"{'ok' if sufficiency_ok else 'FAIL'}"
            if sufficiency
            else "sufficiency: no exceptional distributions expected",
            f"accumulated/wagner checks: {'ok' if solutions_ok else 'FAIL'}",
            f"trace identities: {'ok' if traces_ok else 'FAIL'}",
            f"verdict: {'ok' if ok else 'FAIL'}",
        ]
        if not diff.equal:
            lines.append(f"only found: {[p.to_json_dict() for p in diff.only_found]}")
            lines.append(f"only expected: {[p.to_json_dict() for p in diff.only_expected]}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_check(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        pa = PADistribution.from_json_dict(data)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    violations = pa.violations()
    v_ok = {
        cond: not any(v.startswith(cond) for v in violations) for cond in ("V1", "V2", "V3")
    }
    payload = {
        "command": "check",
        "q": pa.q,
        "n": pa.n,
        "v1": v_ok["V1"],
        "v2": v_ok["V2"],
        "v3": v_ok["V3"],
        "violations": violations,
    }
    if v_ok["V3"]:
        chars, family = _resolve_characters(pa.frame, args.chars)
        v4 = verify_v4(pa, chars)
        payload["v4"] = {
            "family": family,
            "ok": v4.ok,
            "multiplicities": [
                {"character": c.character, "l": c.l, "mu": str(c.value), "ok": c.ok}
                for c in v4.checks
            ],
        }
        all_ok = not violations and v4.ok
    else:
        payload["v4"] = {"skipped": "V3 fails, multiplicities undefined on this input"}
        all_ok = False
    payload["ok"] = all_ok

    if args.format == "json":
        _emit(json_text(payload), args.out)
    else:
        lines = [f"q={pa.q} n={pa.n}"]
        for cond in ("V1", "V2", "V3"):
            lines.append(f"{cond}: {'ok' if v_ok[cond] else 'FAIL'}")
        for v in violations:
            lines.append(f"  {v}")
        if "ok" in payload.get("v4", {}):
            v4 = payload["v4"]
            lines.append(f"V4 ({v4['family']}): {'ok' if v4['ok'] else 'FAIL'}")
            for c in v4["multiplicities"]:
                if not c["ok"]:
                    lines.append(f"  mu({c['character']}, l={c['l']}) = {c['mu']}")
        else:
            lines.append("V4: skipped (V3 fails)")
        lines.append(f"verdict: {'ok' if all_ok else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_chars(args) -> int:
    ctx = make_context(args.q)
    frame = make_frame(ctx, args.m)
    if args.decompose is not None:
        if args.format == "csv":
            raise ValueError("--decompose has no csv format")
        weights = _parse_weights(args.decompose)
        k0, coeffs = decompose_chi(frame, weights)
        if args.format == "json":
            _emit(
                json_text(
                    {"q": args.q, "m": args.m, "weights": list(weights), "k0": k0,
                     "n_h": {str(h): v for h, v in coeffs.items() if v}}
                ),
                args.out,
            )
        else:
            parts = [f"k_0={k0}"] + [f"n_{h}={v}" for h, v in coeffs.items() if v]
            _emit("; ".join(parts), args.out)
        return EXIT_OK

    if args.chi:
        chars = [CharRestriction.brauer(_parse_weights(w)) for w in args.chi]
    else:
        chars, _ = _resolve_characters(frame, args.chars)
    table = []
    for chi in chars:
        values = [
            {"order": cls.order, "exp": cls.exp, "value": str(char_value(frame, chi, cls))}
            for cls in frame.classes()
        ]
        table.append({"character": chi.label, "values": values})
    if args.format == "json":
        _emit(
            json_text({"q": args.q, "m": args.m, "epsilon": frame.epsilon, "table": table}),
            args.out,
        )
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["character", "order", "exp", "value"])
        for row in table:
            for v in row["values"]:
                writer.writerow([row["character"], v["order"], v["exp"], v["value"]])
        _emit(buf.getvalue().rstrip("\n"), args.out)
    else:
        lines = []
        for row in table:
            cells = ", ".join(
                f"{row['character']}(g^{v['exp']})={v['value']}" for v in row["values"]
            )
            lines.append(cells)
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_trace(args) -> int:
    value = trace_root(args.m, args.k)
    if args.format == "json":
        _emit(json.dumps({"m": args.m, "k": args.k, "trace": value}), args.out)
    else:
        _emit(str(value), args.out)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helpzc",
        description="Exact HeLP-constraint enumeration of partial augmentation "
        "distributions for PSL(2,q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="text", formats=("json", "text")):
        p.add_argument("--format", choices=formats, default=fmt_default)
        p.add_argument("--out", help="write the report to this path instead of stdout")

    def solver_opts(p):
        p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                       help="most search nodes (candidate values) to visit (default: %(default)s)")
        p.add_argument("--workers", type=int, choices=(1,), default=1,
                       help="search processes; the search runs in one, so only 1 is accepted")

    p = sub.add_parser("vpa", help="enumerate all virtual partial augmentation distributions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chars", default="paper",
                   help="character family: paper, brauer-p, brauer-p:D, or a JSON file")
    solver_opts(p)
    common(p, fmt_default="json", formats=("json", "csv", "text"))
    p.set_defaults(func=cmd_vpa)

    p = sub.add_parser("tpa", help="list the distributions of actual group elements")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, fmt_default="json", formats=("json", "csv", "text"))
    p.set_defaults(func=cmd_tpa)

    p = sub.add_parser(
        "verify-main",
        help="check the enumerated order-2t set against group elements plus exceptionals",
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    solver_opts(p)
    common(p)
    p.set_defaults(func=cmd_verify_main)

    p = sub.add_parser("check", help="re-validate a distribution file against (V1)-(V4)")
    p.add_argument("file")
    p.add_argument("--chars", default="paper")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chars", help="dump character value tables and decompositions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--chi", action="append",
                   help="digit tuple of a Brauer restriction, e.g. 4 or 2,0 (repeatable)")
    p.add_argument("--decompose", help="digit tuple to expand into k_0 and n_h coefficients")
    p.add_argument("--chars", default="paper")
    common(p, formats=("json", "csv", "text"))
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("trace", help="rational trace of a root of unity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchIncomplete as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; silence the flush Python retries at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)
