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
from fractions import Fraction
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
                fh.write(text)  # then the newline, not a copy of text with it
                if not text.endswith("\n"):
                    fh.write("\n")
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


def _read_json_file(path: str, what: str, parse):
    """parse() of the JSON in the file; every failure is a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        # not JSON, not UTF-8, or the wrong shape
        raise ValueError(f"malformed {what} {path}: {exc}") from exc


def _character_entry(item) -> CharRestriction:
    kind = item.get("kind")
    if kind == "trivial":
        return CharRestriction.trivial()
    if kind == "phi":
        return CharRestriction.phi(item["h"])
    if kind == "psi":
        return CharRestriction.psi(item["h"])
    if kind == "brauer":
        return CharRestriction.brauer(item["weights"])
    raise ValueError(f"unknown character kind {kind!r}")


def _characters_from_file(path: str) -> tuple[CharRestriction, ...]:
    chars = _read_json_file(
        path, "character file", lambda items: tuple(map(_character_entry, items))
    )
    if not chars:
        raise ValueError(f"character file {path} lists no character")
    return chars


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
        "solutions": solutions,
    }
    payload.update(extra)
    return payload


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
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
        return _csv(
            ["solution", "d", "order", "exp", "value"],
            ([i, d, cls.order, cls.exp, v] for i, pa in enumerate(solutions)
             for d, cls, v in pa.entries()),
        )
    return _solutions_text(payload, solutions)


def cmd_vpa(args) -> tuple[int, str]:
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
    return EXIT_OK, _render_solutions(args, payload, report.solutions)


def cmd_tpa(args) -> tuple[int, str]:
    frame = make_frame(make_context(args.q), args.n)
    solutions = tpa_set(frame)
    payload = _solution_set_payload("tpa", frame, solutions)
    return EXIT_OK, _render_solutions(args, payload, solutions)


def _trace_identity_checks(frame, t: int) -> list[dict]:
    """Recompute the closed trace values of chi_2 and chi_4 at g0^2 against
    their index-set forms t*w_l - 3 and t*W_l - 5.

    The index sets presuppose t >= 5 (for t = 3 the five roots inside
    chi_4(g0^2) collide), so the caller skips this block for t = 3.
    """
    forms = [("chi_2", 2, (1, t - 1))]  # (name, r, the l with w_l = 1)
    if frame.ctx.p >= 5:
        forms.append(("chi_4", 4, (1, 2, t - 2, t - 1)))
    g2 = frame.class_of(2)
    values = [char_value(frame, CharRestriction.brauer((r,)), g2) for _, r, _ in forms]
    checks = []
    for l in range(1, t):
        for (name, r, ones), value in zip(forms, values):
            got = value.mul_root(-2 * l).trace()
            expected = t * (l in ones) - (r + 1)
            checks.append(
                {"character": name, "l": l, "value": got, "expected": expected,
                 "ok": got == expected}
            )
    return checks


def cmd_verify_main(args) -> tuple[int, str]:
    t = args.t
    if not is_prime(t) or t == 2:
        raise ValueError("t must be an odd prime")
    ctx = make_context(args.q)
    frame = make_frame(ctx, 2 * t)  # exists iff q = +-1 mod 4t
    report = solve_vpa(frame, "paper", node_budget=args.node_budget)

    tpa = tpa_set(frame)
    exceptionals = exceptional_set(frame, t) if t >= 5 else ()
    diff = compare_sets(report.solutions, SolutionSet.build([*tpa, *exceptionals]))

    brauer, _ = character_family(frame, "brauer-p")
    sufficiency = []
    for pa in exceptionals:
        v4 = verify_v4(pa, brauer)
        sufficiency.append(
            {"distribution": pa, "characters": len(brauer), "ok": v4.ok}
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
    code = EXIT_OK if ok else EXIT_FAIL
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
        "diff": {"only_found": diff.only_found, "only_expected": diff.only_expected},
        "sufficiency": sufficiency,
        "solution_checks": per_solution,
        "trace_identity_checks": trace_checks,
        "ok": ok,
    }
    if args.format == "json":
        return code, json_text(payload)
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
    return code, "\n".join(lines)


def cmd_check(args) -> tuple[int, str]:
    pa = _read_json_file(args.file, "distribution file", PADistribution.from_json_dict)
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
        v4, n = verify_v4(pa, chars), pa.n
        v4_ok = v4.ok
        payload["v4"] = {"family": family, "ok": v4_ok, "multiplicities": v4}
    else:
        payload["v4"] = {"skipped": "V3 fails, multiplicities undefined on this input"}
        v4_ok = False
    all_ok = payload["ok"] = not violations and v4_ok
    code = EXIT_OK if all_ok else EXIT_FAIL

    if args.format == "json":
        return code, json_text(payload)
    lines = [f"q={pa.q} n={pa.n}"]
    lines += [f"{cond}: {'ok' if ok else 'FAIL'}" for cond, ok in v_ok.items()]
    lines += [f"  {v}" for v in violations]
    if v_ok["V3"]:
        lines.append(f"V4 ({family}): {'ok' if v4_ok else 'FAIL'}")
        lines += [f"  mu({label}, l={l}) = {Fraction(s, n)}"
                  for label, l, s in v4.checks if s < 0 or s % n]
    else:
        lines.append("V4: skipped (V3 fails)")
    lines.append(f"verdict: {'ok' if all_ok else 'FAIL'}")
    return code, "\n".join(lines)


def cmd_chars(args) -> tuple[int, str]:
    ctx = make_context(args.q)
    frame = make_frame(ctx, args.m)
    if args.decompose is not None:
        if args.format == "csv":
            raise ValueError("--decompose has no csv format")
        weights = _parse_weights(args.decompose)
        k0, coeffs = decompose_chi(frame, weights)
        if args.format == "json":
            return EXIT_OK, json_text(
                {"q": args.q, "m": args.m, "weights": list(weights), "k0": k0,
                 "n_h": {str(h): v for h, v in coeffs.items() if v}}
            )
        return EXIT_OK, "; ".join([f"k_0={k0}"] + [f"n_{h}={v}" for h, v in coeffs.items() if v])

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
        return EXIT_OK, json_text(
            {"q": args.q, "m": args.m, "epsilon": frame.epsilon, "table": table}
        )
    if args.format == "csv":
        return EXIT_OK, _csv(
            ["character", "order", "exp", "value"],
            ([row["character"], v["order"], v["exp"], v["value"]]
             for row in table for v in row["values"]),
        )
    return EXIT_OK, "\n".join(
        ", ".join(f"{row['character']}(g^{v['exp']})={v['value']}" for v in row["values"])
        for row in table
    )


def cmd_trace(args) -> tuple[int, str]:
    value = trace_root(args.m, args.k)
    if args.format == "json":
        return EXIT_OK, json.dumps({"m": args.m, "k": args.k, "trace": value})
    return EXIT_OK, str(value)


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
                       help="most search nodes (candidate values) to visit, counted in the tree "
                       "that keeps one solution per orbit of the frame automorphisms "
                       "(default: %(default)s)")
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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--chi", action="append",
                       help="digit tuple of a Brauer restriction, e.g. 4 or 2,0 (repeatable)")
    which.add_argument("--decompose", help="digit tuple to expand into k_0 and n_h coefficients")
    which.add_argument("--chars", default="paper")
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
        code, text = args.func(args)
        _emit(text, args.out)
        return code
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
