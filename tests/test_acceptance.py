"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact; the only tolerances are the stated wall
clock budgets.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from helpzc.cli import main
from helpzc.cyclotomic import divisors, euler_phi, trace_root
from helpzc.help_core import (
    exceptional_set,
    mu_minus,
    multiplicity,
    power_distribution,
    tpa_set,
    variable_layout,
    distribution_from_vector,
    verify_v4,
)
from helpzc.psl2 import (
    CharRestriction,
    brauer_irreducibles,
    char_value,
    decompose_chi,
    make_context,
    make_frame,
)
from helpzc.solver import character_family, compare_sets, solve_vpa

from helpers import combination, galois_trace_oracle


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def frame_for(q, m):
    return make_frame(make_context(q), m)


def run_verify_main(capsys, q, t):
    start = time.monotonic()
    code = main(["verify-main", "--q", str(q), "--t", str(t), "--format", "json"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    return code, payload, elapsed


def test_criterion_1_theorem_q19_t5(capsys):
    code, payload, elapsed = run_verify_main(capsys, 19, 5)
    ok = (
        code == 0
        and payload["enumerated"] == 4
        and payload["tpa"] == 2
        and payload["exceptional"] == 2
        and payload["match"]
        and elapsed < 60.0
    )
    report(
        "criterion 1 (q=19, t=5)",
        ok,
        f"4 = 2 TPA + 2 exceptional, exit {code}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("q,t,tpa,exc", [(29, 7, 3, 3), (41, 5, 2, 2)])
def test_criterion_2_theorem_larger_cases(capsys, q, t, tpa, exc):
    code, payload, elapsed = run_verify_main(capsys, q, t)
    expected_total = 2 * euler_phi(2 * t) // 2
    ok = (
        code == 0
        and payload["match"]
        and payload["tpa"] == tpa
        and payload["exceptional"] == exc
        and payload["enumerated"] == expected_total
        and elapsed < 600.0
    )
    report(
        f"criterion 2 (q={q}, t={t})",
        ok,
        f"{payload['enumerated']} = {tpa} TPA + {exc} exceptional, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("q", [13, 11])
def test_criterion_3_t3_cases(capsys, q):
    code, payload, elapsed = run_verify_main(capsys, q, 3)
    ok = (
        code == 0
        and payload["match"]
        and payload["enumerated"] == 1
        and payload["tpa"] == 1
        and payload["exceptional"] == 0
    )
    report(f"criterion 3 (q={q}, t=3)", ok, f"single TPA distribution, {elapsed:.1f}s")


@pytest.mark.parametrize("q,r", [(11, 5), (19, 5), (13, 7)])
def test_criterion_4_prime_order_chi2_only(q, r):
    frame = frame_for(q, r)
    rep = solve_vpa(frame, chars=(CharRestriction.brauer((2,)),))
    diff = compare_sets(rep.solutions, tpa_set(frame))
    expected = euler_phi(r) // 2
    ok = diff.equal and len(rep.solutions) == expected
    report(
        f"criterion 4 (q={q}, r={r}, family chi_2)",
        ok,
        f"{len(rep.solutions)} solutions = {expected} TPA classes",
    )


@pytest.mark.parametrize("q,t,nchars", [(19, 5, 10), (29, 7, 15), (41, 5, 21)])
def test_criterion_5_sufficiency_all_brauer(q, t, nchars):
    ctx = make_context(q)
    frame = make_frame(ctx, 2 * t)
    chars = brauer_irreducibles(ctx, frame)
    assert len(chars) == nchars
    eps = frame.epsilon
    psi_mu = Fraction(q - eps, 2 * t)
    ok = True
    for pa in exceptional_set(frame, t):
        v4 = verify_v4(pa, chars)
        ok = ok and v4.ok
        for h in (1, 2, t):
            for l in range(2 * t):
                ok = ok and multiplicity(pa, CharRestriction.psi(h), l) == psi_mu
    report(
        f"criterion 5 (q={q}, all {nchars} Brauer characters mod {q})",
        ok,
        f"every mu a nonnegative integer, mu(psi) = {psi_mu}",
    )


def test_criterion_6_trace_oracle_agreement():
    checked = 0
    for m in range(1, 61):
        for k in range(m):
            assert trace_root(m, k) == galois_trace_oracle(m, k), (m, k)
            checked += 1
    report("criterion 6 (trace oracle m <= 60)", True, f"{checked} pairs, 100% agreement")


def test_criterion_7_decomposition_identity():
    frames = {6: frame_for(13, 6), 10: frame_for(19, 10), 14: frame_for(29, 14),
              22: frame_for(43, 22)}
    cases = 0
    for m, frame in frames.items():
        tuples = [(r,) for r in range(0, 7, 2)]
        tuples += [t for t in itertools.product(range(7), repeat=2) if sum(t) % 2 == 0]
        for weights in tuples:
            k0, coeffs = decompose_chi(frame, weights)
            chi = CharRestriction.brauer(weights)
            e0 = [1] + [0] * (m - 1)
            eps = frame.epsilon
            for cls in frame.classes():
                terms = [(k0, e0)]
                for h, nh in coeffs.items():
                    if nh:
                        phi_h = char_value(frame, CharRestriction.phi(h), cls)
                        psi_h = char_value(frame, CharRestriction.psi(h), cls)
                        terms += [(eps * nh, phi_h.coeffs), (-eps * nh, psi_h.coeffs)]
                assert char_value(frame, chi, cls) == combination(m, *terms), (m, weights, cls)
                cases += 1
    report("criterion 7 (decomposition identity)", True, f"{cases} exact equalities")


@pytest.fixture(scope="module")
def q19_report():
    return solve_vpa(frame_for(19, 10), "paper")


@pytest.fixture(scope="module")
def random_corpus():
    frame = frame_for(19, 10)
    layout = variable_layout(frame)
    rng = random.Random(20240229)
    corpus = []
    for _ in range(100):
        values = {}
        for d, idxs in layout.level_indices().items():
            vals = [rng.randrange(-2, 3) for _ in idxs[:-1]]
            vals.append(1 - sum(vals))
            values.update(zip(idxs, vals))
        corpus.append(distribution_from_vector(layout, [values[i] for i in range(len(layout))]))
    return corpus


def test_criterion_8a_power_map_identity(random_corpus):
    chars = [CharRestriction.trivial(), CharRestriction.brauer((2,)),
             CharRestriction.brauer((4,))]
    checked = 0
    for pa in random_corpus:
        for m in divisors(10):
            sub = power_distribution(pa, m)
            for chi in chars:
                for l in range(m):
                    lhs = multiplicity(sub, chi, l)
                    rhs = sum(multiplicity(pa, chi, lp) for lp in range(l, 10, m))
                    assert lhs == rhs
                    checked += 1
    report("criterion 8a (power-map multiplicity identity)", True,
           f"100 random distributions, {checked} identities")


def test_criterion_8b_total_multiplicity(random_corpus):
    frame = frame_for(19, 10)
    chars, _ = character_family(frame, "paper")
    for pa in random_corpus:
        for chi in chars:
            assert sum(multiplicity(pa, chi, l) for l in range(10)) == chi.degree(frame)
    report("criterion 8b (total multiplicity)", True,
           f"100 random distributions x {len(chars)} characters")


def test_criterion_8c_mu_bounds_and_accumulated_facts(q19_report):
    frame = frame_for(19, 10)
    chars, _ = character_family(frame, "paper")
    from helpzc.help_core import accumulated, check_wagner

    for pa in q19_report.solutions:
        for chi in chars:
            mu1 = multiplicity(pa, chi, 0)
            for m in divisors(10):
                assert 0 <= mu1 <= m * mu_minus(pa, chi, m), (pa, chi.label, m)
        assert accumulated(pa, 1, 2) == 0
        assert accumulated(pa, 1, 5) == 0
        assert accumulated(pa, 1, 10) == 1
        assert check_wagner(pa, 2, 5)
    rep13 = solve_vpa(frame_for(13, 6), "paper")
    for pa in rep13.solutions:
        chars13, _ = character_family(frame_for(13, 6), "paper")
        for chi in chars13:
            mu1 = multiplicity(pa, chi, 0)
            for m in divisors(6):
                assert 0 <= mu1 <= m * mu_minus(pa, chi, m)
        assert check_wagner(pa, 2, 3)
    report("criterion 8c (mu(1) bounds, accumulated values, divisibility)", True,
           "every enumerated solution at q=19 and q=13")


def test_criterion_8d_infeasible_prime(capsys):
    code = main(["vpa", "--q", "11", "--n", "7"])
    err = capsys.readouterr().err
    ok = code == 2 and "no p-regular element" in err
    report("criterion 8d (q=11, n=7 rejected)", ok, "7 does not divide |PSL(2,11)|")
