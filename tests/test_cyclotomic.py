"""Exact root-of-unity arithmetic against brute-force oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpzc.cyclotomic import (
    CycSum,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    mobius,
    trace_root,
)
from helpzc.help_core import _folded_shifts

from helpers import (
    as_integer,
    combination,
    conjugate,
    galois_trace_oracle,
    mobius_oracle,
    phi_oracle,
    unit_table,
)


def unit(m, k):
    """The coefficient vector of zeta_m^k."""
    return [int(i == k % m) for i in range(m)]

@pytest.mark.parametrize("n,expected", [(1, 1), (10, 1), (12, 0)])
def test_mobius_examples(n, expected):
    assert mobius(n) == expected

def test_mobius_against_recursive_oracle():
    for n in range(1, 121):
        assert mobius(n) == mobius_oracle(n)

@pytest.mark.parametrize("n,expected", [(1, 1), (10, 4), (12, 4)])
def test_euler_phi_examples(n, expected):
    assert euler_phi(n) == expected

def test_euler_phi_against_counting_oracle():
    for n in range(1, 200):
        assert euler_phi(n) == phi_oracle(n)

@pytest.mark.parametrize(
    "m,k,expected",
    [(12, 0, 4), (10, 5, -4), (10, 2, -1), (12, 2, 2)],
)
def test_trace_root_examples(m, k, expected):
    assert trace_root(m, k) == expected

def test_trace_root_matches_galois_sum_small():
    for m in range(1, 25):
        for k in range(m):
            assert trace_root(m, k) == galois_trace_oracle(m, k)

def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)

def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    from helpzc.cyclotomic import _poly_mul

    for m in range(1, 61):
        prod = [1]
        for d in divisors(m):
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (m - 1) + [1]
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

def test_trace_is_linear():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 31)
        z1 = CycSum(m, [rng.randrange(-5, 6) for _ in range(m)])
        z2 = CycSum(m, [rng.randrange(-5, 6) for _ in range(m)])
        a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
        z = combination(m, (a, z1.coeffs), (b, z2.coeffs))
        assert z.trace() == a * z1.trace() + b * z2.trace()

def test_trace_conjugation_invariant():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(1, 31)
        z = CycSum(m, [rng.randrange(-5, 6) for _ in range(m)])
        assert conjugate(z).trace() == z.trace()
        assert conjugate(conjugate(z)) == z

def test_conjugate_and_root_examples():
    assert conjugate(CycSum(10, unit(10, 1))) == CycSum(10, unit(10, 9))
    assert combination(10, (1, unit(10, 1)), (1, unit(10, -1))).trace() == 2

def test_trace_example_values():
    assert CycSum(10, unit(10, 0)).trace() == 4
    window = combination(10, *((1, unit(10, e)) for e in range(-2, 3)))
    assert window.coeffs == (1, 1, 1, 0, 0, 0, 0, 0, 1, 1)
    assert window.trace() == 4

def test_canonical_equality_is_stable_under_cyclotomic_shifts():
    # Adding any polynomial multiple of Phi_m must not change the value.
    rng = random.Random(17)
    for m in (4, 6, 10, 12):
        phi_m = cyclotomic_polynomial(m)
        for _ in range(50):
            z = CycSum(m, [rng.randrange(-5, 6) for _ in range(m)])
            shift = [0] * m
            mult_deg = m - len(phi_m)
            k = rng.randrange(0, mult_deg + 1)
            c = rng.randrange(-3, 4)
            for j, p in enumerate(phi_m):
                shift[(j + k) % m] += c * p
            assert combination(m, (1, z.coeffs), (1, shift)) == z

def test_equality_is_equivalence_on_random_values():
    rng = random.Random(19)
    for _ in range(50):
        m = rng.choice([2, 3, 4, 6, 10, 12])
        z = CycSum(m, [rng.randrange(-4, 5) for _ in range(m)])
        w = CycSum(m, [rng.randrange(-4, 5) for _ in range(m)])
        assert z == z
        assert (z == w) == (w == z)

def test_zero_of_full_residue_system():
    # The sum of all m-th roots of unity vanishes for m > 1.
    for m in range(2, 20):
        total = CycSum(m, [1] * m)
        assert total == 0
        assert total == CycSum(m, [0] * m)

def test_mul_root_and_product_consistency():
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randrange(2, 20)
        z = CycSum(m, [rng.randrange(-3, 4) for _ in range(m)])
        k = rng.randrange(-2 * m, 2 * m)
        rotated = z.mul_root(k)
        assert rotated.coeffs == tuple(z.coeffs[(i - k) % m] for i in range(m))
        assert rotated.order == m

def twisted_traces(z, n):
    """[Tr(z * zeta_m^-l) + Tr(z * zeta_m^l) for l <= n / 2] through the folded
    Ramanujan-sum table of the (V4) kernel: coefficient j of z times row j, whose
    entry l is c_m(j - l) + c_m(j + l)."""
    shifts = _folded_shifts(z.order, n)
    return [sum(c * row[l] for c, row in zip(z.coeffs, shifts)) for l in range(n // 2 + 1)]

def folded_rotated_traces(z, n):
    return [z.mul_root(-l).trace() + z.mul_root(l).trace() for l in range(n // 2 + 1)]

@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_twisted_traces_match_rotated_traces(m, data):
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    n = m * data.draw(st.integers(1, 3))
    z = CycSum(m, coeffs)
    assert twisted_traces(z, n) == folded_rotated_traces(z, n)

@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, 2), (2, 2), (5, 5), (5, 10), (9, 9), (6, 12), (12, 36)]
)
def test_folded_shift_rows_are_unit_traces(m, n):
    # row k is the table of the unit zeta_m^k alone
    shifts = _folded_shifts(m, n)
    assert len(shifts) == m
    for k, row in enumerate(shifts):
        assert list(row) == folded_rotated_traces(CycSum(m, unit(m, k)), n)

@pytest.mark.parametrize(
    "n,d,exp", [(1, 1, 0), (9, 1, 2), (10, 1, 3), (12, 1, 5), (12, 2, 2), (30, 3, 6), (10, 10, 0)]
)
def test_unit_table_rows_are_unit_traces(n, d, exp):
    # row h is the table of the unit zeta_m^(k h), m = n / d and k = exp / d,
    # halved where h = -h mod n: there the pair {h, -h} is one class
    m, k = n // d, exp // d
    table = unit_table(n, d, exp)
    assert len(table) == n // 2 + 1
    for h, row in enumerate(table):
        traces = folded_rotated_traces(CycSum(m, unit(m, k * h)), n)
        assert [a * (2 if 2 * h % n == 0 else 1) for a in row] == traces

def test_twisted_traces_examples():
    assert twisted_traces(CycSum(10, unit(10, 0)), 10) == [8, 2, -2, 2, -2, -8]
    assert twisted_traces(CycSum(12, unit(12, 5)), 12)[5] == euler_phi(12) + 2
    assert twisted_traces(CycSum(9, unit(9, 2)), 9) == [0, -3, 6, 0, -3]
    assert twisted_traces(CycSum(7, [0] * 7), 14) == [0] * 8

def test_descend_and_subfield_trace():
    z = combination(10, (1, unit(10, 4)), (1, unit(10, 6)))
    w = z.descend(2)
    assert w.order == 5
    assert w.coeffs == (0, 0, 1, 1, 0)
    assert z.descend(2).trace() == -2
    with pytest.raises(ValueError, match="subframe"):
        CycSum(10, unit(10, 3)).descend(2)

def test_arithmetic_order_mismatch_raises():
    with pytest.raises(ValueError, match="incompatible cyclotomic orders"):
        CycSum(5, unit(5, 1)) == CycSum(10, unit(10, 2))
    with pytest.raises(ValueError, match="incompatible cyclotomic orders"):
        CycSum(5, unit(5, 1)).descend(2)
    assert CycSum(5, unit(5, 1)) != "z"

def test_integer_detection():
    assert as_integer(CycSum(12, [-7] + [0] * 11)) == -7
    # the four primitive 12th roots sum to the Ramanujan sum c_12(1) = 0
    assert as_integer(combination(12, *((1, unit(12, k)) for k in (1, 5, 7, 11)))) == 0
    with pytest.raises(ValueError):
        as_integer(CycSum(12, unit(12, 1)))
    # equality with an int compares the whole canonical form
    assert CycSum(12, [3] + [0] * 11) == 3
    assert CycSum(12, [3, 1] + [0] * 10) != 3
