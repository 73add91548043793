"""Exact arithmetic with integer sums of roots of unity.

A value of order m is a redundant integer coefficient vector over the
powers zeta_m^0 .. zeta_m^(m-1) of a fixed primitive m-th root of unity.
Construction never reduces anything.  The canonical form, read by the
character tables and by equality, reduces the coefficient polynomial
modulo x^m - 1 (implicit in the indexing) and then modulo the m-th
cyclotomic polynomial.  Rational traces use the closed form
Tr(zeta_m^k) = mu(d) * phi(m) / phi(d) with d = m / gcd(m, k), which is
the Ramanujan sum c_m(k) = sum over e | gcd(m, k) of e * mu(m/e).

Everything here is plain integer arithmetic; no floating point appears
anywhere.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from typing import Iterable, Sequence


@cache
def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == ((n, 1),)


def mobius(n: int) -> int:
    """Mobius function: (-1)^k for squarefree n with k prime factors, else 0."""
    factors = prime_factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient: number of 1 <= k <= n coprime to n."""
    out = 1
    for p, e in prime_factorization(n):
        out *= p ** (e - 1) * (p - 1)
    return out


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in prime_factorization(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


@cache
def trace_root(m: int, k: int) -> int:
    """Trace of zeta_m^k from Q(zeta_m) down to Q.

    zeta_m^k is a primitive d-th root of unity for d = m / gcd(m, k), and
    its trace equals mu(d) * phi(m) / phi(d); the division is exact since
    phi(d) divides phi(m) whenever d divides m.  Equivalently this is the
    sum of zeta_m^(j*k) over all j in [1, m] coprime to m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    k %= m
    d = m // gcd(m, k)
    return mobius(d) * euler_phi(m) // euler_phi(d)


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic polynomial den, over the integers."""
    rem = list(num)
    dn = len(den) - 1
    quo = [0] * max(len(rem) - dn, 1)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            quo[i - dn] = c
            for j in range(dn + 1):
                rem[i - dn + j] -= c * den[j]
    return _poly_trim(quo), _poly_trim(rem)


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^m - 1 by the product of the lower
    cyclotomic polynomials; degree phi(m), monic.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    num: list[int] = [-1] + [0] * (m - 1) + [1]
    den: list[int] = [1]
    for d in divisors(m)[:-1]:
        den = _poly_mul(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise AssertionError(f"inexact cyclotomic division at m={m}")
    return tuple(quo)


class CycSum:
    """An integer combination of m-th roots of unity.

    coeffs[i] is the coefficient of zeta_m^i; instances are immutable.
    The representation is redundant, so canonical forms (reduction modulo
    the m-th cyclotomic polynomial) are computed lazily and cached.
    Equality is a value comparison: it compares canonical forms of one
    order, reads an int as that integer, and raises on mixed orders.
    CycSum is unhashable: it can equal an int.
    """

    def __init__(self, order: int, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if order < 1:
            raise ValueError("order must be a positive integer")
        if len(coeffs) != order:
            raise ValueError(f"need exactly {order} coefficients, got {len(coeffs)}")
        self._order = order
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        """Coefficients modulo the cyclotomic polynomial, padded to degree phi(m)."""
        phi_m = cyclotomic_polynomial(self._order)
        rem = _poly_divmod(self._coeffs, phi_m)[1]
        return tuple(rem) + (0,) * (len(phi_m) - 1 - len(rem))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.canonical == (other,) + (0,) * (len(self.canonical) - 1)
        if not isinstance(other, CycSum):
            return NotImplemented
        if other._order != self._order:
            raise ValueError("incompatible cyclotomic orders")
        return self.canonical == other.canonical

    __hash__ = None  # type: ignore[assignment]

    def mul_root(self, k: int) -> CycSum:
        """Multiply by zeta_m^k: a cyclic shift of the coefficient vector."""
        m = self._order
        k %= m
        return CycSum(m, self._coeffs[m - k :] + self._coeffs[: m - k])

    def descend(self, k: int) -> CycSum:
        """Re-express in order m/k; the support must lie on multiples of k."""
        if k < 1 or self._order % k:
            raise ValueError("incompatible cyclotomic orders")
        sub = self._order // k
        out = [0] * sub
        for i, c in enumerate(self._coeffs):
            if c:
                if i % k:
                    raise ValueError("value is not supported on the requested subframe")
                out[i // k] += c
        return CycSum(sub, out)

    def trace(self) -> int:
        """Field trace to Q, the linear extension of trace_root."""
        return sum(c * trace_root(self._order, i) for i, c in enumerate(self._coeffs) if c)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.canonical):
            if not c:
                continue
            term = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i > 0 and abs(c) != 1:
                term = f"{abs(c)}*{term}"
            elif i == 0:
                term = str(abs(c))
            parts.append(("-" if c < 0 else "+" if parts else "") + term)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycSum({self._order}, {self})"
