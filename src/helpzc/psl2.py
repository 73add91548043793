"""Conjugacy classes and character restrictions for cyclic p-regular subgroups of PSL(2,q).

For q = p^f odd, a p-regular element g0 of order m exists exactly when
q = eps mod 2m for some sign eps, every element of order dividing m is
conjugate into <g0>, and g0^i ~ g0^j iff i = +-j mod m.  That turns class
bookkeeping into arithmetic on canonical exponents 0 <= exp <= m/2.

A character restricted to <g0> is sum_e H[e] lambda_e over the linear
characters lambda_e: g0^i -> zeta^(e i), and eigen_counts gives H, the
number of eigenvalues zeta^e of g0:

    trivial      H[0] = 1
    phi_h        (q - eps) / m everywhere, plus eps at e = h and at e = -h
    psi_h        (q - eps) / m everywhere
    chi_R        one count per digit tuple s (|s_j| <= r_j, same parity as
                 r_j), at e = (sum_j s_j p^j) / 2

phi_h and psi_h restrict ordinary characters when m does not divide h;
chi_R restricts a Brauer character mod p, and the irreducible ones are
exactly the tuples R of length f with digits below p and even sum.
eigen_counts is the one statement of these restrictions: char_value
expands it into the exact CycSum value chi(g0^i) = sum_e H[e] zeta^(i e),
v_set_count reads the sets V_{R;h} off it, and decompose_chi the
coefficients of chi_R over the phi_h - psi_h.  family_walk walks a
family by what each character changes: chi_r after chi_(r-2) adds zeta^(+-r/2).

The value types here and in solver are NamedTuples, not frozen
dataclasses: a tuple is built, hashed and compared in C, and a fresh
import defines one in a tenth of the time.  It equals any tuple of its
fields, so code that must tell one from a plain tuple checks its type.
help_core keeps three frozen dataclasses: ConstraintSystem holds the
solver's memo in its own __dict__, which a tuple has not, and
VariableLayout (__len__) and SolutionSet (__len__ and __iter__) define
methods that a tuple's own would clash with.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd
from operator import sub
from typing import Iterable, Iterator, NamedTuple

from .cyclotomic import CycSum, prime_factorization


def exact_int(value) -> int:
    """An int as it is; floats, strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class GroupContext(NamedTuple):
    """The group PSL(2, q) for an odd prime power q = p^f."""

    q: int
    p: int
    f: int

    @property
    def order(self) -> int:
        return self.q * (self.q - 1) * (self.q + 1) // 2


def make_context(q: int) -> GroupContext:
    q = exact_int(q)
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd prime power")
    factors = prime_factorization(q)
    if len(factors) != 1:
        raise ValueError("q must be an odd prime power")
    p, f = factors[0]
    return GroupContext(q=q, p=p, f=f)


class ClassLabel(NamedTuple):
    """A conjugacy class of elements of order dividing the frame order.

    exp, the canonical exponent min(i mod m, m - i mod m) of g0^i, comes first
    so that labels sort by it (order, m / gcd(m, exp), is a function of exp).
    """

    exp: int
    order: int


class CyclicFrame(NamedTuple):
    """A distinguished cyclic subgroup <g0> of order m coprime to q."""

    ctx: GroupContext
    m: int
    epsilon: int

    def class_of(self, i: int) -> ClassLabel:
        m = self.m
        i %= m
        exp = min(i, m - i) if i else 0
        return ClassLabel(order=m // gcd(m, exp) if exp else 1, exp=exp)

    @property
    def identity(self) -> ClassLabel:
        return ClassLabel(order=1, exp=0)

    def classes(self) -> tuple[ClassLabel, ...]:
        return tuple(self.class_of(i) for i in range(self.m // 2 + 1))

    def classes_of_order_dividing(self, md: int) -> tuple[ClassLabel, ...]:
        if md < 1 or self.m % md:
            raise ValueError(f"{md} does not divide the frame order {self.m}")
        return tuple(c for c in self.classes() if md % c.order == 0)


def make_frame(ctx: GroupContext, m: int) -> CyclicFrame:
    """Frame for an element of order m; requires q = +-1 mod 2m (m > 1)."""
    m = exact_int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if gcd(m, ctx.q) != 1:
        raise ValueError(f"no p-regular element of order {m} in PSL(2,{ctx.q}): gcd(m, q) != 1")
    if m == 1:
        return CyclicFrame(ctx=ctx, m=1, epsilon=1)
    if (ctx.q - 1) % (2 * m) == 0:
        eps = 1
    elif (ctx.q + 1) % (2 * m) == 0:
        eps = -1
    else:
        raise ValueError(
            f"no p-regular element of order {m} in PSL(2,{ctx.q}): "
            f"requires q = +-1 mod {2 * m}"
        )
    return CyclicFrame(ctx=ctx, m=m, epsilon=eps)


class CharRestriction(NamedTuple):
    """A character restriction to the frame subgroup <g0>.

    kind is one of trivial / phi / psi / brauer; h indexes the phi and psi
    families, weights is the digit tuple R of a Brauer restriction chi_R.
    """

    kind: str
    h: int = 0
    weights: tuple[int, ...] = ()

    @classmethod
    def trivial(cls) -> CharRestriction:
        return cls(kind="trivial")

    @classmethod
    def phi(cls, h: int) -> CharRestriction:
        if exact_int(h) < 1:
            raise ValueError("phi_h requires h >= 1")
        return cls(kind="phi", h=h)

    @classmethod
    def psi(cls, h: int) -> CharRestriction:
        if exact_int(h) < 1:
            raise ValueError("psi_h requires h >= 1")
        return cls(kind="psi", h=h)

    @classmethod
    def brauer(cls, weights) -> CharRestriction:
        weights = tuple(exact_int(r) for r in weights)
        if not weights or any(r < 0 for r in weights):
            raise ValueError("chi_R requires a nonempty tuple of nonnegative digits")
        if sum(weights) % 2:
            raise ValueError("chi_R requires an even digit sum")
        return cls(kind="brauer", weights=weights)

    @property
    def label(self) -> str:
        return _label(self)

    def degree(self, frame: CyclicFrame) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "phi":
            return frame.ctx.q + frame.epsilon
        if self.kind == "psi":
            return frame.ctx.q - frame.epsilon
        out = 1
        for r in self.weights:
            out *= r + 1
        return out


@cache
def _label(chi: CharRestriction) -> str:
    """chi's label, built once per distinct character: verify_v4 reads every label per call."""
    if chi.kind == "trivial":
        return "1"
    if chi.kind == "brauer":
        return "chi_" + ",".join(str(r) for r in chi.weights)
    return f"{chi.kind}_{chi.h}"


def _brauer_half_exponents(p: int, weights: tuple[int, ...], raised: int = -1) -> list[int]:
    """Half exponents (sum_j s_j p^j) / 2 over the digit box of R, last digit fastest;
    with raised = j, over the tuples with s_j = +-R[j] only: those that R has
    and R less 2 at digit j has not.

    The box is built as an iterated sumset, one digit at a time.  For odd p
    every exponent has the parity of sum(R), so one check covers them all.
    """
    if sum(weights) % 2:  # callers admit only even digit sums
        raise AssertionError("odd exponent in Brauer character expansion")
    out = [0]
    step = 1
    for j, r in enumerate(weights):
        digits = (-r, r) if j == raised else range(-r, r + 1, 2)
        out = [e + s * step for e in out for s in digits]
        step *= p
    return [e // 2 for e in out]


def eigen_counts(frame: CyclicFrame, chi: CharRestriction) -> list[int]:
    """H with H[e] the number of eigenvalues zeta_m^e of g0 under chi.

    So chi(g0^i) = sum_e H[e] zeta_m^(i e) for every i: the restriction to
    <g0> is sum_e H[e] lambda_e over the linear characters lambda_e.  For
    phi_h and psi_h the (q - eps) / m copies of the regular character carry
    the value q - eps at the identity and vanish elsewhere.
    """
    m, q, eps = frame.m, frame.ctx.q, frame.epsilon
    if chi.kind == "trivial":
        return [1] + [0] * (m - 1)
    if chi.kind == "brauer":
        counts = [0] * m
        for e in _brauer_half_exponents(frame.ctx.p, chi.weights):
            counts[e % m] += 1
        return counts
    if chi.h % m == 0:
        raise ValueError(f"{chi.label} is not defined when the frame order divides h")
    counts = [(q - eps) // m] * m
    if chi.kind == "phi":
        counts[chi.h % m] += eps
        counts[-chi.h % m] += eps
    return counts


def family_walk(frame: CyclicFrame, characters: Iterable[CharRestriction]) -> Iterator[tuple]:
    """The change each chi makes in turn to H = eigen_counts(frame, chi)[: m/2 + 1],
    which is all of H, as H[e] = H[-e] (the counts and the digit box are symmetric).

    Yields (counts, adds), and H is the predecessor's counts plus w at each
    (h, w) of adds.  A chi_R whose R is its predecessor's with digit j raised
    by 2 yields (None, adds): w of the half exponents with s_j = +-R[j], the
    tuples that digit adds, land on h < m/2 + 1; for a one-digit R two, on
    one row at w = 2 where h = -h mod m.  A repeated character yields
    (None, ()); any other restarts the walk: (H, ()) from eigen_counts.
    """
    m, p = frame.m, frame.ctx.p
    half = m // 2 + 1
    prev = None
    for chi in characters:
        if chi == prev:
            yield None, ()
            continue
        last, prev, weights = prev, chi, chi.weights
        if last is not None and len(last.weights) == len(weights):
            step = tuple(map(sub, weights, last.weights))
            if 2 in step and sum(map(abs, step)) == 2:  # one digit, raised by 2
                adds: dict[int, int] = {}
                for e in _brauer_half_exponents(p, weights, step.index(2)):
                    if (k := e % m) < half:
                        adds[k] = adds.get(k, 0) + 1
                yield None, adds.items()
                continue
        yield eigen_counts(frame, chi)[:half], ()


def char_value(frame: CyclicFrame, chi: CharRestriction, cls: ClassLabel) -> CycSum:
    """Exact value of the restriction at the given class, as an order-m CycSum.

    The expansion sum_e H[e] zeta_m^(exp e) of H = eigen_counts(chi).
    """
    m = frame.m
    coeffs = [0] * m
    for e, count in enumerate(eigen_counts(frame, chi)):
        coeffs[cls.exp * e % m] += count
    return CycSum(m, coeffs)


def brauer_irreducibles(ctx: GroupContext, frame: CyclicFrame) -> tuple[CharRestriction, ...]:
    """All irreducible Brauer character restrictions mod p: length-f digit tuples, even sum.

    The digits come from range(p) and the sum is even by construction, so
    each chi_R is built directly, without the checks of CharRestriction.brauer.
    The first f - 1 digits run through product's order and the last steps by
    2 from their sum's parity: product's order over the even-sum tuples.
    """
    if gcd(frame.m, ctx.p) != 1:
        raise ValueError("frame must be p-regular")
    p = ctx.p
    return tuple(
        CharRestriction("brauer", weights=(*head, last))
        for head in itertools.product(range(p), repeat=ctx.f - 1)
        for last in range(sum(head) % 2, p, 2)
    )


def v_set_count(frame: CyclicFrame, weights, h: int) -> int:
    """|V_{R;h}|: nonzero digit tuples whose half exponent is +-h mod m.

    Read off H = eigen_counts(chi_R) as H[h] + H[-h], with H[h] taken once
    when h = -h mod m.  The zero tuple exists only when every digit of R is
    even; its half exponent 0 is counted exactly when h = 0 mod m, and is
    taken off then.
    """
    chi = CharRestriction.brauer(weights)
    m = frame.m
    counts = eigen_counts(frame, chi)
    count = sum(counts[e] for e in {h % m, -h % m})
    if h % m == 0 and all(r % 2 == 0 for r in chi.weights):
        count -= 1
    return count


def decompose_chi(frame: CyclicFrame, weights) -> tuple[int, dict[int, int]]:
    """Coefficients (k_0, n_h) with chi_R = k_0 * 1 + eps * sum_h n_h (phi_h - psi_h).

    All of them are read off H = eigen_counts(chi_R), which is symmetric
    because the digit box is closed under negation: k_0 = H[0], n_h = H[h]
    for 0 < h < m/2, and n_(m/2) = H[m/2] / 2.  That is k_0 = 1 + 2 n_0 when
    every digit of R is even (the zero tuple then contributes the trivial
    character once), otherwise 2 n_0, and n_h = |V_{R;h}| / 2.
    """
    m = frame.m
    counts = eigen_counts(frame, CharRestriction.brauer(weights))
    coeffs = {h: counts[h] // (2 if 2 * h == m else 1) for h in range(1, m // 2 + 1)}
    return counts[0], coeffs
