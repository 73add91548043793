"""Distributions of virtual partial augmentations and the HeLP constraint system.

A candidate distribution of order n assigns an integer eps_d(x) to every
divisor d of n and every class x of the cyclic frame, subject to

    (V1)  sum_x eps_d(x) = 1 for every d | n,
    (V2)  eps_d(1) = 0 for d != n,
    (V3)  eps_d(x) = 0 unless the order of x divides n / d,
    (V4)  for every character chi in play and every l, the eigenvalue
          multiplicity below is a nonnegative integer:

            mu(zeta_n^l) = (1/n) sum_x sum_{d|n} eps_d(x)
                           Tr_{Q(zeta_n^d)/Q}( chi(x) zeta_n^{-l d} ).

Conditions (V2), (V3) and eps_n(1) = 1 are baked into a variable layout;
each (chi, l) pair then becomes one integer row a.x + c with the two
requirements a.x + c >= 0 and a.x + c = 0 mod n, and c = chi(1).

One integer table serves both the constraint rows and the (V4) check.
The multiplicity is linear in the character, and every chi restricted to
<g0> is sum_h H[h] lambda_h over the linear characters
lambda_h: g0^i -> zeta_n^(h i), with H = eigen_counts(chi).  With the
Ramanujan sum c_m(k) = Tr(zeta_m^k), the integer table

    K[h][l] = sum over entries (d, x, v) of v * c_{n/d}(exp_x h / d - l)

holds n * mu(zeta_n^l) of each lambda_h, so chi's is sum_h H[h] K[h][l].
Both kernels work on the real half h, l <= n/2 of that table.  Every chi
is real on <g0> (g0^i and g0^-i are conjugate), so H[h] = H[-h]; and c_m
is even, so K[-h][l] = K[h][-l].  Hence chi's sums are even in l, and

    sum_h H[h] K[h][l] = sum over h <= n/2 of H[h] P[h][l]

with the pair row P[h] = K[h] + K[-h] of the pair {h, -h}.  Where h = -h
mod n (h = 0, and h = n/2 for even n) the pair is one class and P[h] is
halved, which is exact.  The sums at l > n/2 are those at n - l.

_family_sums takes the sums along a character family by its walk,
psl2.family_walk.  With c the most common count of H[: n/2 + 1], H = c 1 + R,

    sum_h H[h] P[h] = c (sum_h P[h]) + sum over h with H[h] != c of (H[h] - c) P[h],

and with H' the counts of the previous character in the family,

    sum_h H[h] P[h] = sum_h H'[h] P[h] + sum over h with H[h] != H'[h] of (H[h] - H'[h]) P[h].

The walk yields the second sum's terms where it knows them without any
count vector: for prime q, chi_(r+2) after chi_r in brauer-p adds the two
eigenvalues zeta^(+-(r+2)/2), one row pass (one at weight 2 where both
land on a row with h = -h mod n), and a repeated character adds none.
Every other character restarts from the residual: one pass for c (the
column sums sum_h P[h] are taken once per table) and one per count that
differs from c.  Both identities are exact for every integer c and every
H', so the sums do not depend on the reference.  The table of one unit
entry (d, x, 1) has row h the row k h mod m of _folded_shifts(m, n), with
m = n / d and k = exp_x / d (_pair_rows), halved where h = -h mod n.  A
constraint row takes one per variable, so the coefficient of (d, x) in row
(chi, l) is sum_h H[h] P_x[h][l]; build_constraints lays those tables side by
side, one flat row per h over (l, variable), and takes all of chi's rows
with l <= n/2 in one sum; row l > n/2 shares the coefficients of n - l.
The (V4) check of one distribution sums its entries' rows, weighted by
their values, once for all characters, and halves the sum (_eigen_table).
multiplicity() keeps the direct single-l formula as the reference.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import add, attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .cyclotomic import divisors, is_prime, trace_root
from .psl2 import (
    CharRestriction,
    ClassLabel,
    CyclicFrame,
    char_value,
    exact_int,
    family_walk,
    make_context,
    make_frame,
)


# Leaves by exact type, so that True is not written as 1.
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, built a container at a time.

    With an indent the stdlib takes its pure-Python encoder, one generator
    step per token.  Here each container is one join over its members, and
    each leaf one C call.  A PADistribution is written as its to_json_dict()
    and a SolutionSet as the list of those; each distinct entry object is
    formatted once per set (_distribution_texts).  A V4Report is written as
    its multiplicity list, each object joined from shared pieces (_v4_text).
    A tuple is written as a list; another list or tuple subclass (a
    NamedTuple) and a dict key that is not a str raise TypeError (the stdlib
    would coerce them); another leaf, such as a float, goes through
    json.dumps.
    """
    return _json_text(obj, "\n")


def _json_text(v, nl: str) -> str:
    get, kind = _JSON_LEAVES.get, type(v)
    leaf = get(kind)
    if leaf is not None:
        return leaf(v)
    inner = nl + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        body = ("," + inner).join(
            [
                f"{encode_basestring_ascii(k)}: "
                f"{f(x) if (f := get(type(x))) else _json_text(x, inner)}"
                for k, x in v.items()
            ]
        )
        return f"{{{inner}{body}{nl}}}"
    if kind is PADistribution:
        return _distribution_texts((v,), nl)[0]
    if kind is SolutionSet:
        body = _distribution_texts(v.distributions, inner)
        return f"[{inner}{(',' + inner).join(body)}{nl}]" if body else "[]"
    if kind is V4Report:
        return _v4_text(v, nl)
    if kind is list or kind is tuple:
        if not v:
            return "[]"
        body = ("," + inner).join(
            [f(x) if (f := get(type(x))) else _json_text(x, inner) for x in v]
        )
        return f"[{inner}{body}{nl}]"
    if isinstance(v, (list, tuple)):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return json.dumps(v)


def _distribution_texts(pas: Iterable[PADistribution], nl: str) -> list[str]:
    """The to_json_dict() object of each distribution at indent nl,
    {"q", "n", "entries": [{"d", "order", "exp", "value"}, ...]}; each
    distinct entry (d, class, value) is formatted once per call."""
    inner = nl + "  "
    item = inner + "  "
    key = item + "  "
    known: dict[tuple, str] = {}
    out = []
    for pa in pas:
        body = ("," + item).join(
            [
                known.get(e)
                or known.setdefault(
                    e,
                    f'{{{key}"d": {e[0]},{key}"order": {e[1].order},'
                    f'{key}"exp": {e[1].exp},{key}"value": {e[2]}{item}}}',
                )
                for e in pa._entries
            ]
        )
        entries = f"[{item}{body}{inner}]" if body else "[]"
        out.append(f'{{{inner}"q": {pa.q},{inner}"n": {pa.n},{inner}"entries": {entries}{nl}}}')
    return out


def _v4_text(v: V4Report, nl: str) -> str:
    """A V4Report's multiplicity list at indent nl: one object per character and l,
    {"character": label, "l": l, "mu": s / n in lowest terms, as a string,
    "ok": whether that is a nonnegative integer}.  Each object is a head per
    character, a middle per l and a tail per distinct sum s, joined; none is
    formatted on its own."""
    n, inner = v.n, nl + "  "
    sep = "," + inner + "  "
    mids = [f'{l}{sep}"mu": ' for l in range(n)]
    tails = {}
    for s in set().union(*(row for _label, row in v.sums)):
        g = gcd(s, n)
        mu = s // g if g == n else f"{s // g}/{n // g}"
        tails[s] = f'"{mu}"{sep}"ok": {"true" if s >= 0 and g == n else "false"}{inner}}}'
    body = []
    for label, row in v.sums:
        head = f'{{{inner}  "character": {encode_basestring_ascii(label)}{sep}"l": '
        body.append(head + ("," + inner + head).join(map(add, mids, map(tails.__getitem__, row))))
    return f"[{inner}{(',' + inner).join(body)}{nl}]" if body else "[]"


@cache
def _class_set(frame: CyclicFrame) -> frozenset[ClassLabel]:
    """The frame's class labels, built once per frame for PADistribution's check."""
    return frozenset(frame.classes())


class PADistribution:
    """An integer class-function family (eps_d)_{d | n} on the classes of a frame.

    It stores its nonzero entries once, as a tuple of (d, class, value)
    sorted by (d, exp), and its identity (q, n, key), key the (d, exp,
    value) triples derived from the entries, which equality, hashing and
    the canonical order read.  Construction checks only structure (levels
    and values are ints, levels divide n, classes are ClassLabels of the
    frame); the defining conditions (V1)-(V3) are reported by violations()
    so that invalid candidates can still be inspected.
    """

    def __init__(self, frame: CyclicFrame, levels: Mapping[int, Mapping[ClassLabel, int]]):
        n = frame.m
        entries = []
        valid = _class_set(frame)
        for d, row in levels.items():
            if exact_int(d) < 1 or n % d:
                raise ValueError(f"level {d} does not divide the order {n}")
            for cls, v in row.items():
                if type(cls) is not ClassLabel or cls not in valid:
                    raise ValueError(f"{cls} is not a class of the order-{n} frame")
                if exact_int(v):
                    entries.append((d, cls, v))
        entries.sort(key=lambda e: (e[0], e[1].exp))
        self._set(frame, tuple(entries))

    def _set(self, frame: CyclicFrame, entries: tuple[tuple[int, ClassLabel, int], ...]) -> None:
        """Store checked nonzero entries, sorted by (d, exp), and the identity read from them."""
        self.frame = frame
        self._entries = entries
        self._ident = (frame.ctx.q, frame.m, tuple([(d, cls.exp, v) for d, cls, v in entries]))

    @property
    def n(self) -> int:
        return self.frame.m

    @property
    def q(self) -> int:
        return self.frame.ctx.q

    def value(self, d: int, cls: ClassLabel) -> int:
        return next((v for e, c, v in self._entries if e == d and c == cls), 0)

    def entries(self) -> Iterator[tuple[int, ClassLabel, int]]:
        """Nonzero entries (d, class, value), sorted by (d, exp)."""
        return iter(self._entries)

    def sort_key(self) -> tuple:
        return self._ident[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PADistribution):
            return NotImplemented
        return self._ident == other._ident

    def __hash__(self) -> int:
        return hash(self._ident)

    def __repr__(self) -> str:
        body = ", ".join(f"eps_{d}(g^{c.exp})={v}" for d, c, v in self.entries())
        return f"PADistribution(q={self.q}, n={self.n}, {body})"

    def violations(self) -> list[str]:
        """Human-readable list of broken (V1)/(V2)/(V3) conditions; empty if valid."""
        n = self.n
        totals = dict.fromkeys(divisors(n), 0)
        for d, _cls, v in self._entries:
            totals[d] += v
        out = [f"V1: level d={d} sums to {t}, expected 1" for d, t in totals.items() if t != 1]
        for d, cls, v in self._entries:
            if d != n and cls.exp == 0:
                out.append(f"V2: eps_{d}(1) = {v}, expected 0")
            if (n // d) % cls.order:
                out.append(
                    f"V3: eps_{d} is nonzero at a class of order {cls.order}, "
                    f"which does not divide n/d = {n // d}"
                )
        return out

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "entries": [
                {"d": d, "order": cls.order, "exp": cls.exp, "value": v}
                for d, cls, v in self._entries
            ],
        }

    def to_json(self) -> str:
        return json_text(self)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> PADistribution:
        try:
            q = exact_int(data["q"])
            n = exact_int(data["n"])
            raw = list(data["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"distribution object needs integer q, n and an entries list: {exc}"
            ) from exc
        frame = make_frame(make_context(q), n)
        levels: dict[int, dict[ClassLabel, int]] = {}
        for item in raw:
            try:
                d, exp, v = (exact_int(item[key]) for key in ("d", "exp", "value"))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"distribution entry needs integer d, exp and value: {exc}"
                ) from exc
            label = frame.class_of(exp)
            if label.exp != exp:
                raise ValueError(f"exponent {exp} is not canonical for order {n}")
            if "order" in item and exact_int(item["order"]) != label.order:
                raise ValueError(
                    f"entry order {item['order']} does not match class order {label.order}"
                )
            level = levels.setdefault(d, {})
            if label in level:
                raise ValueError(f"repeated distribution entry d={d}, exp={exp}")
            level[label] = v
        return cls(frame, levels)


@dataclass(frozen=True)
class VariableLayout:
    """The free unknowns after baking (V2), (V3) and eps_n(1) = 1 into the system."""

    frame: CyclicFrame
    variables: tuple[tuple[int, ClassLabel], ...]

    def __len__(self) -> int:
        return len(self.variables)

    def index(self, d: int, cls: ClassLabel) -> int:
        return self.variables.index((d, cls))

    def level_indices(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, (d, _cls) in enumerate(self.variables):
            out.setdefault(d, []).append(i)
        return {d: tuple(v) for d, v in out.items()}

    def unit_permutations(self) -> list[tuple[int, ...]]:
        """The frame automorphisms g0^i -> g0^(u i), 1 < u <= n/2, on the variables.

        Entry i of u's permutation is the index of (d, class of u * exp) for
        variable i = (d, class of exp): the action relabel applies to
        distributions.  u and n - u give the same one, so each is listed once.
        """
        n = self.frame.m
        where = {v: i for i, v in enumerate(self.variables)}
        return [
            tuple(where[d, self.frame.class_of(u * cls.exp)] for d, cls in self.variables)
            for u in range(2, n // 2 + 1)
            if gcd(u, n) == 1
        ]


def variable_layout(frame: CyclicFrame) -> VariableLayout:
    n = frame.m
    variables = []
    for d in divisors(n):
        if d == n:
            continue
        for cls in frame.classes_of_order_dividing(n // d):
            if cls.exp:
                variables.append((d, cls))
    return VariableLayout(frame=frame, variables=tuple(variables))


def distributions_from_vectors(
    layout: VariableLayout, vectors: Iterable[tuple[int, ...]]
) -> Iterator[PADistribution]:
    """The distribution of each vector of layout values, plus the fixed eps_n(1) = 1.

    The layout is checked once, as PADistribution(frame, levels) checks its
    unit distribution, whose entries give the variables' order by (d, exp).
    A vector is checked to hold one int per variable (as exact_int checks);
    its nonzero values in that order, then eps_n(1) = 1, are the entries.
    """
    frame, variables = layout.frame, layout.variables
    units = {d: {cls: 1 for e, cls in variables if e == d} for d, _cls in variables}
    steps = [(layout.index(d, c), d, c) for d, c, _v in PADistribution(frame, units).entries()]
    fixed, nvars = (frame.m, frame.identity, 1), len(layout)
    if len(steps) != nvars:
        raise ValueError("the layout repeats a variable")
    for vec in vectors:
        if len(vec) != nvars or not {int}.issuperset(map(type, vec)):
            list(map(exact_int, vec))  # raises at a value that is not an int
            raise ValueError(f"{len(vec)} values for a layout of {nvars} variables")
        pa = object.__new__(PADistribution)
        pa._set(frame, (*[(d, cls, v) for i, d, cls in steps if (v := vec[i])], fixed))
        yield pa


def distribution_from_vector(layout: VariableLayout, values: Iterable[int]) -> PADistribution:
    """The distribution of one vector of layout values: distributions_from_vectors."""
    return next(distributions_from_vectors(layout, [tuple(values)]))


class ConstraintRow(NamedTuple):
    """One (character, eigenvalue index) row: n * mu = coeffs . x + const.

    The row demands coeffs . x + const >= 0 and = 0 mod n; const equals
    chi(1) (the contribution of the fixed eps_n(1) = 1), and the upper
    bound n * chi(1) follows from the multiplicities summing to chi(1).
    """

    character: str
    l: int
    coeffs: tuple[int, ...]
    const: int
    upper: int


@dataclass(frozen=True)
class ConstraintSystem:
    """The rows of a character family over the layout of the frame's variables."""

    frame: CyclicFrame
    layout: VariableLayout
    rows: tuple[ConstraintRow, ...]
    family: str = "custom"

    @property
    def n(self) -> int:
        return self.frame.m


@cache
def _folded_shifts(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Row k is [c_m(k - l) + c_m(k + l) for l <= n / 2], with c_m(j) = Tr(zeta_m^j)
    the Ramanujan sum: the unit zeta_m^k's share of K[h] + K[-h] (module docstring)."""
    return tuple(
        tuple(trace_root(m, k - l) + trace_root(m, k + l) for l in range(n // 2 + 1))
        for k in range(m)
    )


def _pair_rows(n: int, d: int, exp: int) -> list:
    """Row h <= n / 2 of the pair rows K[h] + K[-h] (module docstring) of the one
    entry (d, g0^exp, 1), not yet halved where h = -h mod n: row k h mod m of
    _folded_shifts(m, n), m = n / d and k = exp / d, as lambda_h: g0^i ->
    zeta_n^(h i) at g0^exp descends to zeta_m^(k h) on level d."""
    m, k = n // d, exp // d
    shifts = _folded_shifts(m, n)
    return [shifts[k * h % m] for h in range(n // 2 + 1)]


def _halved(table: list[list[int]], n: int) -> list[list[int]]:
    """table with each row h = -h mod n halved, exactly: each pair row is even there."""
    return [[a // 2 for a in row] if 2 * h % n == 0 else row for h, row in enumerate(table)]


def _eigen_table(n: int, entries: Iterable[tuple[int, ClassLabel, int]]) -> list[list[int]]:
    """The real half of K over entries (d, x, v): row h <= n / 2 sums v times
    row h of each entry's _pair_rows, halved once (_halved)."""
    columns = []
    for d, cls, v in entries:
        rows = _pair_rows(n, d, cls.exp)
        columns.append(rows if v == 1 else [[v * b for b in row] for row in rows])
    half = n // 2 + 1
    table = [list(map(sum, zip(*rows))) for rows in zip(*columns)]
    return _halved(table or [[0] * half for _ in range(half)], n)


def _family_sums(walk: Iterable[tuple], table: list[list[int]]) -> Iterator[list[int]]:
    """sum_h H[h] * table[h], entrywise, for each step (counts, adds) of a family walk
    (psl2.family_walk), table one row per count: a step with counts restarts from
    its residual c * colsum, c the most common count, and every step then adds
    w * table[h] for each (h, w) of its adds (module docstring).  A yielded list
    is not written again.
    """
    colsum = [sum(column) for column in zip(*table)]
    out = None
    for counts, adds in walk:
        if counts is not None:
            c = Counter(counts).most_common(1)[0][0]
            out = [c * b for b in colsum]
            adds = [(h, w - c) for h, w in enumerate(counts) if w != c]
        for h, w in adds:
            row = table[h]
            out = list(map(add, out, row)) if w == 1 else [a + w * b for a, b in zip(out, row)]
        yield out


def _mirrored(values: list, n: int) -> list:
    """The values at l < n from those at l <= n / 2: l > n / 2 reads n - l."""
    return values + values[(n - 1) // 2 : 0 : -1]


def build_constraints(
    frame: CyclicFrame,
    characters: Iterable[CharRestriction],
    family: str = "custom",
) -> ConstraintSystem:
    """Row (chi, l) has coefficient sum_h H[h] K_x[h][l] at x = (d, cls) of
    variable_layout(frame), H = eigen_counts(chi), K_x the table of entry (d, cls, 1).

    Row h <= n / 2 of the joint table holds row h of x's _pair_rows, halved
    (_halved), at l * len(layout) + index of x for l <= n / 2,
    so one sum over H[: n / 2 + 1] gives those rows of chi, l after l; row
    l > n / 2 is row n - l.  family_walk gives what each character changes
    of H, and _family_sums adds those rows of the joint table to the
    previous character's sums, or restarts from the residual (module
    docstring).
    """
    layout = variable_layout(frame)
    n = frame.m
    half = n // 2 + 1
    nvars = len(layout)
    units = [_pair_rows(n, d, cls.exp) for d, cls in layout.variables]
    table = [[a for column in zip(*rows) for a in column] for rows in zip(*units)]
    table = _halved(table or [[] for _ in range(half)], n)  # no variables: empty rows
    characters = list(characters)
    rows = []
    for chi, sums in zip(characters, _family_sums(family_walk(frame, characters), table)):
        coeffs = _mirrored([tuple(sums[l * nvars : (l + 1) * nvars]) for l in range(half)], n)
        deg, label = chi.degree(frame), chi.label
        for l, row in enumerate(coeffs):
            rows.append(
                ConstraintRow(character=label, l=l, coeffs=row, const=deg, upper=n * deg)
            )
    return ConstraintSystem(frame=frame, layout=layout, rows=tuple(rows), family=family)


def _check_v3(entries: Iterable[tuple[int, ClassLabel, int]]) -> None:
    """Raise unless every entry (d, x, v) has exp_x divisible by d, i.e. (V3) holds."""
    for d, cls, _v in entries:
        if cls.exp % d:
            raise ValueError(
                f"eps_{d} at g0^{cls.exp} is not supported on the requested subframe (V3)"
            )


def multiplicity(pa: PADistribution, chi: CharRestriction, l: int) -> Fraction:
    """Exact eigenvalue multiplicity mu(zeta_n^l) for the candidate distribution.

    For members of VPA_n this is a nonnegative integer for every actual
    ordinary or Brauer character; here it is returned as an exact rational
    so that failures are visible.  (V3) must hold.
    """
    n = pa.n
    _check_v3(pa.entries())
    total = 0
    for d, cls, v in pa.entries():
        value = char_value(pa.frame, chi, cls)
        total += v * value.mul_root((-l * d) % n).descend(d).trace()
    return Fraction(total, n)


def mu_minus(pa: PADistribution, chi: CharRestriction, m: int) -> Fraction:
    """The partial multiplicity sum over divisors d with m | d (no root twist); (V3) must hold."""
    n = pa.n
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide the order {n}")
    _check_v3(pa.entries())
    total = 0
    for d, cls, v in pa.entries():
        if d % m == 0:
            total += v * char_value(pa.frame, chi, cls).descend(d).trace()
    return Fraction(total, n)


def power_distribution(pa: PADistribution, m: int) -> PADistribution:
    """The induced distribution of the (n/m)-th power, on the order-m subframe."""
    n = pa.n
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide the order {n}")
    k = n // m
    sub = make_frame(pa.frame.ctx, m)
    levels: dict[int, dict[ClassLabel, int]] = {}
    for d, cls, v in pa.entries():
        if d % k:
            continue
        if cls.exp % k:
            raise ValueError("distribution breaks (V3); cannot take powers")
        levels.setdefault(d // k, {})[sub.class_of(cls.exp // k)] = v
    return PADistribution(sub, levels)


def accumulated(pa: PADistribution, d: int, order: int) -> int:
    """Accumulated augmentation: sum of eps_d over classes of order exactly `order`."""
    return sum(v for lvl, cls, v in pa.entries() if lvl == d and cls.order == order)


def tpa_distribution(frame: CyclicFrame, exp: int) -> PADistribution:
    """The distribution of an actual group element g0^exp of full frame order."""
    n = frame.m
    if frame.class_of(exp).order != n:
        raise ValueError(f"exponent {exp} does not have order {n}")
    levels = {d: {frame.class_of(exp * d): 1} for d in divisors(n)}
    return PADistribution(frame, levels)


@dataclass(frozen=True)
class SolutionSet:
    """A duplicate-free, canonically sorted collection of distributions."""

    distributions: tuple[PADistribution, ...]
    family: str = ""

    @classmethod
    def build(cls, items: Iterable[PADistribution], family: str = "") -> SolutionSet:
        ordered = sorted(set(items), key=attrgetter("_ident"))
        return cls(distributions=tuple(ordered), family=family)

    def __len__(self) -> int:
        return len(self.distributions)

    def __iter__(self) -> Iterator[PADistribution]:
        return iter(self.distributions)


def tpa_set(frame: CyclicFrame) -> SolutionSet:
    """One distribution per conjugacy class of elements of full frame order."""
    n = frame.m
    exps = [cls.exp for cls in frame.classes() if cls.order == n]
    return SolutionSet.build((tpa_distribution(frame, e) for e in exps), family="tpa")


def exceptional(frame: CyclicFrame, t: int, g0exp: int = 1) -> PADistribution:
    """The exceptional order-2t distribution attached to the class of g0^g0exp.

    At level 1 it places +1 on the classes of g^((t-1)/2) and g^((t+1)/2)
    and -1 on the class of g^(t-1); the other levels look like a genuine
    group element.  Defined for odd primes t >= 5 only.
    """
    if not is_prime(t) or t % 2 == 0:
        raise ValueError("t must be an odd prime")
    if t == 3:
        raise ValueError("exceptional distribution requires t >= 5")
    n = 2 * t
    if frame.m != n:
        raise ValueError(f"frame order {frame.m} is not 2t = {n}")
    if frame.class_of(g0exp).order != n:
        raise ValueError(f"exponent {g0exp} does not have order {n}")

    def cls(j: int) -> ClassLabel:
        return frame.class_of(g0exp * j)

    levels = {
        n: {frame.identity: 1},
        t: {cls(t): 1},
        2: {cls(2): 1},
        1: {cls((t - 1) // 2): 1, cls((t + 1) // 2): 1, cls(t - 1): -1},
    }
    return PADistribution(frame, levels)


def exceptional_set(frame: CyclicFrame, t: int) -> SolutionSet:
    """One exceptional distribution per class of order-2t elements."""
    n = 2 * t
    exps = [cls.exp for cls in frame.classes() if cls.order == n]
    return SolutionSet.build((exceptional(frame, t, e) for e in exps), family="exceptional")


def relabel(pa: PADistribution, c: int) -> PADistribution:
    """Frame automorphism: rewrite every class key g0^i as g0^(c i)."""
    n = pa.n
    if gcd(c, n) != 1:
        raise ValueError(f"{c} is not coprime to the order {n}")
    levels: dict[int, dict[ClassLabel, int]] = {}
    for d, cls, v in pa.entries():
        levels.setdefault(d, {})[pa.frame.class_of(c * cls.exp)] = v
    return PADistribution(pa.frame, levels)


class V4Report(NamedTuple):
    """n * mu(zeta_n^l) of one distribution: one (label, sums over l) per character.

    ok when every sum is a nonnegative multiple of n, that is, when every
    multiplicity is a nonnegative integer.  json_text writes it as its
    multiplicity list, one object per character and l (_v4_text).
    """

    n: int
    sums: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        n = self.n
        return all(s >= 0 and s % n == 0 for s in set().union(*(r for _l, r in self.sums)))

    @property
    def checks(self) -> tuple[tuple[str, int, int], ...]:
        """One (label, l, n * mu) per multiplicity, character by character."""
        return tuple((label, l, s) for label, row in self.sums for l, s in enumerate(row))


def verify_v4(pa: PADistribution, characters: Iterable[CharRestriction]) -> V4Report:
    """The integers n * mu of every character and l, for the (V4) check.

    n * mu of chi is sum_h H[h] K[h][l] with H = eigen_counts(chi) and K the
    table of the distribution's entries (_eigen_table), taken on the real
    half and mirrored: l > n / 2 reads n - l.  family_walk gives what each
    character changes of H, a Brauer character one digit above the one
    before it the eigenvalues that digit adds, and _family_sums adds those
    rows of K to the previous character's sums or restarts from the
    residual (module docstring).  (V3) must hold.
    """
    n = pa.n
    entries = list(pa.entries())
    _check_v3(entries)
    table = _eigen_table(n, entries)
    characters = list(characters)
    sums = _family_sums(family_walk(pa.frame, characters), table)
    return V4Report(n, tuple([(chi.label, tuple(_mirrored(row, n)))
                              for chi, row in zip(characters, sums)]))


def check_wagner(pa: PADistribution, r: int, t: int) -> bool:
    """Divisibility of the accumulated level-1 augmentations at the prime orders."""
    if not (is_prime(r) and is_prime(t)) or r == t or pa.n != r * t:
        raise ValueError("requires n = r * t for distinct primes r and t")
    return accumulated(pa, 1, t) % t == 0 and accumulated(pa, 1, r) % r == 0

