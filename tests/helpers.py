"""Shared test oracles, kept independent of the library code paths they check."""

from __future__ import annotations

import cmath
import itertools
import random
from collections.abc import Sequence
from fractions import Fraction
from math import floor, gcd
from operator import mul
from typing import NamedTuple

from helpzc.cyclotomic import CycSum, divisors, is_prime, prime_factorization, trace_root
from helpzc.help_core import (
    ConstraintSystem,
    PADistribution,
    V4Report,
    _folded_shifts,
    accumulated,
    exceptional_set,
    tpa_set,
    variable_layout,
)
from helpzc.psl2 import char_value, eigen_counts, make_context, make_frame, v_set_count
from helpzc.solver import (
    BoundsBox,
    RankDeficientError,
    SearchIncomplete,
    _howell,
    _relaxation,
    _search,
    _search_order,
)


def mobius_oracle(n: int) -> int:
    """Recursive oracle from sum_{d | n} mu(d) = [n == 1]."""
    if n == 1:
        return 1
    return -sum(mobius_oracle(d) for d in range(1, n) if n % d == 0)


def phi_oracle(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def galois_trace_oracle(m: int, k: int) -> int:
    """Brute-force Galois sum of zeta_m^(j*k) over j coprime to m, via canonical forms."""
    counts = [0] * m
    for j in range(1, m + 1):
        if gcd(j, m) == 1:
            counts[j * k % m] += 1
    return as_integer(CycSum(m, counts))


def as_integer(z: CycSum) -> int:
    """z as a rational integer, read off its canonical form; ValueError if it is not one."""
    if any(z.canonical[1:]):
        raise ValueError(f"{z!r} is not a rational integer")
    return z.canonical[0]


def combination(m: int, *terms: tuple[int, Sequence[int]]) -> CycSum:
    """CycSum(m, sum of c * v over the (c, v) in terms), each v a coefficient list of length m."""
    return CycSum(m, [sum(c * v[i] for c, v in terms) for i in range(m)])


def conjugate(z: CycSum) -> CycSum:
    """Complex conjugation, the index map i -> -i mod m."""
    m = z.order
    return CycSum(m, tuple(z.coeffs[(-i) % m] for i in range(m)))


def brauer_half_exponents_oracle(p: int, weights: tuple[int, ...]) -> list[int]:
    """Half exponents (sum_j s_j p^j) / 2 over the digit box of R."""
    out = []
    for digits in itertools.product(*(range(-r, r + 1, 2) for r in weights)):
        e = sum(s * p**j for j, s in enumerate(digits))
        if e % 2:  # impossible for even digit sum and odd p
            raise AssertionError("odd exponent in Brauer character expansion")
        out.append(e // 2)
    return out


def v_set_count_oracle(frame, weights, h: int) -> int:
    """|V_{R;h}|: nonzero digit tuples whose half exponent is +-h mod m."""
    weights = tuple(weights)
    if sum(weights) % 2:
        raise ValueError("chi_R requires an even digit sum")
    m = frame.m
    count = 0
    for digits in itertools.product(*(range(-r, r + 1, 2) for r in weights)):
        if not any(digits):
            continue
        e = sum(s * frame.ctx.p**j for j, s in enumerate(digits)) // 2
        if (e - h) % m == 0 or (e + h) % m == 0:
            count += 1
    return count


def v_pair_count(frame, weights, h: int) -> int:
    """n_h = |V_{R;h}| / 2; the set is closed under digit negation, so this is exact."""
    c = v_set_count(frame, weights, h)
    assert c % 2 == 0
    return c // 2


def float_root(m: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / m)


def float_char_exponents(frame, chi, exp: int) -> list[tuple[int, int]]:
    """Character value at the class of g0^exp as (coefficient, root exponent) pairs.

    Re-derived from the closed-form character definitions so that the numeric
    multiplicity oracle shares no code with helpzc.psl2.char_value.
    """
    q, p, eps, m = frame.ctx.q, frame.ctx.p, frame.epsilon, frame.m
    if chi.kind == "trivial":
        return [(1, 0)]
    if chi.kind == "phi":
        if exp % m == 0:
            return [(q + eps, 0)]
        return [(eps, chi.h * exp % m), (eps, (-chi.h * exp) % m)]
    if chi.kind == "psi":
        return [(q - eps, 0)] if exp % m == 0 else []
    assert chi.kind == "brauer"
    out = []
    for digits in itertools.product(*(range(-r, r + 1, 2) for r in chi.weights)):
        e = sum(s * p**j for j, s in enumerate(digits))
        assert e % 2 == 0
        out.append((1, (exp * (e // 2)) % m))
    return out


def float_multiplicity(pa, chi, l: int) -> float:
    """Numeric multiplicity oracle.

    Every traced quantity chi(x) * zeta_n^(-ld) is an explicit sum of n-th
    roots with exponents divisible by d; its trace from Q(zeta_{n/d}) is the
    sum over Galois substitutions zeta -> zeta^j, j coprime to n/d, evaluated
    with complex exponentials.
    """
    n = pa.n
    total = 0.0 + 0.0j
    for d, cls, v in pa.entries():
        sub = n // d
        exps = []
        for coef, e in float_char_exponents(pa.frame, chi, cls.exp):
            shifted = (e - l * d) % n
            assert shifted % d == 0
            exps.append((coef, shifted // d))
        tr = 0.0 + 0.0j
        for j in range(1, sub + 1):
            if gcd(j, sub) == 1:
                tr += sum(coef * float_root(sub, j * e) for coef, e in exps)
        total += v * tr
    return (total / n).real


def trace_rows(frame, chi, pairs) -> list[tuple[int, ...]]:
    """Row l holds Tr_{Q(zeta_n^d)/Q}( chi(x) * zeta_n^{-l d} ) for each (d, x).

    The constraint-row kernel the library used before its rows came from
    eigen_counts: chi(x) is evaluated once per distinct class, descended to
    order n/d (which turns the twist into one by zeta_{n/d}^{-l}, so each
    entry repeats with period n/d), and traced once per rotation.
    """
    values = {}
    periods = []
    for d, cls in pairs:
        if cls not in values:
            values[cls] = char_value(frame, chi, cls)
        z = values[cls].descend(d)
        periods.append([z.mul_root(-k).trace() for k in range(z.order)])
    return [tuple(t[l % len(t)] for t in periods) for l in range(frame.m)]


def trace_row_v4(pa, characters) -> V4Report:
    """The (V4) sums n * mu through per-character trace rows: one char_value
    per class, one trace per entry and rotation, for every character."""
    entries = list(pa.entries())
    pairs = [(d, cls) for d, cls, _v in entries]
    values = [v for _d, _cls, v in entries]
    sums = tuple(
        (chi.label, tuple(sum(map(mul, values, row)) for row in trace_rows(pa.frame, chi, pairs)))
        for chi in characters
    )
    return V4Report(pa.n, sums)


def unit_table(n: int, d: int, exp: int) -> list:
    """The real half of K (help_core's module docstring) of the one entry
    (d, g0^exp, 1): row h <= n / 2 is the pair row K[h] + K[-h] at l <= n / 2,
    halved where h = -h mod n, with K[h][l] = c_{n/d}(exp * h / d - l).

    K[h] is n * mu(zeta_n^l) of the linear character lambda_h: g0^i -> zeta_n^(h i),
    whose value at g0^exp descends to zeta_{n/d}^(exp h / d) on level d.
    """
    m = n // d
    k = exp // d
    shifts = _folded_shifts(m, n)
    # where h = -h mod n, row h summed K[h] twice
    return [
        [a // 2 for a in shifts[k * h % m]] if 2 * h % n == 0 else shifts[k * h % m]
        for h in range(n // 2 + 1)
    ]


def dense_mu_sums(counts, table) -> list[int]:
    """sum_h counts[h] * table[h], entrywise, as one dot product over h per
    column: the kernel help_core used before it split the counts into their
    most common value and a residual."""
    return [sum(map(mul, counts, column)) for column in zip(*table)]


def dense_constraint_rows(frame, characters) -> list[tuple]:
    """(label, l, coeffs, const, upper) of every constraint row, the coefficient
    of x = (d, cls) being dense_mu_sums of H = eigen_counts(chi) over x's unit
    table K_x[h][l] = c_{n/d}(exp_x h / d - l), c_m(k) = Tr(zeta_m^k)."""
    n = frame.m
    tables = [
        [[trace_root(n // d, cls.exp // d * h - l) for l in range(n)] for h in range(n)]
        for d, cls in variable_layout(frame).variables
    ]
    out = []
    for chi in characters:
        counts = eigen_counts(frame, chi)
        sums = [dense_mu_sums(counts, table) for table in tables]
        deg = chi.degree(frame)
        out.extend((chi.label, l, tuple(s[l] for s in sums), deg, n * deg) for l in range(n))
    return out


def sweep_frames():
    """Every frame (q, m) of PSL(2,q) of order m >= 2, q an odd prime power in [5, 53]:
    98 frames, f = 2 at q = 9, 25 and 49 and f = 3 at q = 27."""
    for q in range(5, 54, 2):
        if len(prime_factorization(q)) > 1:
            continue
        for m in range(2, q):
            if (q - 1) % (2 * m) == 0 or (q + 1) % (2 * m) == 0:
                yield q, m


def check_brauer_items(seed: int) -> list[PADistribution]:
    """The 44 distributions of the check-brauer benchmark workload: the TPA and
    exceptional distributions of the frames (43, 22) and (53, 26), each followed
    by its seeded level-1 perturbation, +1 on one class and -1 on another, both
    where eps_1 is 0."""
    rng = random.Random(seed)
    items = []
    for q, n in ((43, 22), (53, 26)):
        frame = make_frame(make_context(q), n)
        for pa in [*tpa_set(frame), *exceptional_set(frame, n // 2)]:
            items.append(pa)
            free = [cls for cls in frame.classes() if cls.exp and not pa.value(1, cls)]
            plus, minus = rng.sample(free, 2)
            levels = {
                d: {cls: pa.value(d, cls) for cls in frame.classes()}
                for d in {d for d, _c, _v in pa.entries()} | {1}
            }
            levels[1][plus] += 1
            levels[1][minus] -= 1
            items.append(PADistribution(frame, levels))
    return items


def perturb_level_1(pa, rng):
    """pa with +1 and -1 added on two distinct non-identity level-1 classes."""
    up, down = rng.sample([cls for cls in pa.frame.classes() if cls.exp], 2)
    levels: dict = {}
    for d, cls, v in pa.entries():
        levels.setdefault(d, {})[cls] = v
    row = levels.setdefault(1, {})
    row[up] = row.get(up, 0) + 1
    row[down] = row.get(down, 0) - 1
    return PADistribution(pa.frame, levels)


def mu1_accumulated_form(pa, chi, r: int, t: int) -> Fraction:
    """Closed form for mu(1) from the accumulated level-1 augmentations.

    Requires n = r t with the levels r and t concentrated on a single class
    of order t resp. r with value 1; traces of equal-order classes agree,
    which collapses the level-1 sum to the three accumulated values.
    """
    n = pa.n
    if not (is_prime(r) and is_prime(t)) or r == t or n != r * t:
        raise ValueError("requires n = r * t for distinct primes r and t")
    level_r = [(cls, v) for d, cls, v in pa.entries() if d == r]
    level_t = [(cls, v) for d, cls, v in pa.entries() if d == t]
    if len(level_r) != 1 or level_r[0][1] != 1 or level_r[0][0].order != t:
        raise ValueError("level r is not concentrated on one order-t class with value 1")
    if len(level_t) != 1 or level_t[0][1] != 1 or level_t[0][0].order != r:
        raise ValueError("level t is not concentrated on one order-r class with value 1")
    cls_t = level_r[0][0]
    cls_r = level_t[0][0]
    cls_rt = pa.frame.class_of(1)

    def big(cls) -> int:
        return char_value(pa.frame, chi, cls).trace()

    t_sub_t = char_value(pa.frame, chi, cls_t).descend(r).trace()
    t_sub_r = char_value(pa.frame, chi, cls_r).descend(t).trace()
    total = (
        accumulated(pa, 1, n) * big(cls_rt)
        + accumulated(pa, 1, t) * big(cls_t)
        + accumulated(pa, 1, r) * big(cls_r)
        + t_sub_r
        + t_sub_t
        + chi.degree(pa.frame)
    )
    return Fraction(total, n)


class ProbedDistribution:
    """A distribution as the library once stored it: a nested dict d -> {class:
    value} of the nonzero values, read by a probe per (d, class).  value(),
    entries() and violations() are that code verbatim; no structure is checked."""

    def __init__(self, frame, levels):
        self.frame = frame
        self._levels = {}
        for d, row in levels.items():
            for cls, v in row.items():
                if v:
                    self._levels.setdefault(d, {})[cls] = v

    @property
    def n(self) -> int:
        return self.frame.m

    def value(self, d, cls) -> int:
        return self._levels.get(d, {}).get(cls, 0)

    def entries(self):
        for d in sorted(self._levels):
            row = self._levels[d]
            for cls in sorted(row, key=lambda c: c.exp):
                yield d, cls, row[cls]

    def violations(self) -> list[str]:
        out = []
        n = self.n
        for d in divisors(n):
            total = sum(self.value(d, cls) for cls in self.frame.classes())
            if total != 1:
                out.append(f"V1: level d={d} sums to {total}, expected 1")
        for d, cls, v in self.entries():
            if d != n and cls.exp == 0:
                out.append(f"V2: eps_{d}(1) = {v}, expected 0")
            if (n // d) % cls.order:
                out.append(
                    f"V3: eps_{d} is nonzero at a class of order {cls.order}, "
                    f"which does not divide n/d = {n // d}"
                )
        return out


def levels_distribution(layout, values) -> PADistribution:
    """The distribution of layout values plus eps_n(1) = 1, through the validating
    PADistribution(frame, levels): a dict of the nonzero values per level."""
    frame = layout.frame
    levels = {frame.m: {frame.identity: 1}}
    for (d, cls), v in zip(layout.variables, values):
        if v:
            levels.setdefault(d, {})[cls] = v
    return PADistribution(frame, levels)


def probed_power_distribution(pa, m: int) -> PADistribution:
    """power_distribution by probing every (level, class) pair, summing merged classes."""
    n = pa.n
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide the order {n}")
    k = n // m
    sub = make_frame(pa.frame.ctx, m)
    levels = {}
    for d in divisors(m):
        row = {}
        for cls in pa.frame.classes():
            v = pa.value(d * k, cls)
            if v:
                if cls.exp % k:
                    raise ValueError("distribution breaks (V3); cannot take powers")
                target = sub.class_of(cls.exp // k)
                row[target] = row.get(target, 0) + v
        if row:
            levels[d] = row
    return PADistribution(sub, levels)


def probed_relabel(pa, c: int) -> PADistribution:
    """relabel adding the values that land on one class."""
    n = pa.n
    if gcd(c, n) != 1:
        raise ValueError(f"{c} is not coprime to the order {n}")
    levels = {}
    for d, cls, v in pa.entries():
        target = pa.frame.class_of(c * cls.exp)
        levels.setdefault(d, {})[target] = levels.setdefault(d, {}).get(target, 0) + v
    return PADistribution(pa.frame, levels)


def naive_box_scan(system, box):
    """Exhaustive integer scan of a bounds box against the raw row semantics."""
    n = system.frame.m
    levels: dict[int, list[int]] = {}
    for idx, (d, _cls) in enumerate(system.layout.variables):
        levels.setdefault(d, []).append(idx)
    hits = []
    ranges = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    for point in itertools.product(*ranges):
        if any(sum(point[i] for i in idxs) != 1 for idxs in levels.values()):
            continue
        ok = True
        for row in system.rows:
            s = row.const + sum(a * x for a, x in zip(row.coeffs, point))
            if s < 0 or s % n:
                ok = False
                break
        if ok:
            hits.append(tuple(point))
    return hits


def _simplex_min(A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """min c.y subject to A y = b, y >= 0, by two-phase tableau simplex.

    Bland's rule everywhere, so cycling cannot occur.  Returns
    ("optimal", value), ("infeasible", None) or ("unbounded", None).
    """
    m = len(A)
    nreal = len(c)
    T: list[list[Fraction]] = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(row + art + [rhs])
    basis = list(range(nreal, nreal + m))

    def pivot(r: int, col: int, z: list[Fraction]) -> None:
        piv = T[r][col]
        T[r] = [x / piv for x in T[r]]
        for i in range(m):
            if i != r and T[i][col]:
                f = T[i][col]
                T[i] = [x - f * y for x, y in zip(T[i], T[r])]
        if z[col]:
            f = z[col]
            z[:] = [x - f * y for x, y in zip(z, T[r])]
        basis[r] = col

    def reduced_costs(cost: list[Fraction]) -> list[Fraction]:
        z = list(cost) + [Fraction(0)] * (len(T[0]) - len(cost))
        for r, bv in enumerate(basis):
            if z[bv]:
                f = z[bv]
                z = [x - f * y for x, y in zip(z, T[r])]
        return z

    def optimize(z: list[Fraction]) -> str:
        while True:
            col = next((j for j in range(nreal) if z[j] < 0), None)
            if col is None:
                return "optimal"
            best = None
            for i in range(m):
                a = T[i][col]
                if a > 0:
                    key = (T[i][-1] / a, basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return "unbounded"
            pivot(best[1], col, z)

    # phase 1: minimize the artificial sum
    z1 = reduced_costs([Fraction(0)] * nreal + [Fraction(1)] * m)
    optimize(z1)
    if -z1[-1] != 0:
        return "infeasible", None
    # drive leftover artificials out of the basis; drop redundant rows
    for r in range(m - 1, -1, -1):
        if basis[r] >= nreal:
            col = next((j for j in range(nreal) if T[r][j]), None)
            if col is None:
                del T[r]
                del basis[r]
                m -= 1
            else:
                pivot(r, col, z1)

    z2 = reduced_costs(list(c))
    status = optimize(z2)
    if status == "unbounded":
        return "unbounded", None
    return "optimal", -z2[-1]


def fraction_rank(rows) -> int:
    """Rank over Q by textbook Gaussian elimination in Fraction arithmetic."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        pivot = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][col] / M[rank][col]
            M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def two_phase_pair(system, i: int) -> tuple[int, int] | None:
    """Variable i's (lo, hi) bound by one cold two-phase simplex per LP, or
    None when the relaxation is empty."""
    relaxation = _relaxation(system)
    G: list[tuple[int, ...]] = []
    h: list[int] = []
    for c in relaxation.rows + relaxation.levels:
        G += [tuple(-a for a in c.coeffs), c.coeffs]
        h += [c.const - c.lo, c.hi - c.const]
    nvars = len(system.layout)
    A = [[Fraction(g[j]) for g in G] for j in range(nvars)]
    cost = [Fraction(x) for x in h]
    hi_lo = []
    for sense in (1, -1):
        b = [Fraction(sense if j == i else 0) for j in range(nvars)]
        status, value = _simplex_min(A, b, cost)
        if status == "infeasible":
            raise RankDeficientError("unbounded relaxation: augment the character family")
        if status == "unbounded":
            return None
        hi_lo.append(sense * floor(value))
    return hi_lo[1], hi_lo[0]


def two_phase_bounds(system) -> BoundsBox:
    """derive_bounds by the primal LPs max and min x_i, which share one feasible region.

    Each distinct row 0 <= const + a.x <= upper of system.rows and each
    level equation sum = 1 is two inequalities g.x <= b with slacks
    s = b - g.x >= 0; nothing is substituted.  The tableau is a dictionary
    in Fractions, basic + T.nonbasic = rhs, that stores only the nonbasic
    columns; the variables are numbered x_0 .. x_(nvars-1), then the slacks.
    Every x_i is free: it enters first, by Gauss-Jordan, and never leaves,
    so its row reads x_i = rhs - T.slacks and is the objective of both its
    LPs.  Phase 1 runs once per system: the dual simplex under zero cost,
    whose every basis is dual feasible, until no slack is negative; a
    negative row with no negative entry shows the region empty.  Then each
    LP, max x_0, min x_0, max x_1, ..., runs the primal simplex from the
    previous optimum.  Bland's rule everywhere.  two_phase_pair is the cold
    dual of one variable's pair.
    """
    nvars = len(system.layout)
    empty = BoundsBox(lo=(0,) * nvars, hi=(-1,) * nvars)
    conds = [(c, k, 0, u) for c, k, u in dict.fromkeys(
        (r.coeffs, r.const, r.upper) for r in system.rows)]
    for idxs in system.layout.level_indices().values():
        conds.append((tuple(int(i in idxs) for i in range(nvars)), 0, 1, 1))
    T: list[list[Fraction]] = []
    for coeffs, const, lo, hi in conds:
        T.append([Fraction(a) for a in coeffs] + [Fraction(hi - const)])
        T.append([Fraction(-a) for a in coeffs] + [Fraction(const - lo)])
    basis = list(range(nvars, nvars + len(T)))
    slots = list(range(nvars))

    def pivot(r: int, j: int) -> None:
        row, p = T[r], T[r][j]
        T[r] = [x / p for x in row]
        T[r][j] = 1 / p
        for i, other in enumerate(T):
            f = other[j]
            if i != r and f:
                T[i] = [x - f * y for x, y in zip(other, T[r])]
                T[i][j] = -f / p
        basis[r], slots[j] = slots[j], basis[r]

    for j in range(nvars):
        r = next((r for r, bv in enumerate(basis) if bv >= nvars and T[r][j]), None)
        if r is None:
            raise RankDeficientError("unbounded relaxation: augment the character family")
        pivot(r, j)
    # phase 1: the least negative slack leaves, the least column negative there enters
    while negative := [(bv, r) for r, bv in enumerate(basis) if bv >= nvars and T[r][-1] < 0]:
        r = min(negative)[1]
        entering = [(v, j) for j, v in enumerate(slots) if T[r][j] < 0]
        if not entering:
            return empty
        pivot(r, min(entering)[1])
    lo, hi = [], []
    for i in range(nvars):
        for sense, bounds in ((1, hi), (-1, lo)):
            while True:
                # sense * x_i grows with the slack of column j where sense * row[j] < 0
                row = T[basis.index(i)]
                entering = [(v, j) for j, (v, a) in enumerate(zip(slots, row)) if sense * a < 0]
                if not entering:
                    break
                j = min(entering)[1]
                ratios = [(T[r][-1] / T[r][j], bv, r)
                          for r, bv in enumerate(basis) if bv >= nvars and T[r][j] > 0]
                if not ratios:
                    raise RankDeficientError("unbounded relaxation")
                pivot(min(ratios)[2], j)
            value = T[basis.index(i)][-1]
            bounds.append(floor(value) if sense > 0 else -floor(-value))
    if any(a > b for a, b in zip(lo, hi)):
        return empty
    return BoundsBox(lo=tuple(lo), hi=tuple(hi))


def constant_rows_hold(system) -> bool:
    """Whether every row of system.rows with zero coefficients holds:
    0 <= const <= upper and const = 0 mod n."""
    return all(
        0 <= r.const <= r.upper and r.const % system.n == 0
        for r in system.rows
        if not any(r.coeffs)
    )


class Condition(NamedTuple):
    """lo <= const + coeffs.x <= hi, and const + coeffs.x = 0 mod n if modn:
    the oracles' own form of the library's rows (modn) and level equations."""

    coeffs: tuple[int, ...]
    const: int
    lo: int
    hi: int
    modn: bool


def naive_search(system, box, budget):
    """The per-candidate DFS the library used before interval propagation.

    Tests every value of every level against every touching condition;
    returns (solution vectors, node count).
    """
    n = system.n
    nvars = len(system.layout)
    relaxation = _relaxation(system)
    if not constant_rows_hold(system):
        return [], 0
    if nvars == 0:
        return [()], 0

    conds = [Condition(*r, True) for r in relaxation.rows if any(r.coeffs)]
    conds += [Condition(*e, False) for e in relaxation.levels if any(e.coeffs)]
    ncond = len(conds)
    last_var = [max(i for i, a in enumerate(c.coeffs) if a) for c in conds]
    # static suffix ranges of sum_{j >= k} a_j x_j over the box
    sufmin = [[0] * (nvars + 1) for _ in range(ncond)]
    sufmax = [[0] * (nvars + 1) for _ in range(ncond)]
    for ci, cond in enumerate(conds):
        for k in range(nvars - 1, -1, -1):
            a = cond.coeffs[k]
            terms = (a * box.lo[k], a * box.hi[k])
            sufmin[ci][k] = sufmin[ci][k + 1] + min(terms)
            sufmax[ci][k] = sufmax[ci][k + 1] + max(terms)
    touches = [
        [(ci, conds[ci].coeffs[k]) for ci in range(ncond) if conds[ci].coeffs[k]]
        for k in range(nvars)
    ]
    values = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]

    partial = [c.const for c in conds]
    point = [0] * nvars
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def descend(k: int) -> None:
        nonlocal nodes
        if k == nvars:
            solutions.append(tuple(point))
            return
        for v in values[k]:
            nodes += 1
            if nodes > budget:
                raise SearchIncomplete(nodes, budget)
            ok = True
            for ci, a in touches[k]:
                s = partial[ci] + a * v
                cond = conds[ci]
                if last_var[ci] == k:
                    if s < cond.lo or s > cond.hi or (cond.modn and s % n):
                        ok = False
                        break
                else:
                    if s + sufmax[ci][k + 1] < cond.lo or s + sufmin[ci][k + 1] > cond.hi:
                        ok = False
                        break
            if not ok:
                continue
            point[k] = v
            for ci, a in touches[k]:
                partial[ci] += a * v
            descend(k + 1)
            for ci, a in touches[k]:
                partial[ci] -= a * v

    descend(0)
    return solutions, nodes


def raw_rows_search(system, box, budget):
    """enumerate_solutions' search as it was before it read the relaxation's
    merged rows: _search over the system's distinct rows and level equations,
    permuted into _search_order, so every row is substituted again and keeps
    its singleton levels' coefficients; returns (kept vectors in search order,
    node count).  It passes the group enumerate_solutions passes: the unit
    permutations that keep the set of distinct rows and the box, on the
    search positions."""
    relaxation = _relaxation(system)
    order = _search_order(system.layout, box)
    rows, levels = (
        tuple(c._replace(coeffs=tuple(c.coeffs[i] for i in order)) for c in conds)
        for conds in (relaxation.rows, relaxation.levels)
    )
    searched = BoundsBox(tuple(box.lo[i] for i in order), tuple(box.hi[i] for i in order))
    distinct = set(relaxation.rows)
    group = tuple(
        tuple(order.index(perm[i]) for i in order)
        for perm in system.layout.unit_permutations()
        if all((tuple(r.coeffs[j] for j in perm), *r[1:]) in distinct for r in distinct)
        and all(box.lo[j] == box.lo[i] and box.hi[j] == box.hi[i] for i, j in enumerate(perm))
    )
    return _search(rows, levels, system.n, searched, budget, group)


# The library's level substitution as it was when it also added a box
# condition per level; interval_search runs this copy, so that the oracle
# does not change with the kernel it checks.
def _substitute_levels(
    system: ConstraintSystem, rows: list, box: BoundsBox
) -> tuple[list[Condition], bool]:
    """The rows with each level's last variable x_j eliminated by its (V1) equation.

    On sum(level) = 1, x_j = 1 - sum(the level's other variables), so the row
    const + a.x equals const + a_j + (a - a_j 1_level).x with x_j's
    coefficient 0: its bounds and congruence carry over unchanged.  x_j keeps
    its box through one condition box.lo[j] <= 1 - sum(others) <= box.hi[j]
    per level.  Returns (the distinct non-constant rows followed by those
    conditions, whether every row that became constant holds).
    """
    nvars = len(system.layout)
    levels = [idxs for idxs in system.layout.level_indices().values() if len(idxs) > 1]
    out, consistent = [], True
    for row in rows:
        coeffs, const = list(row.coeffs), row.const
        for *others, j in levels:
            a = coeffs[j]
            if a:
                for i in others:
                    coeffs[i] -= a
                coeffs[j] = 0
                const += a
        if any(coeffs):
            out.append(Condition(tuple(coeffs), const, row.lo, row.hi, True))
        elif not row.lo <= const <= row.hi or const % system.n:
            consistent = False
    out = list(dict.fromkeys(out))
    for *others, j in levels:
        coeffs = tuple(-1 if i in others else 0 for i in range(nvars))
        out.append(Condition(coeffs, 1, box.lo[j], box.hi[j], False))
    return out, consistent


def interval_search(system, box, budget):
    """The interval DFS the library used before the culprit-first bound order
    and the stepped congruences; returns (solution vectors, node count).

    Every condition is linear in the next variable, so the values it admits
    at a node form one integer interval.  The rows are searched with each
    level's last variable substituted out (_substitute_levels): a row then
    bounds the level's earlier variables by the level equation rather than
    the box reach of the last one, and that last variable's single value is
    forced by its level equation.  The congruences are the library's Howell
    form (_howell) of the unsubstituted rows and the level equations mod n:
    each value of level k is tested against the row leading at x_k, its sum
    read from point.
    """
    n = system.n
    nvars = len(system.layout)
    relaxation = _relaxation(system)
    rows, holds = _substitute_levels(system, relaxation.rows, box)
    form = _howell(
        [[*r.coeffs[::-1], r.const] for r in relaxation.rows]
        + [[*r.coeffs[::-1], -1] for r in relaxation.levels],
        n,
    )
    if not (constant_rows_hold(system) and holds) or nvars in form:
        return [], 0
    if nvars == 0:
        return [()], 0

    conds = rows + list(relaxation.levels)
    # x_k >= ceil((b - p) / a) for each (ci, a, b) in lower[k], x_k <= floor
    # of the same for each in upper[k]: p is partial sum ci, b a bound of its
    # condition less the reach of its later variables.  A bound no partial
    # sum in the box can push into the box is left out, and a condition left
    # with no bound keeps no partial sum.  moves[k] are the sums x_k changes
    # that have a later variable.
    lower, upper, moves = ([[] for _ in range(nvars)] for _ in range(3))
    starts = []
    for cond in conds:
        ci = len(starts)
        cuts = False
        reach = [sorted((a * lo, a * hi)) for a, lo, hi in zip(cond.coeffs, box.lo, box.hi)]
        pmin = pmax = cond.const
        smin, smax = (sum(r) for r in zip(*reach))
        for k, a in enumerate(cond.coeffs):
            rmin, rmax = reach[k]
            smin, smax = smin - rmin, smax - rmax
            if not a:
                continue
            if pmin + rmin + smax < cond.lo:
                (lower if a > 0 else upper)[k].append((ci, a, cond.lo - smax))
                cuts = True
            if pmax + rmax + smin > cond.hi:
                (upper if a > 0 else lower)[k].append((ci, a, cond.hi - smin))
                cuts = True
            pmin, pmax = pmin + rmin, pmax + rmax
        if cuts:
            starts.append(cond.const)
            *terms, _last = [(k, a) for k, a in enumerate(cond.coeffs) if a]
            for k, b in terms:
                moves[k].append((ci, b))
    # the row leading at x_k, in the columns x_(nvars-1) .. x_0, 1, if any
    leading = [form.get(nvars - 1 - k) for k in range(nvars)]
    plan = list(zip(box.lo, box.hi, lower, upper, moves, leading))

    point = [0] * nvars
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def descend(k: int, partial: list[int]) -> None:
        nonlocal nodes
        if k == nvars:
            solutions.append(tuple(point))
            return
        lo, hi, lows, highs, move, row = plan[k]
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise SearchIncomplete(nodes, budget)
        for ci, a, b in highs:
            t = (b - partial[ci]) // a
            if t < hi:
                if t < lo:
                    return
                hi = t
        for ci, a, b in lows:
            t = -((partial[ci] - b) // a)
            if t > lo:
                if t > hi:
                    return
                lo = t
        for v in range(lo, hi + 1):
            if row and sum(map(mul, row[::-1], [1, *point[:k], v])) % n:
                continue
            point[k] = v
            child = partial.copy()
            for ci, a in move:
                child[ci] += a * v
            descend(k + 1, child)

    try:
        descend(0, starts)
    finally:
        del descend
    return solutions, nodes
