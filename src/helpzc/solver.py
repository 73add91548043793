"""Complete enumeration of the integer solutions of a HeLP constraint system.

The pipeline is: check that the distinct character rows and the (V1)
level equations have full column rank, bound every variable by exact
linear programming, then run a depth-first search over the integer box.
The search takes the levels from the highest divisor d down, and within a
level the variables from the narrowest box to the widest, ties by layout
index.  It reads the relaxation's rows, merged to one per direction by
the LP's (V1) substitution (_substitute_rows), a singleton level at its
value 1, and puts each level's last, widest, variable in its own order
out of them again: a row then bounds the level's earlier variables
without the box reach of the last one, and the search never branches on
it.  The LP's variable, the last by layout index, would cost 37 times the
nodes at paper (289,12).  At each node interval propagation gives the
next variable's range.  The rows' mod-n congruences and the level
equations make one module mod n, taken once to its Howell form: at most
one row per variable, which fixes the variable mod a divisor of n given
the earlier ones, so the value loop steps over that class.  A node tries
its first upper bound, then the lower bound that last emptied its range,
so most dead ends cost one or two divisions.  The search keeps one
solution per orbit of the group below and adds the others after it.
The node count adds every candidate value of the box range at each node
of that tree, pruned or stepped over or not; that count is what the
budget bounds.  The search runs in one process and stops at the first
count past the budget.
Everything is exact; the search either finishes with the complete
solution set or fails loudly when the node budget runs out.

The per-variable LPs are solved through the dual: the primal has few
variables and hundreds of rows, so the dual tableau has one row per
primal variable and stays tiny.  Each level's (V1) equation first
substitutes the level's last variable out of the rows, so the LP has one
variable fewer per level and no level equation.  Rows on one form a.x,
as a or -a and with any constant, merge into one condition lo <= a.x <= hi
on the intersection of their intervals, one dual column, a or -a as
needed.  The system's Gauss-Jordan elimination of [A^T | I] over the
conditions gives the start basis.  The LPs share their cost and
differ only in the right-hand side, so every LP, the first included,
starts in the dual phase: dual simplex under Bland's rule from the
start basis or the previous optimum, which stays dual feasible.  The
tableau holds only the elimination's basis at first, and so stores no
column: the first dual phase only flips the bounds of basic variables.
After each optimum the omitted conditions are priced against it, and
the most violated one is appended and the primal simplex resumed, until
none prices in.  Most conditions never enter.  All of it is
integer-preserving: an int tableau over one common denominator whose
every pivot divides exactly (Bareiss).  The tableau is condensed: a basic
column is den times a unit vector, so only the nonbasic columns are
stored, and a pivot is an exchange, in which the entering column's place
takes the leaving variable.  The elimination starts from the I block
alone and builds a condition's column, as the I block times its a, only
to pivot on it.  Bland's rule reads each variable's number, fixed when
it joins the tableau, never where its column is stored.

The frame automorphisms g0^i -> g0^(u i) permute the variables.  Those
that map the set of rows onto itself map the relaxation and the solution
set onto themselves, and one group of them serves the LP and the search.
The LP bounds are equal on each orbit of variables: one LP pair (max and
min) is solved per orbit, not per variable.  The check is mechanical; a
system without the symmetry solves one pair per variable.

The relaxation is bounded exactly when the rows and the level equations
together have full column rank, and one gate checks it: derive_bounds
raises RankDeficientError when rank_check reads a lower rank.  It never
extends the family.  Each system's relaxation (its distinct and merged
rows, level equations, the LP's conditions and their one elimination,
the symmetry group) is
built once, on first use, and kept on the system object (_prepared);
rank_check, derive_bounds and the search all read it.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd
from operator import itemgetter, mul
from typing import NamedTuple

from .help_core import (
    ConstraintSystem,
    PADistribution,
    SolutionSet,
    VariableLayout,
    build_constraints,
    distributions_from_vectors,
)
from .psl2 import CharRestriction, CyclicFrame, brauer_irreducibles

DEFAULT_NODE_BUDGET = 10_000_000


class SearchIncomplete(Exception):
    """The node budget was exhausted before the search space was covered."""

    def __init__(self, node_count: int, budget: int):
        super().__init__(
            f"enumeration incomplete: node budget {budget} exhausted after "
            f"{node_count} nodes"
        )
        self.node_count = node_count
        self.budget = budget


class RankDeficientError(ValueError):
    """The relaxation is unbounded; the character family must be extended."""


class SimplexStallError(RuntimeError):
    """An LP phase passed _ITERATIONS_PER_ROW iterations per basis row: a defect, not bad input."""


# about 150 times the most per phase call measured: 174 for the 27 rows of brauer-p (61,30)
_ITERATIONS_PER_ROW = 1_000


class BoundsBox(NamedTuple):
    """Per-variable closed integer intervals enclosing the LP relaxation; lo > hi if empty."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def volume(self) -> int:
        out = 1
        for a, b in zip(self.lo, self.hi):
            out *= max(0, b - a + 1)
        return out


class EnumerationReport(NamedTuple):
    """The solutions in the box bounds, the search's node count and the rank.

    rank is that of the rows and level equations together (rank_check).  The
    family is solutions.family; complete is False only for a direct
    enumerate_solutions call on a system of deficient rank, whose relaxation
    is unbounded (derive_bounds rejects it).
    """

    solutions: SolutionSet
    node_count: int
    bounds: BoundsBox
    rank: int

    @property
    def complete(self) -> bool:
        return self.rank == len(self.bounds.lo)


class SetDiff(NamedTuple):
    only_found: tuple[PADistribution, ...]
    only_expected: tuple[PADistribution, ...]

    @property
    def equal(self) -> bool:
        return not self.only_found and not self.only_expected


def compare_sets(found: SolutionSet, expected: SolutionSet) -> SetDiff:
    """Symmetric difference by canonical form; both sets must share (q, n)."""
    if len({(pa.q, pa.n) for pa in (*found, *expected)}) > 1:
        raise ValueError("solution sets live on different (q, n)")
    fs, es = set(found), set(expected)
    return SetDiff(
        only_found=SolutionSet.build(fs - es).distributions,
        only_expected=SolutionSet.build(es - fs).distributions,
    )


# ------------------------------------------------------------------ relaxation


class _Condition(NamedTuple):
    """lo <= const + coeffs.x <= hi; a row also has const + coeffs.x = 0 mod n.

    A row or level equation, before or after the (V1) substitution
    (_substitute_rows); it equals and hashes as the plain tuple (coeffs, const, lo, hi).
    """

    coeffs: tuple[int, ...]
    const: int
    lo: int
    hi: int


class _Bound(NamedTuple):
    """lo <= coeffs.x <= hi, its rows' intervals intersected: lo > hi if they are disjoint."""

    coeffs: tuple[int, ...]
    lo: int
    hi: int


class _Relaxation(NamedTuple):
    """The relaxation of a system, reduced by its level equations, and its one elimination.

    rows are the distinct character rows 0 <= const + coeffs.x <= upper,
    = 0 mod n, constant ones included; levels are the (V1) equations sum = 1,
    one per level.  The LP has each level's last variable, by layout index,
    substituted out as 1 - sum(its level mates): its variables y are the
    others, and x_i = offset + c.y for (c, offset) = images[i].  directions,
    the search's rows, are the rows with it put in (_substitute_rows);
    reduced, the LP's conditions, are those on y less their constants; holds
    is whether every constant row has lo <= const <= hi and every condition lo <= hi.
    T / den is the I block of [A^T | I] after Gauss-Jordan elimination
    (_eliminate), A the matrix of reduced: den * B^-1 for the basis B it
    found; the condition columns are not stored, as each is T times its
    a.  basis holds each T row's pivot, an index into reduced, None where
    the row is zero on every condition.  Readers copy T and never write it.
    group holds the unit permutations that keep rows (_symmetries).
    """

    rows: tuple[_Condition, ...]
    levels: tuple[_Condition, ...]
    directions: tuple[_Condition, ...]
    reduced: tuple[_Bound, ...]
    images: tuple[tuple[tuple[int, ...], int], ...]
    holds: bool
    T: list[list[int]]
    basis: tuple[int | None, ...]
    den: int
    group: tuple[tuple[int, ...], ...]


def _substitute(coeffs: tuple[int, ...], const: int, members: list) -> tuple[tuple[int, ...], int]:
    """const + coeffs.x with x_j = 1 - sum(others) put in for each (*others, j) of members."""
    coeffs = list(coeffs)
    for *others, j in members:
        a = coeffs[j]
        if a:
            for i in others:
                coeffs[i] -= a
            coeffs[j] = 0
            const += a
    return tuple(coeffs), const


def _substitute_rows(
    rows: tuple[_Condition, ...], members: list
) -> tuple[tuple[_Condition, ...], bool]:
    """The rows with x_j = 1 - sum(others) put in for each (*others, j) of members (_substitute).

    On the (V1) hyperplane a row const + a.x equals const + a_j +
    (a - a_j 1_level).x, x_j's coefficient 0, so its bounds and congruence
    carry over unchanged.  Returns (one row per direction up to sign, in
    first-occurrence order and orientation, with the first row's constant
    and its rows' intervals shifted to it and intersected, then, unless g =
    0, the row (0, g, g, g), g the gcd of the constants of the rows left
    constant and of the differences in constant along each direction, then
    each row left constant out of its bounds, as it is: rows that span the
    rows' congruences mod n; whether there is no such row).
    """
    merged, broken, g = {}, [], 0
    for coeffs, const, lo, hi in rows:
        coeffs, const = _substitute(coeffs, const, members)
        if not any(coeffs):
            g = gcd(g, const)
            if not lo <= const <= hi:
                broken.append(_Condition(coeffs, const, lo, hi))
            continue
        if (flipped := tuple(-a for a in coeffs)) in merged:
            coeffs, const, lo, hi = flipped, -const, -hi, -lo
        first, was_lo, was_hi = merged.get(coeffs, (const, lo, hi))
        g = gcd(g, first - const)
        merged[coeffs] = first, max(was_lo, lo + first - const), min(was_hi, hi + first - const)
    constant = [_Condition((0,) * len(coeffs), g, g, g)] if g else []
    return (*[_Condition(a, *b) for a, b in merged.items()], *constant, *broken), not broken


def _relaxation(system: ConstraintSystem) -> _Relaxation:
    """Build the system's relaxation, reduce and eliminate it; _prepared calls it once per system.

    The rows are deduplicated as plain (coeffs, const, upper) tuples, in
    first-occurrence order, before any _Condition is built.  Most rows
    repeat: rows l and -l of a character agree, as its values on <g0> are
    real, and characters share rows.  The 616 rows of verify-main's four
    systems make 156 distinct ones.  Each level's last variable, a
    singleton level's too, is substituted out of the rows, and the rows
    on one direction up to sign merge (_substitute_rows): 20/28/36/52
    make 7/14/22/34 conditions there, projected onto the kept variables.
    The rows left constant join one row (0, g, g, g), which never pivots;
    one out of its bounds stays as it is, for the search's own check.
    """
    nvars = len(system.layout)
    distinct = dict.fromkeys((r.coeffs, r.const, r.upper) for r in system.rows)
    rows = tuple(_Condition(coeffs, const, 0, upper) for coeffs, const, upper in distinct)
    members = [idxs for _d, idxs in sorted(system.layout.level_indices().items())]
    levels = tuple(
        _Condition(tuple(int(i in idxs) for i in range(nvars)), 0, 1, 1)
        for idxs in members
    )
    kept = sorted(set(range(nvars)).difference(idxs[-1] for idxs in members))
    images = []
    for j in range(nvars):
        a, const = _substitute(tuple(int(i == j) for i in range(nvars)), 0, members)
        images.append((tuple([a[i] for i in kept]), const))
    directions, holds = _substitute_rows(rows, members)
    reduced = tuple(
        _Bound(tuple([a[i] for i in kept]), lo - c, hi - c) for a, c, lo, hi in directions if any(a)
    )
    holds = holds and all(c.lo <= c.hi for c in reduced)
    T = [[int(j == i) for j in kept] for i in kept]
    basis, den = _eliminate(T, reduced)
    return _Relaxation(
        rows, levels, directions, reduced, tuple(images), holds, T, tuple(basis), den,
        _symmetries(system.layout, rows),
    )


def _prepared(system: ConstraintSystem) -> _Relaxation:
    """The system's _relaxation, built on first use and kept on the system object.

    rank_check, derive_bounds and enumerate_solutions all read it, so one
    solve_vpa deduplicates the rows and eliminates once.  The memo sits in
    the object's own __dict__, outside the dataclass fields, so it is keyed
    by identity: an equal system built apart (replace() included) makes
    its own, and the tableau goes with its system.
    """
    relaxation = vars(system).get("_relaxation")
    if relaxation is None:
        relaxation = _relaxation(system)
        object.__setattr__(system, "_relaxation", relaxation)
    return relaxation


# ------------------------------------------------------------------ rank and exact LP


def _pivot(T: list[list[int]], r: int, column: list[int], den: int) -> int:
    """Pivot T / den on row r and return the new denominator.

    The tableau is condensed: it stores no basic column, so the caller
    passes the entering column, column[i] being its entry in row i of T.
    It is a stored column of T in an exchange (_exchange) or the column
    the elimination builds as (I block) . a.
    Every entry of T stays, up to sign, a minor of the starting matrix
    (Bareiss), so each // is exact; row r is negated to keep den positive.
    """
    p = column[r]
    if p < 0:
        T[r] = [-x for x in T[r]]
        p = -p
    prow = T[r]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = column[i]
        if f:
            T[i] = [(p * x - f * y) // den for x, y in zip(row, prow)]
        elif p != den:
            T[i] = [p * x // den for x in row]
    return p


def _exchange(
    T: list[list[int]], r: int, j: int, den: int, slots: list[int], basis: list[int]
) -> int:
    """Pivot T / den on stored column j and row r; return the new den.

    slots[j] enters the basis in row r, and column j takes the leaving
    variable basis[r].  Its column was den * e_r, so with s = -1 where
    row r is negated (s = 1 else) it becomes s * den in row r and -s times
    the entering column's old entry in every other row, the cost row too.
    """
    column = [row[j] for row in T]
    s = 1 if column[r] > 0 else -1
    new = _pivot(T, r, column, den)
    for row, f in zip(T, column):
        row[j] = -s * f
    T[r][j] = s * den
    slots[j], basis[r] = basis[r], slots[j]
    return new


def _eliminate(T: list[list[int]], conds: tuple[_Bound, ...]) -> tuple[list[int | None], int]:
    """Gauss-Jordan on T = I, row by row: each row's pivot condition (or None), and den.

    T is the I block of [A^T | I], A the matrix of conds (the level-reduced
    rows, no level equation), and the condition columns are never stored:
    condition j's entry in a row is that row times its a.  A row pivots on
    the first condition with a nonzero entry, and only that condition's
    column is built.
    """
    pivots, den = [], 1
    for r, trow in enumerate(T):
        col = next((j for j, c in enumerate(conds) if sum(map(mul, trow, c.coeffs))), None)
        if col is not None:
            a = conds[col].coeffs
            den = _pivot(T, r, [sum(map(mul, row, a)) for row in T], den)
        pivots.append(col)
    return pivots, den


def rank_check(system: ConstraintSystem) -> int:
    """Exact rank over Q of the distinct rows and the level equations together.

    The relaxation is bounded exactly when this is the variable count.  The
    level equations have disjoint supports, so it is their count plus the
    pivots of the system's one elimination of the reduced rows (_prepared).
    """
    relaxation = _prepared(system)
    return len(relaxation.levels) + sum(col is not None for col in relaxation.basis)


def _flip(T: list[list[int]], col: int, width: int, den: int) -> None:
    """Switch column col of T / den between a and -a, whose (reduced) costs add up to width."""
    for row in T[:-1]:
        row[col] = -row[col]
    T[-1][col] = den * width - T[-1][col]


def _phase2(
    T: list[list[int]], basis: list[int], slots: list[int], den: int, widths: list[int]
) -> int | None:
    """Resume min c.y from a feasible basis after pricing; return den, None if unbounded.

    T / den is the condensed tableau: one row per basic variable, the
    stored (nonbasic) columns, the I block and the right-hand side, then
    the cost row den * c with the basis priced out.  Variable v stands for
    a or -a of its condition and has width widths[v]; stored column j holds
    variable slots[j], row r variable basis[r].  The other direction of a
    stored column prices in where its reduced cost exceeds den * its width,
    and at most one of the two does, so this is Bland's rule over both, by
    variable, and cycling cannot occur.  The optimum is -T[-1][-1] / den.
    Past _ITERATIONS_PER_ROW pivots per basis row it raises SimplexStallError.
    """
    for _ in range(_ITERATIONS_PER_ROW * len(basis)):
        cost = T[-1]
        enter = min(
            ((v, j) for j, v in enumerate(slots) if cost[j] < 0 or cost[j] > den * widths[v]),
            default=None,
        )
        if enter is None:
            return den
        col = enter[1]
        if cost[col] > 0:
            _flip(T, col, widths[enter[0]], den)
        best = None
        for i, bv in enumerate(basis):
            a = T[i][col]
            # least ratio T[i][-1] / a, cross-multiplied; ties to the least bv
            if a > 0 and (best is None or (T[i][-1] * best[1], bv) < (best[0] * a, best[2])):
                best = (T[i][-1], a, bv, i)
        if best is None:
            return None
        den = _exchange(T, best[3], col, den, slots, basis)
    raise SimplexStallError(f"primal phase past {_ITERATIONS_PER_ROW} pivots per row")


def _dual_phase(
    T: list[list[int]], basis: list[int], slots: list[int], den: int, widths: list[int]
) -> int:
    """Optimise T / den after its right-hand side changed; return the new den.

    Every reduced cost of an optimal tableau lies in [0, den * widths[v]],
    whatever the right-hand side, and the start tableau stores no column,
    so the basis is dual feasible and the dual simplex restores primal
    feasibility.  The leaving row is the one with a negative right-hand
    side and the least basic variable.  A stored column enters as it is
    where its entry a in that row is negative, at ratio cost / -a, or
    flipped where a is positive, at ratio (den * width - cost) / a.  The
    leaving variable's own bound flip is a candidate too, at ratio its
    width: it negates the row and takes the width times the row from the
    cost row, and den and the basis stay.  The least ratio wins, ties to
    the least variable (Bland), so cycling cannot occur, and the flip
    makes every row have a candidate.  Past _ITERATIONS_PER_ROW iterations
    (pivots and flips) per basis row it raises SimplexStallError.
    """
    for _ in range(_ITERATIONS_PER_ROW * len(basis)):
        leave = min(((bv, r) for r, bv in enumerate(basis) if T[r][-1] < 0), default=None)
        if leave is None:
            return den
        bv, r = leave
        row, cost = T[r], T[-1]
        best = (widths[bv], 1, bv, None)
        for j, v in enumerate(slots):
            a = row[j]
            if a < 0:
                num, a = cost[j], -a
            elif a > 0:
                num = den * widths[v] - cost[j]
            else:
                continue
            # least ratio num / a, cross-multiplied; ties to the least variable
            left, right = num * best[1], best[0] * a
            if left < right or (left == right and v < best[2]):
                best = (num, a, v, j)
        col = best[3]
        if col is None:
            T[r] = [-x for x in row]
            w = widths[bv]
            T[-1] = [x - w * y for x, y in zip(cost, T[r])]
            continue
        if row[col] > 0:
            _flip(T, col, widths[best[2]], den)
        den = _exchange(T, r, col, den, slots, basis)
    raise SimplexStallError(f"dual phase past {_ITERATIONS_PER_ROW} iterations per row")


def _symmetries(
    layout: VariableLayout, conds: tuple[_Condition, ...]
) -> tuple[tuple[int, ...], ...]:
    """The unit permutations that keep conds, the identity left out.

    A permutation s keeps conds when reindexing every coefficient vector,
    a -> (a_s(0), a_s(1), ...), maps the set of conditions onto itself.
    Then x -> (x_s(0), x_s(1), ...) maps the relaxation and the solution
    set onto themselves.  Those s form a subgroup of the unit permutations.
    """
    keep = set(conds)
    return tuple(
        perm
        for perm in layout.unit_permutations()
        if all((itemgetter(*perm)(c.coeffs), c.const, c.lo, c.hi) in keep for c in conds)
    )


def _orbit_roots(layout: VariableLayout, group: tuple[tuple[int, ...], ...]) -> list[int]:
    """Each variable's least orbit mate under group (_symmetries): orbit mates share LP bounds."""
    return [min([i, *(perm[i] for perm in group)]) for i in range(len(layout))]


def _price(cost: list[int], waiting: list[_Bound], den: int, ncols: int) -> int | None:
    """The index in waiting of the condition the optimum violates most; None if none is.

    cost is the optimal cost row of T / den, whose I block (from column
    ncols) holds -den * c_B B^-1.  So a condition's reduced cost
    den * hi + (that block) . a is den times its upper slack hi - a.x at
    the primal vertex x.  Below 0 the vertex breaks the upper bound, above
    den * (hi - lo) the lower one; the largest excess wins, ties to the
    earliest condition.
    """
    pi = cost[ncols:]
    best, most = None, 0
    for j, c in enumerate(waiting):
        slack = den * c.hi + sum(map(mul, pi, c.coeffs))
        excess = max(-slack, slack - den * (c.hi - c.lo))
        if excess > most:
            best, most = j, excess
    return best


def _add_column(
    T: list[list[int]], cond: _Bound, den: int, widths: list[int], slots: list[int]
) -> None:
    """Store cond in T / den as its last stored column, direction a, and number it.

    The I block holds den * B^-1, so the new column den * B^-1 a is that
    block times a in every row; in the cost row the same product adds
    -den * c_B B^-1 a to the cost den * hi.  The variable takes the next
    number, len(widths).  The basic solution does not move, so a feasible
    basis stays feasible and _phase2 resumes from it.
    """
    ncols = len(slots)
    for row in T:
        row.insert(ncols, sum(map(mul, row[ncols:], cond.coeffs)))
    T[-1][ncols] += den * cond.hi
    slots.append(len(widths))
    widths.append(cond.hi - cond.lo)


def derive_bounds(system: ConstraintSystem) -> BoundsBox:
    """Exact per-variable LP bounds of the relaxation, rounded inward.

    The LP runs on the level-reduced relaxation (_prepared), whose
    variables y are those left after the substitution: x_i = offset + c.y
    for (c, offset) = images[i].  Each bound max/min c.y over G y <= h is
    solved as its dual min h.z, G^T z = +-c, z >= 0, and offset added; a
    singleton level's x_i (c = 0) is 1 and solves no LP.  G holds each
    condition's a, one per direction, as -a and +a.  The system's one
    Gauss-Jordan elimination of [A^T | I], A the matrix of the conditions,
    gives a start basis.  This is the one rank gate: where rank_check,
    which reads the same elimination, is below the variable count, the
    relaxation is unbounded and RankDeficientError is raised.  A constant
    row that breaks its bounds, or a condition with lo > hi, empties the
    box.  The tableau carries the I block, which holds den * B^-1 for the
    current basis B, so the right-hand side of the LP for +-c is +- the I
    block times c, and the cost row's entry there gives the objective.

    The tableau is condensed (module docstring).  A variable's number is
    its position among the start basis's conditions, in condition order,
    then the order it was priced in, never its column's; the start tableau
    is den * B^-1 and the cost row of the start basis, and stores no column.

    Every condition outside the basis waits.  The LPs form one chain, and
    each starts in the dual phase (_dual_phase): the first from the
    Gauss-Jordan basis, where it only flips bounds, every later one from
    the previous optimal basis, as only the right-hand side changes.
    After each optimum the waiting conditions are priced (_price); the
    most violated one joins the tableau (_add_column) and the primal
    simplex resumes (_phase2), until none prices in.  Then the bound is
    exact over every condition.

    An empty relaxation shows as an unbounded dual, _phase2 returning
    None after pricing, and only the first LP can find it: once nothing
    prices in there, the full relaxation has a point.  The start basis's
    conditions never leave the tableau and have full rank, so every
    restricted relaxation is bounded.

    The LP pair is solved for the least variable of each orbit of the
    relaxation's group (_orbit_roots) and copied to the others; every unit
    permutation maps each level equation to itself.
    """
    nvars = len(system.layout)
    rank = rank_check(system)
    if rank < nvars:
        raise RankDeficientError(
            f"rank-deficient family {system.family}: its distinct rows and level "
            f"equations have rank {rank} for {nvars} variables; augment the character family"
        )
    relaxation = _prepared(system)
    empty = BoundsBox(lo=(0,) * nvars, hi=(-1,) * nvars)
    if not relaxation.holds:
        return empty
    pivots, den, conds = relaxation.basis, relaxation.den, relaxation.reduced
    start = sorted(pivots)
    waiting = [c for j, c in enumerate(conds) if j not in pivots]
    basis = [start.index(c) for c in pivots]
    # rows den * B^-1 and a zero right-hand side; the cost row den * c less
    # hi of each basic condition times its row
    T = [row + [0] for row in relaxation.T]
    h = [conds[c].hi for c in pivots]
    T.append([-sum(map(mul, h, column)) for column in zip(*T)])
    widths, slots = [conds[c].hi - conds[c].lo for c in start], []
    lo, hi = [], []
    roots = _orbit_roots(system.layout, relaxation.group)
    for i, (root, (objective, offset)) in enumerate(zip(roots, relaxation.images)):
        if root < i or not any(objective):
            # an orbit mate's bounds, or a singleton level's 1
            lo.append(lo[root] if root < i else offset)
            hi.append(hi[root] if root < i else offset)
            continue
        for sense, bounds in ((1, hi), (-1, lo)):
            # right-hand side +-B^-1 objective, and in the cost row its value
            for row in T:
                row[-1] = sense * sum(map(mul, row[len(slots):], objective))
            den = _dual_phase(T, basis, slots, den, widths)
            while (j := _price(T[-1], waiting, den, len(slots))) is not None:
                _add_column(T, waiting.pop(j), den, widths, slots)
                den = _phase2(T, basis, slots, den, widths)
                if den is None:
                    return empty
            bounds.append(offset + sense * (-T[-1][-1] // den))
    if any(a > b for a, b in zip(lo, hi)):
        return empty
    return BoundsBox(lo=tuple(lo), hi=tuple(hi))


# ------------------------------------------------------------------ search


def _howell(vectors: list[list[int]], n: int) -> dict[int, list[int]]:
    """The Howell form mod n of the vectors' span, {column: the row leading there}.

    Each vector is reduced column by column (Storjohann and Mulders, ESA
    1998); where its entry a, mod n, is no multiple of the leading entry g
    (n if no row leads), the row becomes s row + t v, leading at
    h = gcd(g, a) = s g + t a, and the rest (a/h) row - (g/h) v, which spans
    n/h times the new row with n/g times the old, goes on.  So the span's
    vectors zero before column i are spanned by the rows from i on (the
    Howell property).  Only the rows are reduced mod n.
    """
    form: dict[int, list[int]] = {}
    for v in vectors:
        for i in range(len(v)):
            a = v[i] % n
            if not a:
                continue
            row = form.get(i) or [0] * len(v)
            g = row[i] or n
            if a % g:
                h = gcd(g, a)
                t = pow(a // h, -1, g // h)
                s = (h - t * a) // g
                form[i] = [(s * y + t * x) % n for x, y in zip(v, row)]
                v = [a // h * y - g // h * x for x, y in zip(v, row)]
            else:
                f = a // g
                v = [x - f * y for x, y in zip(v, row)]
    return form


def _search(
    rows: tuple[_Condition, ...],
    levels: tuple[_Condition, ...],
    n: int,
    box: BoundsBox,
    budget: int,
    group: tuple[tuple[int, ...], ...] = (),
):
    """Depth-first enumeration in index order; returns (solution vectors, node count).

    The conditions are the given rows and the level equations.  Every
    condition is linear in the next variable, so the values it admits at a
    node form one integer interval.  The rows are searched with the last
    variable of each level of two or more substituted out (_substitute_rows):
    a row then bounds the level's earlier variables by the level equation
    rather than the box reach of the last one, and that last variable's
    single value is forced by its level equation.  A row left constant
    there and out of its bounds leaves nothing to search.  The others bound
    as one condition per direction, its bound on x_k the tightest of theirs,
    so the node count is theirs and lo > hi prunes at its level.  A
    condition whose bounds cut the box keeps a sum over its assigned variables.

    The merged rows' congruences const + a.x = 0, which span the rows', and
    the level equations, mod n, are taken once to their Howell form
    (_howell), over the columns x_(nvars-1), ..., x_0, 1; a row leading at
    1, as a constant row's const != 0 mod n makes, leaves nothing to search.
    Level k owns one row g x_k + s = 0 mod n, g | n, s a partial sum (g = n,
    s = 0 where none leads), and these imply every congruence on
    x_0 .. x_k.  So g | s, as n/g times the row is one on x_0 .. x_(k-1),
    which the earlier levels keep, and x_k steps by n/g from -s/g.

    A node evaluates its first upper bound, then the lower bounds, then the
    other upper bounds, and returns at the first that empties its interval;
    that bound is swapped to the front of its list, so most dead ends cost
    one or two divisions.  The lists belong to this call, so the node
    count and the solution order are those of the plain interval search.
    A node counts its box range.

    group is a group less its identity, of permutations s of the positions
    whose x -> (x_s(0), x_s(1), ...) maps the solution set onto itself; a
    vector is kept only if it is lexicographically least among its images
    (Crawford, Ginsberg, Luks and Roy, KR 1996), one per orbit.  s compares
    its pairs (f, s(f)), f moved, in increasing f; while the earlier ones
    are equal, a pair cuts the range at max(f, s(f)) to x_f <= x_(s(f)),
    and a value that leaves it equal goes on to the pairs already
    assigned, skipped if one reads x_f > x_(s(f)).  A path keeps, per s,
    the index of its first pair not known equal.
    """
    nvars = len(box.lo)
    members = [[i for i, a in enumerate(c.coeffs) if a] for c in levels]
    rows, holds = _substitute_rows(rows, [idxs for idxs in members if len(idxs) > 1])
    congruences = [[*c.coeffs[::-1], c.const] for c in rows]
    form = _howell(congruences + [[*c.coeffs[::-1], c.const - c.lo] for c in levels], n)
    if not holds or nvars in form:
        return [], 0
    conds = [_Bound(a, lo - c, hi - c) for a, c, lo, hi in rows + levels if any(a)]

    # x_k >= ceil((b - p) / a) for each (ci, a, b) in lower[k], x_k <= floor
    # of the same for each in upper[k]: p is partial sum ci, b a bound of its
    # condition less the reach of its later variables.  A bound no partial
    # sum in the box can push into the box is left out, and a condition left
    # with none keeps no sum.  moves[k] are the sums x_k changes that have a
    # later variable, the Howell rows' included.
    lower, upper, moves = ([[] for _ in range(nvars)] for _ in range(3))
    starts = []
    for cond in conds:
        ci, cuts = len(starts), False
        reach = [
            (a * lo, a * hi) if a >= 0 else (a * hi, a * lo)
            for a, lo, hi in zip(cond.coeffs, box.lo, box.hi)
        ]
        pmin = pmax = 0
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
            starts.append(0)
            *terms, _last = [(k, a) for k, a in enumerate(cond.coeffs) if a]
            for k, a in terms:
                moves[k].append((ci, a))
    # (ci, g, n // g) for level k's Howell row g x_k + s, s = c + b.x sum ci
    congs = []
    for k in range(nvars):
        c, *b = form.get(nvars - 1 - k, [0] * (nvars + 1))[::-1]
        for j in range(k):
            if b[j]:
                moves[j].append((len(starts), b[j]))
        g = b[k] or n
        congs.append((len(starts), g, n // g))
        starts.append(c)
    # (si, j, min(f, g), f < g, run, stop, done) in decides[k] for pair j =
    # (f, g) of group[si] with max(f, g) = k: run the next pairs assigned by
    # k, stop the index after them, done the pair count
    decides = [[] for _ in range(nvars)]
    for si, s in enumerate(group):
        pairs = [(f, g) for f, g in enumerate(s) if f != g]
        for j, (f, g) in enumerate(pairs):
            k = max(f, g)
            stop = next((i for i in range(j + 1, len(pairs)) if max(pairs[i]) > k), len(pairs))
            decides[k].append((si, j, min(f, g), f < g, pairs[j + 1 : stop], stop, len(pairs)))
    sizes = [max(0, hi - lo + 1) for lo, hi in zip(box.lo, box.hi)]
    plan = list(zip(sizes, box.lo, box.hi, lower, upper, moves, congs, decides))

    point = [0] * nvars
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def descend(k: int, partial: list[int], state: list[int]) -> None:
        nonlocal nodes
        if k == nvars:
            solutions.append(tuple(point))
            return
        size, lo, hi, lows, highs, move, cong, decide = plan[k]
        nodes += size
        if nodes > budget:
            raise SearchIncomplete(nodes, budget)
        # the first upper bound, the lower ones, then the other upper ones;
        # the bound that empties the interval is swapped to the front
        if highs:
            ci, a, b = highs[0]
            t = (b - partial[ci]) // a
            if t < hi:
                if t < lo:
                    return
                hi = t
        for i, (ci, a, b) in enumerate(lows):
            t = -((partial[ci] - b) // a)
            if t > lo:
                if t > hi:
                    lows[0], lows[i] = lows[i], lows[0]
                    return
                lo = t
        for i in range(1, len(highs)):
            ci, a, b = highs[i]
            t = (b - partial[ci]) // a
            if t < hi:
                if t < lo:
                    highs[0], highs[i] = highs[i], highs[0]
                    return
                hi = t
        # the pairs decided here whose earlier pairs are equal: (si, the
        # value that leaves the pair equal, run, stop, done)
        ties = ()
        if decide:
            ties = []
            for si, j, other, low, run, stop, done in decide:
                if state[si] == j:
                    b = point[other]
                    lo, hi = (max(lo, b), hi) if low else (lo, min(hi, b))
                    ties.append((si, b, run, stop, done))
            if lo > hi:
                return
        ci, g, step = cong
        for v in range(lo + (-partial[ci] // g - lo) % step, hi + 1, step):
            point[k] = v
            child = partial.copy()
            for ci, a in move:
                child[ci] += a * v
            if not ties:
                descend(k + 1, child, state)
                continue
            after = state.copy()
            for si, b, run, stop, done in ties:
                after[si] = done
                if v == b:
                    d = next((point[f] - point[g] for f, g in run if point[f] != point[g]), 0)
                    if d > 0:
                        break
                    if not d:
                        after[si] = stop
            else:
                descend(k + 1, child, after)

    try:
        descend(0, starts, [0] * len(group))
    finally:
        del descend
    return solutions, nodes


def _search_order(layout: VariableLayout, box: BoundsBox) -> list[int]:
    """The layout indices in search order: levels by descending d, then box width, then index.

    Each level's widest variable comes last, so its (V1) equation
    substitutes it out and the search never branches on it; the high
    levels, with their narrow boxes, are fixed before the level-1 rows
    are propagated.
    """
    return sorted(
        range(len(layout)),
        key=lambda i: (-layout.variables[i][0], box.hi[i] - box.lo[i], i),
    )


def enumerate_solutions(
    system: ConstraintSystem,
    box: BoundsBox,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EnumerationReport:
    """All integer points of the box satisfying every row and level equation.

    _search runs on the relaxation's merged rows (_prepared), each singleton
    level at its (V1) value 1, the level equations and the box, permuted into
    _search_order, and its vectors are read back through the permuted layout.
    The node count, counted in that order, is the unmerged rows' but on a
    hand-made box that leaves a singleton level wider than {1}, or in which a
    row holds nowhere (no solution then).  Complete, duplicate free and
    deterministic; raises SearchIncomplete as soon as the count passes the budget.

    The relaxation's group, less the permutations that do not keep the box,
    keeps the rows and level equations, so the solutions in the box too.
    _search keeps one vector per orbit of it, and their images join here.
    """
    relaxation = _prepared(system)
    order = _search_order(system.layout, box)
    position = {i: k for k, i in enumerate(order)}
    group = tuple(
        tuple(position[perm[i]] for i in order)
        for perm in relaxation.group
        if itemgetter(*perm)(box.lo) == box.lo and itemgetter(*perm)(box.hi) == box.hi
    )
    rows, levels = (
        tuple(
            _Condition(tuple(c.coeffs[i] for i in order), c.const, c.lo, c.hi)
            for c in conds
        )
        for conds in (relaxation.directions, relaxation.levels)
    )
    searched_box = BoundsBox(
        lo=tuple(box.lo[i] for i in order), hi=tuple(box.hi[i] for i in order)
    )
    kept, nodes = _search(rows, levels, system.n, searched_box, node_budget, group)
    vectors = set(kept).union(*(map(itemgetter(*s), kept) for s in group))
    layout = replace(system.layout, variables=tuple(system.layout.variables[i] for i in order))
    solutions = SolutionSet.build(distributions_from_vectors(layout, vectors), system.family)
    return EnumerationReport(solutions, nodes, box, rank_check(system))


# ------------------------------------------------------------------ presets


def character_family(
    frame: CyclicFrame, spec: str = "paper"
) -> tuple[tuple[CharRestriction, ...], str]:
    """Resolve a character family preset id to an explicit character list.

    "paper"      trivial, chi_2, chi_4, phi_1 .. phi_(n/2), psi_1
    "brauer-p"   every irreducible Brauer restriction mod p
    "brauer-p:D" the same, filtered to degree <= D (D an integer >= 1)
    """
    ctx = frame.ctx
    n = frame.m
    if spec == "paper":
        if n == 1:
            return (CharRestriction.trivial(),), "paper"
        chars = [CharRestriction.trivial(), CharRestriction.brauer((2,))]
        if ctx.p >= 5:
            # chi_4 needs digits below p, so at p = 3 the family has no chi_4
            chars.append(CharRestriction.brauer((4,)))
        chars.extend(CharRestriction.phi(h) for h in range(1, n // 2 + 1))
        chars.append(CharRestriction.psi(1))
        return tuple(chars), "paper"
    if spec == "brauer-p":
        return brauer_irreducibles(ctx, frame), "brauer-p"
    if spec.startswith("brauer-p:"):
        digits = spec.split(":", 1)[1]
        if not digits.isdecimal() or int(digits) < 1:
            raise ValueError(f"invalid character family {spec!r}: D must be an integer >= 1")
        bound = int(digits)
        chars = tuple(
            chi for chi in brauer_irreducibles(ctx, frame) if chi.degree(frame) <= bound
        )
        return chars, spec
    raise ValueError(f"unknown character family {spec!r}")


def solve_vpa(
    frame: CyclicFrame,
    chars: str | tuple[CharRestriction, ...] = "paper",
    node_budget: int = DEFAULT_NODE_BUDGET,
    family: str | None = None,
) -> EnumerationReport:
    """Full pipeline: build rows, bound, enumerate.

    derive_bounds raises RankDeficientError when the family's distinct rows
    and the level equations have rank below the variable count: the system
    solved is always the one of the family given.
    """
    if isinstance(chars, str):
        characters, family = character_family(frame, chars)
    else:
        characters, family = tuple(chars), (family or "custom")
    system = build_constraints(frame, characters, family)
    box = derive_bounds(system)
    return enumerate_solutions(system, box, node_budget=node_budget)
