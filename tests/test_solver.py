"""Rank checks, exact LP bounds, and complete enumeration."""

from __future__ import annotations

import gc
import hashlib
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpzc import cli, solver
from helpzc.help_core import (
    ConstraintRow,
    SolutionSet,
    build_constraints,
    distribution_from_vector,
    exceptional,
    exceptional_set,
    relabel,
    tpa_distribution,
    tpa_set,
    variable_layout,
    verify_v4,
)
from helpzc.psl2 import CharRestriction, ClassLabel, make_context, make_frame
from helpzc.solver import (
    BoundsBox,
    RankDeficientError,
    SearchIncomplete,
    character_family,
    compare_sets,
    derive_bounds,
    enumerate_solutions,
    rank_check,
    solve_vpa,
)

from helpers import (
    _simplex_min,
    fraction_rank,
    interval_search,
    levels_distribution,
    naive_box_scan,
    naive_search,
    raw_rows_search,
    sweep_frames,
    two_phase_bounds,
    two_phase_pair,
)

_C = solver._Condition
TRIV = CharRestriction.trivial()
CHI2 = CharRestriction.brauer((2,))
CHI4 = CharRestriction.brauer((4,))


def frame_for(q, m):
    return make_frame(make_context(q), m)


def paper_system(q, n):
    fr = frame_for(q, n)
    chars, fam = character_family(fr, "paper")
    return build_constraints(fr, chars, fam)


# ---------------------------------------------------------------- simplex unit


def F(x):
    return Fraction(x)


def test_simplex_basic_optimum():
    # min x + 2y subject to x + y = 1, x,y >= 0  ->  1 at (1, 0)
    status, value = _simplex_min([[F(1), F(1)]], [F(1)], [F(1), F(2)])
    assert (status, value) == ("optimal", 1)


def test_simplex_infeasible():
    # x + y = -1 with x, y >= 0 is impossible after sign flip:
    # -x - y = 1 has no nonnegative solution
    status, _ = _simplex_min([[F(-1), F(-1)]], [F(1)], [F(1), F(1)])
    assert status == "infeasible"


def test_simplex_unbounded():
    # min -x subject to x - y = 0: push x = y to infinity
    status, _ = _simplex_min([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert status == "unbounded"


def test_simplex_degenerate_equalities():
    # duplicated constraint rows must not break phase 1 cleanup
    A = [[F(1), F(1)], [F(1), F(1)]]
    status, value = _simplex_min(A, [F(2), F(2)], [F(3), F(1)])
    assert (status, value) == ("optimal", 2)


# ---------------------------------------------------------------- rank


def test_rank_full_for_paper_preset():
    system = paper_system(19, 10)
    assert len(system.layout) == 8
    assert rank_check(system) == 8


def test_rank_single_trivial_character():
    fr = frame_for(19, 10)
    system = build_constraints(fr, [TRIV])
    assert rank_check(system) <= 4  # at most the number of divisors of 10


def test_rank_empty_system():
    # no row: the rank is that of the level equations, one per d in 1, 2, 5
    fr = frame_for(19, 10)
    system = build_constraints(fr, [])
    assert rank_check(system) == 3


_cached_paper_system = cache(paper_system)


@st.composite
def _row_span(draw):
    # a frame of 3, 3 or 5 levels and rows drawn from the span of a few
    # random rows, so rank deficiency is common
    q, n = draw(st.sampled_from([(13, 6), (19, 10), (289, 12)]))
    nvars = len(_cached_paper_system(q, n).layout)
    basis = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * nvars), min_size=1, max_size=nvars))
    weights = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    return q, n, [
        tuple(sum(w * b[i] for w, b in zip(ws, basis)) for i in range(nvars))
        for ws in draw(st.lists(weights, max_size=nvars + 3))
    ]


@settings(max_examples=100, deadline=None)
@given(instance=_row_span())
# rows of rank below 5 that the level equations do and do not complete
@example(instance=(13, 6, []))
@example(instance=(13, 6, [(1, 1, 0, 0, 0), (0, 0, 1, 0, 0)]))
@example(instance=(13, 6, [(1, -1, 0, 0, 0), (0, 0, 1, 0, 0)]))
def test_rank_matches_fraction_oracle(instance):
    # rank_check adds the level count to the reduced rows' pivots
    q, n, coeffs = instance
    system = _cached_paper_system(q, n)
    nvars = len(system.layout)
    rows = tuple(
        ConstraintRow(character="random", l=0, coeffs=c, const=0, upper=n) for c in coeffs
    )
    system = replace(system, rows=rows)
    levels = [c.coeffs for c in solver._prepared(system).levels]
    rank = fraction_rank(coeffs + levels)
    assert rank_check(system) == rank
    # the one gate: derive_bounds raises exactly where that rank is deficient
    try:
        derive_bounds(system)
    except RankDeficientError as exc:
        assert rank < nvars and f"rank {rank} for {nvars} variables" in str(exc)
    else:
        assert rank == nvars


# ---------------------------------------------------------------- bounds


def test_bounds_contain_known_solutions():
    system = paper_system(19, 10)
    box = derive_bounds(system)
    layout = system.layout
    fr = system.frame
    for pa in [tpa_distribution(fr, 1), tpa_distribution(fr, 3), exceptional(fr, 5),
               exceptional(fr, 5, 3)]:
        vec = [pa.value(d, cls) for d, cls in layout.variables]
        assert all(lo <= v <= hi for lo, v, hi in zip(box.lo, vec, box.hi))
    i = layout.index(5, fr.class_of(5))
    assert box.lo[i] <= 1 <= box.hi[i]


@pytest.mark.parametrize(
    "q, n, box",
    [
        (13, 6, BoundsBox(lo=(0, 0, -1, 1, 1), hi=(1, 1, 1, 1, 1))),
        (19, 10, BoundsBox(lo=(0, -1, 0, -1, 0, 0, 0, 1), hi=(1,) * 8)),
    ],
)
def test_bounds_pinned_paper_boxes(q, n, box):
    assert derive_bounds(paper_system(q, n)) == box


def test_bounds_pinned_paper_61_30():
    # recorded from one cold simplex phase per LP (about 40 s); the chain takes about 1 s
    box = derive_bounds(paper_system(61, 30))
    assert box == BoundsBox(
        lo=(-4, -4, -5, -4, -4, -4, -4, -4, -5, -2, -4, -4, -4, -4, -2, -3, -3,
            -3, -3, -3, -3, -3, -1, -1, -1, -1, -1, 0, 0, -1, 0, 0, 1, 1),
        hi=(4, 3, 5, 3, 3, 5, 4, 3, 5, 3, 4, 5, 4, 3, 2, 3, 3,
            6, 3, 2, 6, 3, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1),
    )


def family_system(q, n, spec):
    fr = frame_for(q, n)
    chars, fam = character_family(fr, spec)
    return build_constraints(fr, chars, fam)


def infeasible_system():
    # 0 <= x_0 - 50 <= 10 is out of reach of the (19,10) paper box
    system = paper_system(19, 10)
    row = ConstraintRow(character="far", l=0, coeffs=(1,) + (0,) * 7, const=-50, upper=10)
    return replace(system, rows=system.rows + (row,))


def one_variable_row(system, const=5, upper=100):
    # no unit permutation keeps a row on x_0 alone; 0 <= x_0 + 5 <= 100 cuts nothing
    nvars = len(system.layout)
    row = ConstraintRow(character="x0", l=0, coeffs=(1,) + (0,) * (nvars - 1), const=const,
                        upper=upper)
    return replace(system, rows=system.rows + (row,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: paper_system(13, 6),
        lambda: paper_system(19, 10),
        lambda: paper_system(41, 10),
        lambda: family_system(19, 10, "brauer-p"),
        lambda: build_constraints(frame_for(11, 5), [CHI2]),
        lambda: paper_system(29, 14),
        infeasible_system,
        # x_0 = 0 moves the bounds of some of x_0's orbit mates, not all
        lambda: one_variable_row(paper_system(19, 10), const=0, upper=0),
        lambda: paper_system(31, 15),
    ],
    ids=["paper-13-6", "paper-19-10", "paper-41-10", "brauer-p-19-10", "chi2-11-5",
         "paper-29-14", "infeasible-19-10", "x0-pinned-19-10", "paper-31-15"],
)
def test_bounds_match_two_phase_oracle(make):
    system = make()
    assert derive_bounds(system) == two_phase_bounds(system)


@pytest.mark.parametrize(
    "make, pivots",
    [
        (lambda: paper_system(13, 6), 2),
        (lambda: paper_system(19, 10), 16),
        (lambda: paper_system(31, 15), 30),
        (lambda: family_system(19, 10, "brauer-p"), 19),
    ],
    ids=["paper-13-6", "paper-19-10", "paper-31-15", "brauer-p-19-10"],
)
def test_bounds_pivot_counts_pinned(make, pivots, monkeypatch):
    # the elimination, the exchanges of the chain's dual phases and of the
    # primal phases resumed after pricing (a bound flip is no pivot); an
    # equal system eliminated before does not share its elimination
    checked = make()
    rank_check(checked)
    system = make()
    assert system == checked
    calls = []
    real = solver._pivot

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_pivot", counted)
    derive_bounds(system)
    assert len(calls) == pivots


# (row, returned den) of every _pivot call of derive_bounds on a fresh
# system: the elimination of the level-reduced rows, one pivot per
# variable left after the substitution (2 of (13,6)'s 5, 5 of (19,10)'s
# 8), then the exchanges of the chain.  A bound flip is no pivot.  At
# (13,6), one condition per direction, the chain makes no exchange: after
# bound flips the start basis is optimal for every LP, and nothing prices in.
PIVOT_SEQUENCES = {
    "paper-13-6": [(0, 6), (1, 24)],
    "brauer-p-19-10": [
        (0, 10), (1, 10), (2, 200), (3, 2000), (4, 20000), (4, 20000), (1, 20000), (0, 20000),
        (2, 40000), (4, 40000), (1, 40000), (2, 20000), (0, 20000), (0, 40000), (3, 40000),
        (2, 40000), (1, 40000), (4, 40000), (1, 40000),
    ],
}


def recorded_pivots(monkeypatch):
    calls = []
    real = solver._pivot

    def recorded(*args):
        out = real(*args)
        calls.append((args[1], out))
        return out

    monkeypatch.setattr(solver, "_pivot", recorded)
    return calls


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: paper_system(13, 6), "paper-13-6"),
        (lambda: family_system(19, 10, "brauer-p"), "brauer-p-19-10"),
    ],
    ids=["paper-13-6", "brauer-p-19-10"],
)
def test_bounds_pivot_sequence_pinned(make, name, monkeypatch):
    system = make()
    calls = recorded_pivots(monkeypatch)
    derive_bounds(system)
    assert calls == PIVOT_SEQUENCES[name]


@pytest.fixture(scope="module")
def sweep():
    # over the 98 frames and both presets, fresh systems: (q, m, family,
    # rank, box), (q, m, family, _pivot calls of rank_check and
    # derive_bounds), and the sha256 of (q, m, family, rows)
    cases, counts, calls = [], [], []
    rows = hashlib.sha256()
    real = solver._pivot

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    with mock.patch.object(solver, "_pivot", counted):
        for q, m in sweep_frames():
            for spec in ("paper", "brauer-p"):
                system = family_system(q, m, spec)
                rows.update(repr((q, m, spec, system.rows)).encode())
                calls.clear()
                rank = rank_check(system)
                try:
                    box = derive_bounds(system)
                    box = (box.lo, box.hi)
                except RankDeficientError:
                    box = None
                cases.append((q, m, spec, rank, box))
                counts.append((q, m, spec, len(calls)))
    return cases, counts, rows.hexdigest()


def test_build_constraints_sweep_rows_pinned(sweep):
    # recorded before a character's sums came from its predecessor's: every
    # row of the sweep is as it was
    *_, rows = sweep
    assert rows == "ce16460ffba20ee53fae3f773bc03d50e9a7d6f31de17df6cdcca288b7d952a8"


def test_bounds_sweep_pinned(sweep):
    # sha256 of (q, m, family, rank, box), recorded before the elimination
    # took the level equations first: every box and rank of the sweep is
    # as it was
    cases, _, _ = sweep
    assert len(cases) == 196
    digest = hashlib.sha256(repr(cases).encode()).hexdigest()
    assert digest == "8b04d8fddd5003e1249778fa9c162c57452e6cf6e7cb298e104c1f5fd64cd8e4"


def test_orbit_roots_need_no_level_equation():
    # every unit permutation maps each level equation to itself, so the
    # rows alone keep the same permutations on the 196 sweep systems
    for q, m in sweep_frames():
        for spec in ("paper", "brauer-p"):
            system = family_system(q, m, spec)
            relaxation = solver._prepared(system)
            rows, levels = relaxation.rows, relaxation.levels
            assert solver._symmetries(system.layout, rows) == solver._symmetries(
                system.layout, levels + rows
            )


def test_bounds_sweep_pivot_counts_pinned(sweep):
    # sha256 of (q, m, family, pivots): 5,469 pivots in all, against 5,627
    # when parallel rows were separate conditions, 6,542 when the LP also
    # carried the level equations (11,935 when a bound flip of the dual
    # phase was a pivot, 10,159 before that)
    _, counts, _ = sweep
    assert sum(c[-1] for c in counts) == 5469
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    assert digest == "ef11c339e65574017da8e12cbaf3ff4fa36dabcb62cd23b6aad89cbc2aeb79fa"


def built_as_validated(system, box):
    # enumerate_solutions' set against its search vectors rebuilt through the
    # validating PADistribution(frame, levels): in order, entry by entry, the
    # class labels included; returns the solution count
    seen = []
    real = solver.distributions_from_vectors

    def recorded(layout, vectors):
        seen.append((layout, vectors))
        return real(layout, vectors)

    with mock.patch.object(solver, "distributions_from_vectors", recorded):
        found = enumerate_solutions(system, box).solutions
    [(layout, vectors)] = seen
    rebuilt = SolutionSet.build(levels_distribution(layout, v) for v in vectors)
    assert [pa._entries for pa in found] == [pa._entries for pa in rebuilt]
    assert [pa._ident for pa in found] == [pa._ident for pa in rebuilt]
    assert all(type(cls) is ClassLabel for pa in found for _d, cls, _v in pa.entries())
    return len(found)


def test_enumerated_distributions_are_those_of_the_validating_constructor(sweep):
    cases, _, _ = sweep
    counts = [built_as_validated(family_system(q, m, spec), BoundsBox(*box))
              for q, m, spec, _rank, box in cases]
    assert sum(counts) == 898
    system = paper_system(289, 12)
    assert built_as_validated(system, derive_bounds(system)) == 560


def test_enumeration_rejects_a_layout_with_a_foreign_class():
    system = paper_system(19, 10)
    box = derive_bounds(system)
    layout = system.layout
    foreign = frame_for(29, 14).class_of(3)  # order 14, not a class of the order-10 frame
    moved = replace(layout, variables=layout.variables[:-1] + ((1, foreign),))
    with pytest.raises(ValueError, match="is not a class of the order-10 frame"):
        enumerate_solutions(replace(system, layout=moved), box)


def test_a_stalled_lp_raises_rather_than_hangs(monkeypatch):
    # with the cost-row update of _flip deleted, the paper (29,15) chain
    # never reaches an optimum; the iteration cap ends it, and main does not
    # read the defect as bad input (exit 2)
    def flip_without_cost(T, col, width, den):
        for row in T[:-1]:
            row[col] = -row[col]

    monkeypatch.setattr(solver, "_flip", flip_without_cost)
    with pytest.raises(solver.SimplexStallError):
        derive_bounds(paper_system(29, 15))
    assert not issubclass(solver.SimplexStallError, ValueError)
    with pytest.raises(solver.SimplexStallError):
        cli.main(["vpa", "--q", "29", "--n", "15"])


def orbit_count(system):
    relaxation = solver._relaxation(system)
    group = solver._symmetries(system.layout, relaxation.rows + relaxation.levels)
    return len(set(solver._orbit_roots(system.layout, group)))


@pytest.mark.parametrize(
    "make, nvars, orbits",
    [
        (lambda: paper_system(53, 26), 20, 5),
        (lambda: paper_system(289, 12), 13, 12),
        (lambda: paper_system(61, 30), 34, 19),
        (lambda: family_system(53, 26, "brauer-p"), 20, 5),
        (lambda: one_variable_row(paper_system(53, 26)), 20, 20),
        (infeasible_system, 8, 8),
        (lambda: paper_system(13, 6), 5, 5),
    ],
    ids=["paper-53-26", "paper-289-12", "paper-61-30", "brauer-p-53-26",
         "one-variable-row-53-26", "infeasible-19-10", "paper-13-6"],
)
def test_orbit_counts(make, nvars, orbits):
    system = make()
    assert len(system.layout) == nvars
    assert orbit_count(system) == orbits


@pytest.mark.parametrize(
    "make, solves",
    [
        (lambda: paper_system(43, 22), 8),
        (lambda: paper_system(289, 12), 20),
        (lambda: one_variable_row(paper_system(43, 22)), 32),
    ],
    ids=["paper-43-22", "paper-289-12", "one-variable-row-43-22"],
)
def test_one_lp_pair_per_orbit(make, solves, monkeypatch):
    system = make()
    calls = []

    def counted(name, real):
        def phase(*args):
            calls.append(name)
            return real(*args)

        return phase

    for name in ("_phase2", "_dual_phase"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    box = derive_bounds(system)
    # one chain, every LP starting in the dual phase: the first from the
    # Gauss-Jordan basis, each later one from the last optimum; between
    # them _phase2 resumes after pricing
    assert calls[0] == "_dual_phase"
    assert calls.count("_dual_phase") == solves
    # the variable of (43,22)'s singleton level is 1 and solves no LP
    if solves == 2 * (len(system.layout) - 1):
        # the loose row moves no bound: the per-variable path gives the same box
        monkeypatch.undo()
        assert box == derive_bounds(paper_system(43, 22))


def test_singleton_level_is_one_without_an_lp(monkeypatch):
    # (19,10)'s level 5 holds x_7 alone, so x_7 = 1; with every variable its
    # own orbit root, the 7 others solve an LP pair each and x_7 none
    system = paper_system(19, 10)
    assert system.layout.level_indices()[5] == (7,)
    calls = []
    real = solver._dual_phase

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_dual_phase", counted)
    monkeypatch.setattr(solver, "_orbit_roots", lambda layout, conds: range(len(layout)))
    box = derive_bounds(system)
    assert len(calls) == 2 * 7
    assert (box.lo[7], box.hi[7]) == (1, 1)
    assert box == two_phase_bounds(system)


def test_substituted_orbit_root_takes_its_own_lp_pair():
    # x_10 of (43,22), the involution's class at level 1, is fixed by every
    # unit and is the level's last variable: its LP maximises and minimises
    # 1 - sum(its ten level mates)
    system = paper_system(43, 22)
    relaxation = solver._prepared(system)
    assert system.layout.level_indices()[1] == tuple(range(11))
    group = solver._symmetries(system.layout, relaxation.levels + relaxation.rows)
    roots = solver._orbit_roots(system.layout, group)
    assert roots[10] == 10
    assert relaxation.images[10] == ((-1,) * 10 + (0,) * 4, 1)
    # the other 13 variables of (43,22) are pinned by the bounds sweep
    box = derive_bounds(system)
    assert (box.lo[10], box.hi[10]) == two_phase_pair(system, 10) == (0, 1)


@pytest.mark.parametrize("const, empty", [(-2, True), (0, False)], ids=["violated", "held"])
def test_row_constant_only_after_substitution(const, empty):
    # const + sum over the d = 1 level is const + 1 on the (V1) hyperplane:
    # outside [0, 10] the relaxation is empty, inside it the box stays, and
    # neither reaches the LP's conditions
    system = paper_system(19, 10)
    idxs = system.layout.level_indices()[1]
    coeffs = tuple(int(i in idxs) for i in range(len(system.layout)))
    row = ConstraintRow("level", 0, coeffs, const, 10)
    extended = replace(system, rows=system.rows + (row,))
    relaxation = solver._prepared(extended)
    assert relaxation.reduced == solver._prepared(system).reduced
    assert relaxation.holds is not empty
    box = derive_bounds(extended)
    assert box == two_phase_bounds(extended)
    assert box == (BoundsBox((0,) * 8, (-1,) * 8) if empty else derive_bounds(system))


def _extra_row_on(nvars):
    return st.builds(
        ConstraintRow,
        character=st.just("random"),
        l=st.just(0),
        coeffs=st.tuples(*[st.integers(-6, 6)] * nvars),
        const=st.integers(-10, 10),
        upper=st.integers(0, 12),
    )


@settings(max_examples=30, deadline=None)
@given(extra=st.lists(_extra_row_on(5), min_size=1, max_size=3))
def test_bounds_match_oracle_on_random_rows(extra):
    # odd pivots and signs the presets never produce; a rounding // shows here
    system = paper_system(13, 6)
    system = replace(system, rows=system.rows + tuple(extra))
    assert derive_bounds(system) == two_phase_bounds(system)


@st.composite
def _row_through(draw, point):
    # a random row that holds at point, so the relaxation stays nonempty
    coeffs = draw(st.tuples(*[st.integers(-6, 6)] * len(point)))
    value = draw(st.integers(0, 12))
    const = value - sum(a * x for a, x in zip(coeffs, point))
    upper = draw(st.integers(value, value + 12))
    return ConstraintRow(character="random", l=0, coeffs=coeffs, const=const, upper=upper)


# tpa_distribution(frame_for(19, 10), 1) as a vector of the (19,10) layout
_TPA_19_10 = (1, 0, 0, 0, 0, 1, 0, 1)


@settings(max_examples=30, deadline=None)
@given(extra=st.lists(_row_through(_TPA_19_10), min_size=1, max_size=3))
def test_bounds_chain_matches_oracle_on_random_rows(extra):
    # a random row almost never keeps an orbit, so all 16 LPs run as one
    # chain, and its dual phases often enter a column flipped
    system = paper_system(19, 10)
    system = replace(system, rows=system.rows + tuple(extra))
    box = derive_bounds(system)
    assert all(a <= b for a, b in zip(box.lo, box.hi))
    assert box == two_phase_bounds(system)


def one_row_dual_phase(basic, stored, widths):
    # one basic row with a negative right-hand side; the stored column's
    # entry -1 and reduced cost 5 give it ratio 5, the flip its width
    T = [[-1, 1, -1], [5, 0, 0]]
    basis, slots = [basic], [stored]
    den = solver._dual_phase(T, basis, slots, 1, widths)
    return T, basis, slots, den


def test_dual_phase_takes_the_leaving_variables_flip_at_the_least_ratio():
    # width 2 < 5: the row is negated, twice the row leaves the cost row,
    # and den and the basis stay
    assert one_row_dual_phase(0, 1, [2, 9]) == ([[1, -1, 1], [3, 2, -2]], [0], [1], 1)


@pytest.mark.parametrize(
    "basic, stored, after",
    [
        (0, 1, ([[1, -1, 1], [0, 5, -5]], [0], [1], 1)),
        (1, 0, ([[-1, -1, 1], [5, 5, -5]], [0], [1], 1)),
    ],
    ids=["flip-is-lesser", "column-is-lesser"],
)
def test_dual_phase_ratio_tie_goes_to_the_lesser_variable(basic, stored, after):
    # both ratios are 5: the flip keeps the basis, the exchange swaps the
    # two variables; the objective is -5 either way
    assert one_row_dual_phase(basic, stored, [5, 5]) == after


@settings(max_examples=30, deadline=None)
@given(extra=st.lists(_extra_row_on(8), min_size=1, max_size=2))
def test_orbit_bounds_match_per_variable_bounds_on_symmetric_rows(extra):
    # random rows together with all their images under the unit action keep
    # every orbit, so the copied bounds meet rows the presets never produce
    system = paper_system(19, 10)
    perms = system.layout.unit_permutations()
    images = tuple(r._replace(coeffs=tuple(r.coeffs[j] for j in p)) for r in extra for p in perms)
    system = replace(system, rows=system.rows + tuple(extra) + images)
    assert orbit_count(system) == 5
    box = derive_bounds(system)
    with mock.patch.object(solver, "_orbit_roots", lambda layout, conds: range(len(layout))):
        assert derive_bounds(system) == box


def test_bounds_pinned_brauer_p_53_26():
    # recorded from the chain that carried every condition as a column
    box = derive_bounds(family_system(53, 26, "brauer-p"))
    assert box == BoundsBox(
        lo=(0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1),
        hi=(1,) * 20,
    )


def test_emptiness_from_a_priced_in_condition(monkeypatch):
    # the far row comes after rows of full rank, so it is not in the start
    # basis: only pricing brings it in, and the resumed _phase2 finds the dual unbounded
    system = infeasible_system()
    relaxation = solver._relaxation(system)
    # no other row bounds x_0 alone, so the merge keeps 50 <= x_0 <= 60 as it is
    far = relaxation.reduced[-1]
    assert far == ((1, 0, 0, 0, 0), 50, 60) and relaxation.holds
    assert len(relaxation.reduced) - 1 not in relaxation.basis
    added, results = [], []
    real_add, real_phase2 = solver._add_column, solver._phase2

    def add(T, cond, *rest):
        added.append(cond)
        return real_add(T, cond, *rest)

    def phase2(*args):
        results.append(real_phase2(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_add_column", add)
    monkeypatch.setattr(solver, "_phase2", phase2)
    box = derive_bounds(system)
    assert box == BoundsBox((0,) * 8, (-1,) * 8)
    # the first optimum breaks only far's bounds, and the dual turns unbounded at once
    assert added == [far] and results == [None]
    monkeypatch.undo()
    assert box == two_phase_bounds(system)


def test_emptiness_from_merged_twins(monkeypatch):
    # 0 <= x_0 <= 10 and 0 <= 20 - x_0 <= 5 bound one direction with the
    # disjoint intervals [0, 10] and [15, 20], and both say x_0 = 0 mod 10:
    # the merge empties the box, and no LP runs
    system = paper_system(19, 10)
    e0 = (1,) + (0,) * 7
    twins = (ConstraintRow("x0", 0, e0, 0, 10), ConstraintRow("-x0", 0, (-1,) + e0[1:], 20, 5))
    twinned = replace(system, rows=system.rows + twins)
    relaxation = solver._relaxation(twinned)
    assert relaxation.reduced[-1] == ((1, 0, 0, 0, 0), 15, 10) and not relaxation.holds
    monkeypatch.setattr(solver, "_dual_phase", mock.Mock(side_effect=AssertionError))
    assert derive_bounds(twinned) == BoundsBox((0,) * 8, (-1,) * 8)
    monkeypatch.undo()
    assert derive_bounds(twinned) == two_phase_bounds(twinned)
    # the search prunes on the merged condition at x_0 rather than ending
    # before its first node
    box, budget = derive_bounds(system), solver.DEFAULT_NODE_BUDGET
    vectors, nodes = search(twinned, box, budget)
    assert vectors == [] and nodes > 0
    assert (vectors, nodes) == interval_search(twinned, box, budget)


@st.composite
def _twinned_system(draw):
    system = paper_system(*draw(st.sampled_from([(13, 6), (19, 10)])))
    return replace(system, rows=system.rows + draw(_twins(system)))


@settings(max_examples=30, deadline=None)
@given(system=_twinned_system())
def test_merged_twins_bound_as_the_oracle(system):
    # the LP keeps one condition per direction; the Fraction oracle keeps
    # every row apart
    assert derive_bounds(system) == two_phase_bounds(system)


def test_tableau_ends_narrower_than_the_conditions(monkeypatch):
    system = family_system(19, 10, "brauer-p")
    relaxation = solver._relaxation(system)
    ncond = len(relaxation.reduced)
    # the LP's variables: the 8 of the layout but one per level (3)
    nvars = len(relaxation.T)
    assert nvars == 5
    widths, numbered = [], []
    real_pivot, real_add = solver._pivot, solver._add_column

    def seen(T, r, column, den):
        widths.append(len(T[r]))
        return real_pivot(T, r, column, den)

    def add(T, cond, den, lp_widths, slots):
        numbered[:] = [lp_widths]
        return real_add(T, cond, den, lp_widths, slots)

    monkeypatch.setattr(solver, "_pivot", seen)
    monkeypatch.setattr(solver, "_add_column", add)
    derive_bounds(system)
    # the elimination's rows are the I block alone
    assert widths[:nvars] == [nvars] * nvars
    # an LP row is its variables but the nvars basic ones, the nvars columns
    # of the I block and the right-hand side; the LP numbers 10 variables
    # for its 15 conditions, one per direction (11 for 44 when parallel
    # rows were apart, 14 for 55 with the level equations too)
    variables = len(numbered[0])
    assert widths[-1] == variables + 1 == 11
    assert ncond == 15


def test_infeasible_relaxation_enumerates_nothing():
    system = infeasible_system()
    box = derive_bounds(system)
    assert box == BoundsBox((0,) * 8, (-1,) * 8)
    rep = enumerate_solutions(system, box)
    assert rep.node_count == 0 and len(rep.solutions) == 0


def test_rows_completed_by_the_level_equations_solve():
    # chi_2 and chi_4 alone have rank 7 for 8 variables and 8 with the level
    # equations, so the relaxation is bounded and the family is solved: the
    # search finds the paper's 4
    fr = frame_for(19, 10)
    system = build_constraints(fr, [CHI2, CHI4])
    relaxation = solver._prepared(system)
    rows = [c.coeffs for c in relaxation.rows]
    assert fraction_rank(rows) == 7
    assert fraction_rank(rows + [c.coeffs for c in relaxation.levels]) == 8
    rep = solve_vpa(fr, (CHI2, CHI4))
    assert rep.rank == 8 and rep.complete is True
    assert rep.bounds == two_phase_bounds(system)
    assert len(rep.solutions) == 4
    assert compare_sets(rep.solutions, solve_vpa(fr, "paper").solutions).equal


def test_deficient_rank_enumerates_as_incomplete():
    # the trivial character's rows are sums over the levels, so the rank is
    # that of the 3 level equations (derive_bounds rejects the system); a
    # search of a box made by hand finds its 5 * 2 * 1 points of 0s and 1s
    # but is not complete
    fr = frame_for(19, 10)
    system = build_constraints(fr, [TRIV])
    rep = enumerate_solutions(system, BoundsBox(lo=(0,) * 8, hi=(1,) * 8))
    assert rep.rank == 3 and rep.complete is False
    assert len(rep.solutions) == 10
    assert set(tpa_set(fr)) <= set(rep.solutions)


def test_bounds_require_full_rank():
    fr = frame_for(19, 10)
    system = build_constraints(fr, [TRIV])
    with pytest.raises(RankDeficientError, match="augment"):
        derive_bounds(system)


def test_bounds_empty_layout():
    fr = frame_for(19, 1)
    system = build_constraints(fr, [TRIV])
    box = derive_bounds(system)
    assert box.lo == () and box.hi == ()


# ---------------------------------------------------------------- enumeration


def test_enumerate_q19_n10_paper():
    fr = frame_for(19, 10)
    rep = solve_vpa(fr, "paper")
    assert len(rep.solutions) == 4
    assert rep.complete
    expected = SolutionSet.build(list(tpa_set(fr)) + list(exceptional_set(fr, 5)))
    assert compare_sets(rep.solutions, expected).equal


def test_enumerate_q13_n6_paper():
    fr = frame_for(13, 6)
    rep = solve_vpa(fr, "paper")
    assert len(rep.solutions) == 1
    assert compare_sets(rep.solutions, tpa_set(fr)).equal


def test_enumerate_q11_n5_chi2_only():
    fr = frame_for(11, 5)
    rep = solve_vpa(fr, chars=(CHI2,))
    assert len(rep.solutions) == 2
    assert compare_sets(rep.solutions, tpa_set(fr)).equal


def test_enumerate_agrees_with_naive_scan():
    # completeness oracle on small systems: exhaustive scan of the box
    for q, n, chars in [(11, 5, (CHI2,)), (13, 6, None)]:
        fr = frame_for(q, n)
        if chars is None:
            chars, fam = character_family(fr, "paper")
        system = build_constraints(fr, chars)
        box = derive_bounds(system)
        assert box.volume() <= 10**6
        rep = enumerate_solutions(system, box)
        scan = naive_box_scan(system, box)
        found = sorted(
            tuple(pa.value(d, cls) for d, cls in system.layout.variables)
            for pa in rep.solutions
        )
        assert found == sorted(scan)


def test_enumerate_synthetic_congruence_system():
    # hand-built box + rows on the n=10 layout, checked against the scanner
    fr = frame_for(19, 10)
    chars, fam = character_family(fr, "paper")
    system = build_constraints(fr, chars[:4])
    box = BoundsBox(lo=(-1,) * 8, hi=(1,) * 8)
    rep = enumerate_solutions(system, box)
    scan = naive_box_scan(system, box)
    found = sorted(
        tuple(pa.value(d, cls) for d, cls in system.layout.variables)
        for pa in rep.solutions
    )
    assert found == sorted(scan)


def test_soundness_every_solution_passes_v4():
    fr = frame_for(19, 10)
    rep = solve_vpa(fr, "paper")
    chars, _ = character_family(fr, "paper")
    for pa in rep.solutions:
        assert pa.violations() == []
        assert verify_v4(pa, chars).ok


def test_tpa_subset_of_enumeration():
    for q, n, spec in [(19, 10, "paper"), (13, 6, "paper"), (19, 10, "brauer-p")]:
        fr = frame_for(q, n)
        rep = solve_vpa(fr, spec)
        for pa in tpa_set(fr):
            assert pa in rep.solutions


def test_relabel_maps_vpa_onto_itself():
    # the LP orbits rest on this symmetry; the layout permutation of u is relabel by u
    fr = frame_for(19, 10)
    rep = solve_vpa(fr, "paper")
    layout = variable_layout(fr)
    units = [u for u in range(2, 10 // 2 + 1) if gcd(u, 10) == 1]
    assert len(units) == len(layout.unit_permutations())
    for u, perm in zip(units, layout.unit_permutations()):
        assert {relabel(pa, u) for pa in rep.solutions} == set(rep.solutions)
        for pa in rep.solutions:
            vec = [pa.value(d, cls) for d, cls in layout.variables]
            moved = [0] * len(vec)
            for i, j in enumerate(perm):
                moved[j] = vec[i]
            assert distribution_from_vector(layout, moved) == relabel(pa, u)


def test_monotone_in_characters():
    fr = frame_for(19, 10)
    small = solve_vpa(fr, chars=(TRIV, CHI2, CharRestriction.phi(1), CharRestriction.phi(2),
                                 CharRestriction.phi(3), CharRestriction.phi(4),
                                 CharRestriction.phi(5)))
    big = solve_vpa(fr, "paper")
    keys_small = {pa.sort_key() for pa in small.solutions}
    keys_big = {pa.sort_key() for pa in big.solutions}
    assert keys_big <= keys_small


def test_determinism():
    fr = frame_for(19, 10)
    a = solve_vpa(fr, "paper")
    b = solve_vpa(fr, "paper")
    assert [pa.sort_key() for pa in a.solutions] == [pa.sort_key() for pa in b.solutions]
    assert (a.node_count, a.bounds, a.rank, a.solutions.family) == (
        b.node_count,
        b.bounds,
        b.rank,
        b.solutions.family,
    )


def test_node_budget_is_exact():
    # a budget of the total node count completes, one less fails just past it
    system = paper_system(19, 10)
    box = derive_bounds(system)
    total = enumerate_solutions(system, box).node_count
    assert total == 31
    with pytest.raises(SearchIncomplete) as info:
        enumerate_solutions(system, box, node_budget=total - 1)
    assert info.value.node_count == total
    rep = enumerate_solutions(system, box, node_budget=total)
    assert rep.node_count == total


def _mirrored(row):
    # 0 <= const + a.x <= upper is 0 <= (upper - const) - a.x <= upper; upper = 0 mod n
    return row._replace(coeffs=tuple(-a for a in row.coeffs), const=row.upper - row.const)


@pytest.mark.parametrize(
    "copy", [lambda row: row, _mirrored], ids=["doubled", "mirrored"]
)
def test_duplicated_rows_change_nothing(copy):
    # a mirrored row is the same condition stored as the negated dual column
    system = paper_system(19, 10)
    doubled = replace(system, rows=system.rows + tuple(copy(r) for r in system.rows))
    assert rank_check(doubled) == rank_check(system)
    box = derive_bounds(system)
    assert derive_bounds(doubled) == box
    once = enumerate_solutions(system, box)
    twice = enumerate_solutions(doubled, box)
    assert twice.node_count == once.node_count
    assert [p.sort_key() for p in twice.solutions] == [p.sort_key() for p in once.solutions]


def test_violated_constant_row_enumerates_nothing():
    # a zero row with const in [0, upper] stays in the relaxation, leaves the
    # LP box as it is and breaks only the congruence: its Howell row leads at
    # the constant, and the search ends before its first node
    system = paper_system(19, 10)
    box = derive_bounds(system)
    zero = (0,) * 8
    bad = ConstraintRow(character="const", l=0, coeffs=zero, const=1, upper=10)
    broken = replace(system, rows=system.rows + (bad,))
    assert derive_bounds(broken) == box
    rep = enumerate_solutions(broken, box)
    assert len(rep.solutions) == 0
    assert rep.node_count == 0
    # 20 = 0 mod 10 but above its bound: searched in the box of the system
    # without it, the search's own bounds check of constant rows ends it
    above = ConstraintRow(character="const", l=0, coeffs=zero, const=20, upper=10)
    rep = enumerate_solutions(replace(system, rows=system.rows + (above,)), box)
    assert len(rep.solutions) == 0
    assert rep.node_count == 0
    # const outside [0, upper] prices in, and the relaxation is empty
    out = ConstraintRow(character="const", l=0, coeffs=zero, const=-1, upper=10)
    empty = replace(broken, rows=broken.rows + (out,))
    assert derive_bounds(empty) == BoundsBox((0,) * 8, (-1,) * 8) == two_phase_bounds(empty)


def _span(vectors, n, d):
    # the module the vectors span in (Z/n)^d: the closure of 0 under adding each
    span, todo = {(0,) * d}, [(0,) * d]
    while todo:
        u = todo.pop()
        for v in vectors:
            w = tuple((x + y) % n for x, y in zip(u, v))
            if w not in span:
                span.add(w)
                todo.append(w)
    return span


@st.composite
def _generators(draw):
    # n in 2..12, prime powers and composites, and up to four vectors of (Z/n)^d, d <= 4
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    vector = st.lists(st.integers(-n, 2 * n), min_size=d, max_size=d)
    return n, d, draw(st.lists(vector, max_size=4))


@settings(max_examples=150, deadline=None)
@given(instance=_generators())
@example(instance=(4, 2, [[2, 1]]))  # saturation: 2 (2, 1) = (0, 2) takes the second column
@example(instance=(12, 4, [[8, 3, 0, 5], [6, 0, 9, 2]]))
@example(instance=(9, 3, [[3, 6, 1], [6, 3, 2], [0, 0, 3]]))
def test_howell_form_has_the_howell_property(instance):
    # brute force over (Z/n)^d: the form spans the module, the module's
    # vectors zero before column i are spanned by the rows from column i on,
    # and every row is zero before its column and leads there at a proper
    # divisor of n
    n, d, vectors = instance
    form = solver._howell(vectors, n)
    module = _span(vectors, n, d)
    assert _span(list(form.values()), n, d) == module
    for i in range(d + 1):
        tail = [row for col, row in form.items() if col >= i]
        assert _span(tail, n, d) == {v for v in module if not any(v[:i])}
    for col, row in form.items():
        assert len(row) == d and not any(row[:col])
        assert 0 < row[col] < n and n % row[col] == 0


def search(system, box, budget):
    # _search in layout order over the system's conditions, as the oracles
    # search; _search checks the constant rows itself, the oracles apart
    relaxation = solver._prepared(system)
    return solver._search(relaxation.rows, relaxation.levels, system.n, box, budget)


ORACLE_GRID = [
    ("paper", 13, 6),
    ("paper", 19, 10),
    ("paper", 29, 14),
    ("paper", 31, 15),
    ("paper", 43, 22),
    ("brauer-p", 19, 10),
]


@pytest.mark.parametrize("spec, q, n", ORACLE_GRID)
def test_search_matches_naive_oracle(spec, q, n):
    # same vectors in the same order as the per-candidate search over the
    # original rows; the substituted rows prune at least as much on every
    # case, and the node count is the plain interval search's
    system = family_system(q, n, spec)
    box = derive_bounds(system)
    budget = solver.DEFAULT_NODE_BUDGET
    vectors, nodes = search(system, box, budget)
    oracle_vectors, oracle_nodes = naive_search(system, box, budget)
    assert vectors == oracle_vectors
    assert nodes <= oracle_nodes
    assert nodes == interval_search(system, box, budget)[1]


@st.composite
def _level_row(draw, system):
    # c times one level's indicator: constant after substitution, held or violated
    *_, idxs = draw(st.sampled_from(sorted(system.layout.level_indices().items())))
    c = draw(st.integers(-2 * system.n, 2 * system.n))
    coeffs = tuple(c if i in idxs else 0 for i in range(len(system.layout)))
    const = draw(st.integers(-system.n, system.n))
    return ConstraintRow("level", 0, coeffs, const, draw(st.integers(0, 3 * system.n)))


@st.composite
def _twins(draw, system):
    # a row of system or a level row, which is constant after the (V1)
    # substitution, and rows on its direction up to sign once substituted:
    # mirrored, with another constant, with an interval disjoint from its
    # own either way round, or with a multiple of a level's indicator added.
    # Every twin has its row's congruence, so the search reaches the merged
    # bounds rather than stopping at a contradiction mod n
    n = system.n
    base = draw(st.one_of(st.sampled_from(system.rows), _level_row(system)))
    # 0 <= const + a.x <= upper is -const <= a.x <= upper - const
    coeffs, const, upper = base.coeffs, base.const, base.upper
    minus = tuple(-a for a in coeffs)
    rows = [base]
    for kind in draw(st.lists(st.sampled_from(["mirrored", "shifted", "above", "below", "level"]),
                              min_size=1, max_size=3)):
        k, u = draw(st.integers(-3, 3)), draw(st.integers(0, 3 * n))
        if kind == "mirrored":
            # 0 <= c - a.x <= u with c = -const mod n
            twin = (minus, n * k - const)
        elif kind == "shifted":
            twin = (coeffs, const + n * k)
        elif kind == "above":
            # a.x >= n (upper // n + 1 + |k|) - const > upper - const
            twin = (coeffs, const - n * (upper // n + 1 + abs(k)))
        elif kind == "below":
            # a.x <= -const - n (1 + |k|)
            twin = (minus, -const - n * (1 + abs(k)))
        else:
            # the substitution adds m to the twin's constant, not to the row's
            *_, idxs = draw(st.sampled_from(sorted(system.layout.level_indices().items())))
            m = draw(st.integers(-3, 3))
            twin = (tuple(a + m * (i in idxs) for i, a in enumerate(coeffs)), const - m + n * k)
        rows.append(ConstraintRow("twin", 0, *twin, u))
    return tuple(rows)


@st.composite
def _search_instance(draw):
    q, n = draw(st.sampled_from([(13, 6), (19, 10), (31, 15)]))
    system = paper_system(q, n)
    box = derive_bounds(system)
    nvars = len(box.lo)
    # every sub-box is nonempty around an anchor point, and holds a solution
    # when the anchor is a TPA vector and no extra row rules it out
    if draw(st.booleans()):
        pa = draw(st.sampled_from(list(tpa_set(system.frame))))
        anchor = [pa.value(d, cls) for d, cls in system.layout.variables]
    else:
        anchor = [draw(st.integers(a, b)) for a, b in zip(box.lo, box.hi)]
    lo = [draw(st.integers(a, v)) for a, v in zip(box.lo, anchor)]
    hi = [draw(st.integers(v, b)) for v, b in zip(anchor, box.hi)]
    row = st.builds(
        ConstraintRow,
        character=st.just("random"),
        l=st.just(0),
        coeffs=st.tuples(*[st.integers(-6, 6)] * nvars),
        const=st.integers(-10, 10),
        upper=st.integers(0, 12),
    )
    extra = draw(st.lists(st.one_of(row, _level_row(system)), max_size=2))
    system = replace(system, rows=system.rows + tuple(extra))
    if draw(st.booleans()):
        system = replace(system, rows=system.rows + draw(_twins(system)))
    return system, BoundsBox(lo=tuple(lo), hi=tuple(hi))


@settings(max_examples=60, deadline=None)
@given(instance=_search_instance())
def test_search_matches_naive_oracle_on_random_boxes(instance):
    # random sub-boxes and rows with negative coefficients reach the a < 0
    # ceil/floor branch and the single-value ranges; level rows become
    # constant after substitution
    system, box = instance
    budget = solver.DEFAULT_NODE_BUDGET
    vectors = search(system, box, budget)[0]
    assert vectors == naive_search(system, box, budget)[0]


def _index_order_keys(system, box):
    # the sorted solution keys of the search in layout order
    vectors = search(system, box, solver.DEFAULT_NODE_BUDGET)[0]
    dists = (distribution_from_vector(system.layout, v) for v in vectors)
    return [pa.sort_key() for pa in SolutionSet.build(dists)]


@settings(max_examples=60, deadline=None)
@given(instance=_search_instance())
def test_search_order_keeps_the_solution_set_on_random_boxes(instance):
    # enumerate_solutions searches a permuted system; its set is the one of
    # the search in layout order on the same rows and box
    system, box = instance
    rep = enumerate_solutions(system, box)
    assert [pa.sort_key() for pa in rep.solutions] == _index_order_keys(system, box)
    assert rep.bounds == box


@pytest.mark.parametrize("spec, q, n", ORACLE_GRID)
def test_search_order_keeps_the_solution_set(spec, q, n):
    system = family_system(q, n, spec)
    box = derive_bounds(system)
    rep = enumerate_solutions(system, box)
    assert [pa.sort_key() for pa in rep.solutions] == _index_order_keys(system, box)


def test_search_order_by_level_then_width():
    # levels from the highest d down, each from its narrowest box to its
    # widest, ties by index: the last variable of a level is its widest
    system = paper_system(19, 10)
    box = derive_bounds(system)
    order = solver._search_order(system.layout, box)
    assert order == [7, 5, 6, 0, 2, 4, 1, 3]
    for q, n in [(19, 10), (31, 15), (53, 26), (289, 12)]:
        system = paper_system(q, n)
        box = derive_bounds(system)
        order = solver._search_order(system.layout, box)
        assert sorted(order) == list(range(len(system.layout)))
        levels = [system.layout.variables[i][0] for i in order]
        assert levels == sorted(levels, reverse=True)
        for idxs in system.layout.level_indices().values():
            widths = [box.hi[i] - box.lo[i] for i in order if i in idxs]
            assert widths == sorted(widths)


def _budget_error(search, *args):
    with pytest.raises(SearchIncomplete) as info:
        search(*args)
    return info.value.node_count


@settings(max_examples=60, deadline=None)
@given(instance=_search_instance(), data=st.data())
def test_search_matches_interval_oracle_on_random_boxes(instance, data):
    # the culprit-first bound order, the stepped congruences and the merged
    # twins change neither the vectors, their order, nor the node count; a
    # budget below the total fails at the same count, also where it is
    # crossed at a node whose bounds leave no value or where twins' disjoint
    # intervals prune
    system, box = instance
    budget = solver.DEFAULT_NODE_BUDGET
    result = search(system, box, budget)
    assert result == interval_search(system, box, budget)
    total = result[1]
    if total:
        low = data.draw(st.integers(0, total - 1), label="budget")
        assert _budget_error(search, system, box, low) == _budget_error(
            interval_search, system, box, low
        )


@st.composite
def _offset_twins(draw, system):
    # a row that keeps a variable after the (V1) substitution, with a copy
    # on its direction at another constant and one mirrored, each bounding
    # a.x at least as widely as the row: the merge keeps the row's interval
    # and adds a constant row (0, g, g, g) with g != 0.  The offsets are
    # mostly multiples of n, which keep the row's congruence
    n = system.n
    members = [idxs for _d, idxs in sorted(system.layout.level_indices().items())]
    kept = [r for r in system.rows if any(solver._substitute(r.coeffs, r.const, members)[0])]
    base = draw(st.sampled_from(kept))
    k, m = draw(st.integers(1, 3)), base.upper // n + draw(st.integers(0, 2))
    r, u = draw(st.sampled_from([0, 0, 0, 1])), draw(st.integers(0, n))
    return (
        # 0 <= const + n k + r + a.x <= upper + n k + r + u
        ConstraintRow("twin", 0, base.coeffs, base.const + n * k + r, base.upper + n * k + r + u),
        # 0 <= n m - const - a.x <= n m + u, m >= upper / n
        ConstraintRow("twin", 0, tuple(-a for a in base.coeffs), n * m - base.const, n * m + u),
    )


def _enumerated_search(system, box, budget):
    # the (vectors in search order, node count) of enumerate_solutions' _search
    seen, real = [], solver._search

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(solver, "_search", recorded):
        rep = enumerate_solutions(system, box, budget)
    assert seen[0][1] == rep.node_count
    return seen[0]


def _reaches(cond, box):
    # whether some point of the box puts const + a.x in [lo, hi]
    reach = [sorted((a * lo, a * hi)) for a, lo, hi in zip(cond.coeffs, box.lo, box.hi)]
    low, high = (cond.const + sum(r) for r in zip(*reach)) if reach else (cond.const,) * 2
    return max(cond.lo, low) <= min(cond.hi, high)


@settings(max_examples=80, deadline=None)
@given(instance=_search_instance(), data=st.data())
def test_search_of_merged_rows_matches_raw_rows_on_random_boxes(instance, data):
    # enumerate_solutions searches the relaxation's merged rows, singleton
    # levels folded in at 1; the oracle substitutes every distinct row
    # again, and both pass the same group, the unit permutations that keep
    # the rows and the box.  On the drawn box and on the system's own LP box: the same
    # vectors in the same order and, where every merged row can hold in the
    # box, the same node count, and a budget below the total fails at the
    # same count.  A merged row that holds nowhere in the box leaves no
    # solution, and a raw row on its direction may stop the search at a
    # singleton level's node, before its first other variable
    system, box = instance
    system = replace(system, rows=system.rows + data.draw(_offset_twins(system)))
    directions = solver._prepared(system).directions
    assert any(not any(c.coeffs) and c.const == c.lo == c.hi != 0 for c in directions)
    budget = solver.DEFAULT_NODE_BUDGET
    for box in (box, derive_bounds(system)):
        result = _enumerated_search(system, box, budget)
        assert result[0] == raw_rows_search(system, box, budget)[0]
        # the merged rows as the search substitutes them: each level of two
        # or more loses its last variable in search order
        position = solver._search_order(system.layout, box).index
        levels = system.layout.level_indices().values()
        members = [sorted(idxs, key=position) for idxs in levels if len(idxs) > 1]
        if not all(_reaches(c, box) for c in solver._substitute_rows(directions, members)[0]):
            assert result[0] == []
            continue
        assert result[1] == raw_rows_search(system, box, budget)[1]
        if result[1]:
            low = data.draw(st.integers(0, result[1] - 1), label="budget")
            assert _budget_error(enumerate_solutions, system, box, low) == _budget_error(
                raw_rows_search, system, box, low
            )


@st.composite
def _substitution_instance(draw):
    # n, levels (*others, j) over at most 3 variables, and rows with twins on
    # their direction: at another constant, mirrored, or with a multiple of
    # a level's indicator added, which the substitution makes constant-shifted
    n, nvars = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    level_of = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    members = [[i for i in range(nvars) if level_of[i] == v] for v in range(2)]
    members = [idxs for idxs in members if idxs]
    ints = st.integers(-2 * n, 2 * n)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(st.lists(ints, min_size=nvars, max_size=nvars)))
        const, lo = draw(ints), draw(ints)
        rows.append(solver._Condition(coeffs, const, lo, lo + draw(st.integers(-1, 3 * n))))
        for kind in draw(st.lists(st.sampled_from(["shifted", "mirrored", "level"]), max_size=2)):
            if kind == "mirrored":
                coeffs, const = tuple(-a for a in coeffs), -const
            elif kind == "level" and members:
                idxs, m = draw(st.sampled_from(members)), draw(st.integers(-2, 2))
                coeffs = tuple(a + m * (i in idxs) for i, a in enumerate(coeffs))
            const += draw(ints)
            rows.append(solver._Condition(coeffs, const, draw(ints), draw(ints)))
    return n, tuple(rows), members


@settings(max_examples=150, deadline=None)
@given(instance=_substitution_instance())
# x_1 = 1 - x_0 makes (1, 2) the direction (-1, 0): constants 3, -5 and 6 on it, g = 1
@example(instance=(6, (_C((1, 2), 1, 0, 6), _C((-1, -2), 3, 0, 6), _C((1, 2), 4, -5, 9)), [[0, 1]]))
def test_substituted_rows_span_the_input_congruences(instance):
    # brute force over (Z/n)^(nvars+1): the rows _substitute_rows returns
    # span the module of the distinct (a, const) of its substituted input,
    # with one row per direction up to sign and the substituted variables
    # at 0, and holds reads the rows left constant
    n, rows, members = instance
    out, holds = solver._substitute_rows(rows, members)
    substituted = [solver._substitute(r.coeffs, r.const, members) for r in rows]
    d = len(rows[0].coeffs) + 1
    module = _span([[*a, c] for a, c in dict.fromkeys(substituted)], n, d)
    assert _span([[*c.coeffs, c.const] for c in out], n, d) == module
    directions = [c.coeffs for c in out if any(c.coeffs)]
    assert len({min(a, tuple(-x for x in a)) for a in directions}) == len(directions)
    assert not any(a[idxs[-1]] for a in directions for idxs in members)
    assert holds == all(r.lo <= c <= r.hi for r, (a, c) in zip(rows, substituted) if not any(a))


def test_singleton_level_wider_than_one():
    # a hand-made box that leaves a singleton level wider than {1}: the
    # merged rows see the singleton at its (V1) value 1 and the search
    # bounds it by its level equation alone, so the node count may differ
    # from the raw rows' search; the set is the per-candidate search's
    system = paper_system(19, 10)
    box = derive_bounds(system)
    [j] = next(idxs for idxs in system.layout.level_indices().values() if len(idxs) == 1)
    assert box.lo[j] == box.hi[j] == 1
    lo, hi = list(box.lo), list(box.hi)
    lo[j], hi[j] = -2, 3
    wide = BoundsBox(tuple(lo), tuple(hi))
    budget = solver.DEFAULT_NODE_BUDGET
    rep = enumerate_solutions(system, wide)
    dists = (distribution_from_vector(system.layout, v) for v in naive_search(system, wide, budget)[0])
    expected = [pa.sort_key() for pa in SolutionSet.build(dists)]
    assert [pa.sort_key() for pa in rep.solutions] == expected
    assert len(expected) == len(enumerate_solutions(system, box).solutions) == 4
    assert rep.node_count <= raw_rows_search(system, wide, budget)[1]


def test_every_budget_fails_where_the_interval_oracle_fails():
    # two nodes here die at a bound before their value loop, and three step
    # over every value of their range; each budget is crossed at node entry
    system = paper_system(19, 10)
    box = derive_bounds(system)
    total = search(system, box, solver.DEFAULT_NODE_BUDGET)[1]
    for budget in range(total):
        assert _budget_error(search, system, box, budget) == _budget_error(
            interval_search, system, box, budget
        )
    assert search(system, box, total)[1] == total


def test_search_repeats_identically():
    # the reordered bound lists live in one call: a second run sees the
    # lists as the first one did
    system = paper_system(31, 15)
    box = derive_bounds(system)
    budget = solver.DEFAULT_NODE_BUDGET
    assert search(system, box, budget) == search(system, box, budget)


def test_row_constant_after_substitution_and_violated_enumerates_nothing():
    # the sum over the d = 1 level is 1 on the (V1) hyperplane, and 1 != 0 mod n
    system = paper_system(19, 10)
    box = derive_bounds(system)
    idxs = system.layout.level_indices()[1]
    coeffs = tuple(int(i in idxs) for i in range(len(system.layout)))
    bad = replace(system, rows=system.rows + (ConstraintRow("level", 0, coeffs, 0, 10),))
    budget = solver.DEFAULT_NODE_BUDGET
    assert search(bad, box, budget) == ([], 0)
    assert naive_search(bad, box, budget)[0] == []


def test_contradicting_congruences_enumerate_nothing():
    # x_0 + 5 = 0 and x_0 + 6 = 0 mod 10 give 1 = 0: neither row's bounds
    # cut the box, the Howell form has a row on the constant alone, and the
    # search visits no node
    system = paper_system(19, 10)
    box = derive_bounds(system)
    e0 = tuple(int(i == 0) for i in range(len(system.layout)))
    extra = tuple(ConstraintRow("x", 0, e0, const, 20) for const in (5, 6))
    bad = replace(system, rows=system.rows + extra)
    budget = solver.DEFAULT_NODE_BUDGET
    assert search(bad, box, budget) == ([], 0) == interval_search(bad, box, budget)
    assert naive_search(bad, box, budget)[0] == []
    # one of the two alone leaves nodes to visit
    assert search(replace(system, rows=system.rows + extra[:1]), box, budget)[1] > 0


def _node_counts(cases):
    # the ids name the frame alone, so a re-pinned count keeps the test's name
    return pytest.mark.parametrize("q, n, nodes", cases, ids=[f"{q}-{n}" for q, n, _ in cases])


@_node_counts(
    [
        (13, 6, 11),
        (19, 10, 31),
        (29, 14, 85),
        (31, 15, 366),
        (43, 22, 116),
        (37, 18, 194),
        (53, 26, 168),
        (49, 24, 19733),
    ]
)
def test_search_node_counts_pinned(q, n, nodes):
    # (13,6), (19,10), (29,14) and (43,22) are verify-main's four systems,
    # whose stdout pins leave the node_count line out
    system = paper_system(q, n)
    box = derive_bounds(system)
    assert enumerate_solutions(system, box).node_count == nodes
    if (q, n) == (31, 15):
        with pytest.raises(SearchIncomplete):
            enumerate_solutions(system, box, node_budget=nodes - 1)
        rep = enumerate_solutions(system, box, node_budget=nodes)
        assert rep.node_count == nodes


@_node_counts([(19, 10, 31), (29, 14, 55), (43, 22, 113)])
def test_search_node_counts_pinned_brauer_p(q, n, nodes):
    # the same search on a second family, with more rows than paper
    assert solve_vpa(frame_for(q, n), "brauer-p").node_count == nodes


def test_search_q289_n12_paper():
    # 560 solutions; the digest of their sorted keys is the one the search
    # gave before the level substitution
    system = paper_system(289, 12)
    rep = enumerate_solutions(system, derive_bounds(system))
    keys = sorted(pa.sort_key() for pa in rep.solutions)
    assert len(keys) == 560
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "2c2ea703edb947f42dad9443043b1aa0757ffa51e1f6dd4300516b125373c256"
    assert rep.node_count == 47117


def test_search_q361_n12_paper():
    # 854 solutions in 85,473 nodes, about 0.1 s; the digest of their
    # sorted keys is the one the search gave before the rows left constant
    # by the (V1) substitution joined one constant row
    system = paper_system(361, 12)
    rep = enumerate_solutions(system, derive_bounds(system))
    keys = sorted(pa.sort_key() for pa in rep.solutions)
    assert len(keys) == 854
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "b1b08ee287531bfcb26f9f698c06b637955dda52d66e6e5c2b8cf32a49e7eede"
    assert rep.node_count == 85473


def test_search_q47_n24_paper():
    # ROADMAP item 3's target: the digest of the sorted keys is the one the
    # search in layout order gave, in 290,822,093 nodes and about 200 s
    rep = solve_vpa(frame_for(47, 24), "paper")
    keys = sorted(pa.sort_key() for pa in rep.solutions)
    assert len(keys) == 48
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "7ceeb8009d7e2de37917f4bfb3a8e832c7a10940db05f62c72e1a89545e0205c"
    assert rep.node_count == 31233


def _kept_and_unbroken(system, box):
    # enumerate_solutions' report, the group and kept vectors of its _search
    # call, and the distributions and node count of that call without the group
    seen, real = [], solver._search

    def recorded(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    with mock.patch.object(solver, "_search", recorded):
        rep = enumerate_solutions(system, box)
    [(args, (kept, _nodes))] = seen
    vectors, nodes = real(*args[:-1], ())
    order = solver._search_order(system.layout, box)
    layout = replace(system.layout, variables=tuple(system.layout.variables[i] for i in order))
    return rep, args[-1], kept, {distribution_from_vector(layout, v) for v in vectors}, nodes


def _orbit_leaders(system):
    # on the LP box: the group is every unit permutation, each kept vector is
    # least in search order among its images, the expanded set is the
    # unbroken search's, there is one kept vector per relabel orbit, and the
    # tree is no larger; returns (kept vectors, solutions)
    rep, group, kept, unbroken, nodes = _kept_and_unbroken(system, derive_bounds(system))
    assert len(group) == len(system.layout.unit_permutations())
    assert all(x <= tuple(x[i] for i in s) for x in kept for s in group)
    assert set(rep.solutions) == unbroken
    units = [u for u in range(1, system.n) if gcd(u, system.n) == 1]
    assert len(kept) == len({frozenset(relabel(pa, u) for u in units) for pa in unbroken})
    assert rep.node_count <= nodes
    return len(kept), len(rep.solutions)


def test_orbit_leaders_on_the_sweep_up_to_q43():
    # 150 of the 196 sweep systems, both presets: 548 solutions in 220 orbits
    counts = [
        _orbit_leaders(family_system(q, m, spec))
        for q, m in sweep_frames()
        if q <= 43
        for spec in ("paper", "brauer-p")
    ]
    assert len(counts) == 150
    assert tuple(map(sum, zip(*counts))) == (220, 548)


def test_orbit_leaders_q289_n12_paper():
    assert _orbit_leaders(paper_system(289, 12)) == (280, 560)


def test_a_box_drops_the_permutations_that_do_not_keep_it():
    # at paper (31,15) u = 2 and 7 swap eps_3(g^3) and eps_3(g^6), and u = 4
    # fixes both: a box with eps_3(g^3) = 1 keeps u = 4's permutation alone,
    # and its 6 solutions, pairs under u = 4, are the unbroken search's
    system = paper_system(31, 15)
    box = derive_bounds(system)
    assert system.layout.variables[7] == (3, frame_for(31, 15).class_of(3))
    narrowed = BoundsBox(box.lo[:7] + (1,) + box.lo[8:], box.hi)
    rep, group, kept, unbroken, _nodes = _kept_and_unbroken(system, narrowed)
    [perm] = [p for p in system.layout.unit_permutations() if p[7] == 7]
    order = solver._search_order(system.layout, narrowed)
    assert group == (tuple(order.index(perm[i]) for i in order),)
    assert set(rep.solutions) == unbroken and len(unbroken) == 6
    assert len(kept) == len({frozenset({pa, relabel(pa, 4)}) for pa in unbroken}) == 3


def test_search_leaves_no_reference_cycle():
    system = paper_system(31, 15)
    box = derive_bounds(system)
    gc.collect()
    gc.disable()
    try:
        search(system, box, solver.DEFAULT_NODE_BUDGET)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_relaxation_per_solve(monkeypatch):
    # the bounds, the search and the report's rank all read one relaxation
    # and one elimination of the system; the one rank gate is derive_bounds
    # calling rank_check, and the report reads rank_check once more
    counts, systems = Counter(), []

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    def build(*args):
        systems.append(build_constraints(*args))
        return systems[-1]

    for name in ("_relaxation", "_eliminate", "rank_check", "derive_bounds"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    monkeypatch.setattr(solver, "build_constraints", build)
    rep = solve_vpa(frame_for(19, 10), "paper")
    assert len(rep.solutions) == 4 and rep.complete
    assert counts == {"_relaxation": 1, "_eliminate": 1, "rank_check": 2, "derive_bounds": 1}
    # a second derive_bounds on the same system object eliminates nothing
    counts.clear()
    assert solver.derive_bounds(systems[0]) == rep.bounds
    assert counts == {"rank_check": 1, "derive_bounds": 1}


def test_relaxation_goes_with_its_system():
    # nothing but the system holds its relaxation, and the relaxation
    # refers to nothing that holds the system, so reference counting frees
    # the system without the cycle collector and drops the relaxation
    system = paper_system(19, 10)
    enumerate_solutions(system, derive_bounds(system))
    relaxation = solver._prepared(system)
    gone = weakref.ref(system)
    gc.disable()
    try:
        del system
        holders = sys.getrefcount(relaxation)
    finally:
        gc.enable()
    assert gone() is None
    assert holders == 2  # the name relaxation and getrefcount's argument


def test_node_budget_is_loud():
    fr = frame_for(19, 10)
    chars, fam = character_family(fr, "paper")
    system = build_constraints(fr, chars, fam)
    box = derive_bounds(system)
    with pytest.raises(SearchIncomplete):
        enumerate_solutions(system, box, node_budget=5)


@pytest.mark.parametrize("chars", [(), "brauer-p:1"], ids=["empty", "brauer-p:1"])
def test_rank_deficient_family_is_rejected(chars):
    # the family given is solved as given: no character is added to it
    fr = frame_for(19, 10)
    with pytest.raises(RankDeficientError, match="augment"):
        solve_vpa(fr, chars)


def test_enumerate_trivial_frame():
    fr = frame_for(19, 1)
    rep = solve_vpa(fr, "paper")
    assert len(rep.solutions) == 1
    assert rep.solutions.distributions[0].value(1, fr.identity) == 1


@pytest.mark.parametrize("spec", ["paper", "brauer-p"])
def test_empty_layout_runs_the_search(spec):
    # n = 1 has no variable: the general bounds and search paths give the
    # empty box, the empty vector and no node
    fr = frame_for(19, 1)
    rep = solve_vpa(fr, spec)
    assert (rep.bounds.lo, rep.bounds.hi) == ((), ())
    assert rep.node_count == 0 and rep.complete
    assert len(rep.solutions) == 1
    assert rep.solutions.distributions[0].value(1, fr.identity) == 1


def test_compare_sets_reports():
    fr = frame_for(19, 10)
    tpa = tpa_set(fr)
    both = SolutionSet.build(list(tpa) + list(exceptional_set(fr, 5)))
    diff = compare_sets(tpa, both)
    assert not diff.equal
    assert len(diff.only_expected) == 2 and not diff.only_found
    assert compare_sets(both, both).equal
    with pytest.raises(ValueError, match="different"):
        compare_sets(tpa, tpa_set(frame_for(41, 10)))


def test_character_family_unknown():
    fr = frame_for(19, 10)
    with pytest.raises(ValueError, match="unknown character family"):
        character_family(fr, "nope")


def test_character_family_degree_filter():
    fr = frame_for(19, 10)
    chars, fam = character_family(fr, "brauer-p:9")
    assert fam == "brauer-p:9"
    assert all(c.degree(fr) <= 9 for c in chars)
    assert len(chars) < 10
