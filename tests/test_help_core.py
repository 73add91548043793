"""Distribution model, multiplicity formula, and constraint assembly."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpzc import help_core, psl2
from helpzc.cyclotomic import divisors
from helpzc.help_core import (
    PADistribution,
    SolutionSet,
    V4Report,
    accumulated,
    build_constraints,
    check_wagner,
    distribution_from_vector,
    distributions_from_vectors,
    exceptional,
    exceptional_set,
    json_text,
    mu_minus,
    multiplicity,
    power_distribution,
    relabel,
    tpa_distribution,
    tpa_set,
    variable_layout,
    verify_v4,
)
from helpzc.psl2 import (
    CharRestriction,
    ClassLabel,
    brauer_irreducibles,
    make_context,
    make_frame,
)
from helpzc.solver import character_family

from helpers import (
    ProbedDistribution,
    check_brauer_items,
    dense_constraint_rows,
    dense_mu_sums,
    float_multiplicity,
    levels_distribution,
    mu1_accumulated_form,
    perturb_level_1,
    probed_power_distribution,
    probed_relabel,
    trace_row_v4,
    trace_rows,
)

TRIV = CharRestriction.trivial()
CHI2 = CharRestriction.brauer((2,))
CHI4 = CharRestriction.brauer((4,))


def frame_for(q, m):
    return make_frame(make_context(q), m)


def random_distribution(frame, rng):
    """A random integer distribution satisfying (V1)-(V3) via the layout."""
    layout = variable_layout(frame)
    values = []
    by_level = layout.level_indices()
    chosen = {}
    for d, idxs in by_level.items():
        vals = [rng.randrange(-2, 3) for _ in idxs[:-1]]
        vals.append(1 - sum(vals))
        for i, v in zip(idxs, vals):
            chosen[i] = v
    values = [chosen[i] for i in range(len(layout))]
    return distribution_from_vector(layout, values)


# ---------------------------------------------------------------- layout


def test_variable_layout_counts():
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    assert len(layout) == 8
    per_level = {d: len(v) for d, v in layout.level_indices().items()}
    assert per_level == {1: 5, 2: 2, 5: 1}
    assert len(variable_layout(frame_for(11, 5))) == 2
    assert len(variable_layout(frame_for(13, 2))) == 1
    assert len(variable_layout(frame_for(19, 1))) == 0


def test_layout_is_sorted_and_respects_v2_v3():
    fr = frame_for(29, 14)
    layout = variable_layout(fr)
    assert list(layout.variables) == sorted(
        layout.variables, key=lambda pair: (pair[0], pair[1].exp)
    )
    n = fr.m
    for d, cls in layout.variables:
        assert d != n
        assert cls.exp != 0
        assert (n // d) % cls.order == 0


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0])
def test_a_vector_of_non_ints_is_rejected(bad):
    # as exact_int rejects them: a bool or a float, zero included
    layout = variable_layout(frame_for(19, 10))
    vec = [0] * len(layout)
    vec[2] = bad
    with pytest.raises(ValueError, match="expected an integer"):
        distribution_from_vector(layout, vec)
    with pytest.raises(ValueError, match="expected an integer"):
        list(distributions_from_vectors(layout, [(0,) * len(layout), tuple(vec)]))
    with pytest.raises(ValueError, match="7 values for a layout of 8 variables"):
        distribution_from_vector(layout, [0] * (len(layout) - 1))


def test_a_layout_is_checked_as_the_constructor_checks_entries():
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    head = layout.variables[:-1]
    foreign = frame_for(29, 14).class_of(3)  # order 14, not a class of the order-10 frame
    for last, message in [
        ((1, foreign), "is not a class of the order-10 frame"),
        ((5, (2, 5)), "is not a class of the order-10 frame"),  # a plain tuple
        ((3, fr.class_of(1)), "level 3 does not divide the order 10"),
        (head[0], "the layout repeats a variable"),
    ]:
        bad = replace(layout, variables=head + (last,))
        with pytest.raises(ValueError, match=message):
            distribution_from_vector(bad, [0] * len(layout))
        with pytest.raises(ValueError, match=message):
            list(distributions_from_vectors(bad, []))


def test_distributions_from_vectors_match_the_validating_constructor():
    # the per-layout plan against PADistribution(frame, levels), on a layout
    # in reverse order, every entry and its class label included
    rng = random.Random(5)
    for fr in (frame_for(19, 10), frame_for(29, 14), frame_for(289, 12)):
        layout = variable_layout(fr)
        layout = replace(layout, variables=layout.variables[::-1])
        vectors = [tuple(rng.randrange(-2, 3) for _ in layout.variables) for _ in range(30)]
        for pa, vec in zip(distributions_from_vectors(layout, vectors), vectors):
            want = levels_distribution(layout, vec)
            assert pa._entries == want._entries and pa._ident == want._ident
            assert [type(cls) for _d, cls, _v in pa.entries()] == [ClassLabel] * len(want._entries)


# ---------------------------------------------------------------- constructors


def test_tpa_set_counts():
    assert len(tpa_set(frame_for(19, 10))) == 2
    assert len(tpa_set(frame_for(13, 6))) == 1
    assert len(tpa_set(frame_for(11, 5))) == 2
    assert len(tpa_set(frame_for(29, 14))) == 3


def test_tpa_of_identity_order_one():
    ss = tpa_set(frame_for(19, 1))
    assert len(ss) == 1
    pa = ss.distributions[0]
    assert pa.value(1, pa.frame.identity) == 1
    assert pa.violations() == []


def test_tpa_satisfies_conditions():
    for q, n in [(19, 10), (13, 6), (29, 14)]:
        for pa in tpa_set(frame_for(q, n)):
            assert pa.violations() == []


def test_exceptional_instantiation_t5():
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    expected = {
        (1, 2): 1,
        (1, 3): 1,
        (1, 4): -1,
        (2, 2): 1,
        (5, 5): 1,
        (10, 0): 1,
    }
    got = {(d, cls.exp): v for d, cls, v in pa.entries()}
    assert got == expected
    assert sum(v for (d, _e), v in got.items() if d == 1) == 1
    assert pa.violations() == []


def test_exceptional_alternate_representative():
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5, g0exp=3)
    # level 2 sits at the class of g0^6, canonical exponent 4
    assert pa.value(2, fr.class_of(4)) == 1
    assert pa.violations() == []
    assert pa != exceptional(fr, 5)


def test_exceptional_requires_t_at_least_5():
    fr = frame_for(13, 6)
    with pytest.raises(ValueError, match="requires t >= 5"):
        exceptional(fr, 3)


def test_exceptional_set_counts():
    assert len(exceptional_set(frame_for(19, 10), 5)) == 2
    assert len(exceptional_set(frame_for(29, 14), 7)) == 3
    assert len(exceptional_set(frame_for(41, 10), 5)) == 2


# ---------------------------------------------------------------- multiplicity


def test_multiplicity_trivial_character_on_tpa():
    fr = frame_for(19, 10)
    pa = tpa_distribution(fr, 1)
    for l in range(10):
        assert multiplicity(pa, TRIV, l) == (1 if l == 0 else 0)


def test_multiplicity_psi_on_exceptional():
    # mu(zeta^l, exceptional, psi_h) = (q - eps) / 2t for every l
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    for h in (1, 2, 3):
        for l in range(10):
            assert multiplicity(pa, CharRestriction.psi(h), l) == 2


def test_multiplicity_phi2_on_exceptional_direct_value():
    # Direct evaluation of the multiplicity formula; cross-checked numerically.
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    chi = CharRestriction.phi(2)
    got = [multiplicity(pa, chi, l) for l in range(10)]
    assert got == [2, 3, 2, 1, 1, 2, 1, 1, 2, 3]
    for l, mu in enumerate(got):
        assert abs(float_multiplicity(pa, chi, l) - float(mu)) < 1e-9
    assert sum(got) == chi.degree(fr)


def test_multiplicity_matches_float_oracle():
    fr = frame_for(19, 10)
    rng = random.Random(3)
    pas = [tpa_distribution(fr, 1), exceptional(fr, 5)] + [
        random_distribution(fr, rng) for _ in range(5)
    ]
    chars = [TRIV, CHI2, CHI4, CharRestriction.phi(1), CharRestriction.phi(5),
             CharRestriction.psi(1), CharRestriction.brauer((6,))]
    for pa in pas:
        for chi in chars:
            for l in range(10):
                exact = multiplicity(pa, chi, l)
                assert abs(float_multiplicity(pa, chi, l) - float(exact)) < 1e-8


def test_total_multiplicity_identity():
    fr = frame_for(19, 10)
    rng = random.Random(5)
    chars = [TRIV, CHI2, CHI4, CharRestriction.phi(3), CharRestriction.psi(1)]
    for _ in range(20):
        pa = random_distribution(fr, rng)
        for chi in chars:
            assert sum(multiplicity(pa, chi, l) for l in range(10)) == chi.degree(fr)


def test_verify_v4_exceptional_brauer_family():
    ctx = make_context(19)
    fr = make_frame(ctx, 10)
    chars = brauer_irreducibles(ctx, fr)
    assert len(chars) == 10
    report = verify_v4(exceptional(fr, 5), chars)
    assert report.ok
    assert len(report.checks) == 100


def brauer_and_paper(fr):
    return character_family(fr, "brauer-p")[0] + character_family(fr, "paper")[0]


def assert_v4_matches_multiplicity(pa, chars):
    report = verify_v4(pa, chars)
    expected = [(chi.label, l, multiplicity(pa, chi, l)) for chi in chars for l in range(pa.n)]
    assert report.n == pa.n
    assert [(label, l, Fraction(s, pa.n)) for label, l, s in report.checks] == expected
    assert all(type(s) is int for _label, _l, s in report.checks)
    assert report.ok == all(mu >= 0 and mu.denominator == 1 for _label, _l, mu in expected)
    return report


@pytest.mark.parametrize("q,n", [(19, 10), (29, 14)])
def test_verify_v4_values_equal_multiplicity(q, n):
    fr = frame_for(q, n)
    chars = brauer_and_paper(fr)
    rng = random.Random(q)
    base = list(tpa_set(fr)) + list(exceptional_set(fr, n // 2))
    for pa in base + [perturb_level_1(pa, rng) for pa in base]:
        assert_v4_matches_multiplicity(pa, chars)


FRAME_19_10 = frame_for(19, 10)
V3_PAIRS = [
    (d, cls) for d in divisors(10) for cls in FRAME_19_10.classes_of_order_dividing(10 // d)
]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=len(V3_PAIRS), max_size=len(V3_PAIRS)))
def test_verify_v4_on_v3_valid_distributions(values):
    # (V1) and (V2) may fail: `check` evaluates (V4) whenever (V3) holds
    levels: dict = {}
    for (d, cls), v in zip(V3_PAIRS, values):
        levels.setdefault(d, {})[cls] = v
    pa = PADistribution(FRAME_19_10, levels)
    chars = brauer_and_paper(FRAME_19_10)
    report = assert_v4_matches_multiplicity(pa, chars)
    for chi, (_label, l, s) in zip([chi for chi in chars for _l in range(10)], report.checks):
        assert abs(float_multiplicity(pa, chi, l) - s / pa.n) < 1e-8


@pytest.mark.parametrize(
    "levels, value",
    [
        (lambda v: {10: {FRAME_19_10.identity: 1}, v: {FRAME_19_10.class_of(1): 1}}, v)
        for v in (1.0, "1", True)
    ]
    + [(lambda v: {1: {FRAME_19_10.class_of(1): v}}, v) for v in (2.7, "3", True)],
    ids=["level-float", "level-str", "level-bool", "value-float", "value-str", "value-bool"],
)
def test_distribution_rejects_non_integers(levels, value):
    # the value 2.7 was stored as 2 and "3" as 3; the level True was level 1
    with pytest.raises(ValueError, match=f"expected an integer, got {value!r}"):
        PADistribution(FRAME_19_10, levels(value))


def test_distribution_equality_ignores_order_and_zeros():
    # the key is computed once at construction; equality and hash read it
    fr = frame_for(19, 10)
    a = PADistribution(fr, {10: {fr.identity: 1}, 2: {fr.class_of(5): 1}})
    b = PADistribution(fr, {2: {fr.class_of(1): 0, fr.class_of(5): 1}, 10: {fr.identity: 1},
                            5: {}})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.sort_key() == b.sort_key() == ((2, 5, 1), (10, 0, 1))
    other = PADistribution(fr, {10: {fr.identity: 1}, 2: {fr.class_of(5): 2}})
    assert a != other
    far = frame_for(41, 10)
    assert a != PADistribution(far, {10: {far.identity: 1}, 2: {far.class_of(5): 1}})


def test_verify_v4_rejects_v3_violation():
    fr = frame_for(19, 10)
    pa = PADistribution(fr, {10: {fr.identity: 1}, 2: {fr.class_of(1): 1}})
    with pytest.raises(ValueError, match="subframe"):
        verify_v4(pa, [CharRestriction.phi(1)])


def test_verify_v4_takes_eigen_counts_off_the_digit_chain_only(monkeypatch):
    # at prime q each chi_(r+2) after chi_r takes chi_r's counts and the two
    # eigenvalues its digit adds, so only the first character of brauer-p
    # expands a digit box; walked backwards no character extends the one
    # before it, so each does
    fr = frame_for(19, 10)
    chars = brauer_irreducibles(fr.ctx, fr)
    pa = perturb_level_1(exceptional(fr, 5), random.Random(1))
    families = [(chars, chars[:1]), (chars[::-1], chars[::-1])]
    expected = [trace_row_v4(pa, family) for family, _expanded in families]
    value_calls, count_calls = [], []
    original_value, original_counts = help_core.char_value, psl2.eigen_counts

    def counted_value(*args):
        value_calls.append(args)
        return original_value(*args)

    def counted_counts(frame, chi):
        count_calls.append(chi)
        return original_counts(frame, chi)

    monkeypatch.setattr(help_core, "char_value", counted_value)
    monkeypatch.setattr(psl2, "eigen_counts", counted_counts)
    for (family, expanded), report in zip(families, expected):
        count_calls.clear()
        assert verify_v4(pa, family) == report
        assert count_calls == list(expanded)
    assert value_calls == []


# odd orders too, where the mirror l -> n - l has no self-paired l = n / 2;
# (49, 25): q = 7^2 and a frame of prime-power order, two levels below n
ORACLE_FRAMES = [
    frame_for(q, n) for q, n in [(19, 10), (53, 26), (25, 12), (81, 20), (19, 9), (49, 25)]
]


@st.composite
def v3_valid_distributions(draw, frames=ORACLE_FRAMES):
    """A frame of frames and random values on every (V3)-allowed entry;
    (V1) and (V2) may fail, as `check` evaluates (V4) whenever (V3) holds."""
    fr = draw(st.sampled_from(frames))
    n = fr.m
    levels: dict = {}
    for d in divisors(n):
        for cls in fr.classes_of_order_dividing(n // d):
            levels.setdefault(d, {})[cls] = draw(st.integers(-2, 2))
    return PADistribution(fr, levels)


@settings(max_examples=60, deadline=None)
@given(v3_valid_distributions(), st.sampled_from(["paper", "brauer-p"]))
def test_verify_v4_matches_trace_row_oracle(pa, family):
    chars, _ = character_family(pa.frame, family)
    report = verify_v4(pa, chars)
    assert report == trace_row_v4(pa, chars)
    assert all(type(s) is int for _label, _l, s in report.checks)


# n = 1 and n = 2: the real half is the whole table, every h = -h
@pytest.mark.parametrize("q,n", [(13, 1), (13, 2)])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), family=st.sampled_from(["paper", "brauer-p"]))
def test_verify_v4_matches_trace_row_oracle_at_orders_1_and_2(q, n, data, family):
    pa = data.draw(v3_valid_distributions([frame_for(q, n)]))
    chars, _ = character_family(pa.frame, family)
    assert verify_v4(pa, chars) == trace_row_v4(pa, chars)


# sha256 of the verify_v4 reports of the 44 check-brauer items of seeds 0-2,
# recorded before a character's sums came from its predecessor's; step -1
# walks the family backwards
@pytest.mark.parametrize(
    "family, step, digest",
    [
        ("brauer-p", 1, "0115f74c0141472e9ba84c8ccc810baf58e1f971514a86e981060ae530e7a5bb"),
        ("brauer-p", -1, "9ec444bc63c8aeb5da90c15f218d85cd8ebdbceda4e59897a7dca56623177906"),
        ("paper", 1, "d6973bedd12d75e10daf92fb0e9ff719832b92c52db528f9e94e808ce72dbaf2"),
    ],
    ids=["brauer-p", "brauer-p-reversed", "paper"],
)
def test_verify_v4_reports_pinned(family, step, digest):
    h = hashlib.sha256()
    for seed in range(3):
        for pa in check_brauer_items(seed):
            chars = character_family(pa.frame, family)[0][::step]
            h.update(repr(verify_v4(pa, iter(chars))).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("q,n", [(19, 10), (53, 26)])
def test_build_constraints_takes_eigen_counts_once_per_character(monkeypatch, q, n):
    fr = frame_for(q, n)
    chars, _ = character_family(fr, "paper")
    expected = build_constraints(fr, chars)
    value_calls, count_calls = [], []
    original_value, original_counts = help_core.char_value, psl2.eigen_counts

    def counted_value(*args):
        value_calls.append(args)
        return original_value(*args)

    def counted_counts(frame, chi):
        count_calls.append(chi)
        return original_counts(frame, chi)

    monkeypatch.setattr(help_core, "char_value", counted_value)
    monkeypatch.setattr(psl2, "eigen_counts", counted_counts)
    assert build_constraints(fr, chars) == expected
    assert value_calls == []
    # chi_4 follows chi_2 with its digit raised by 2, so it takes chi_2's counts
    assert count_calls == [chi for chi in chars if chi != CHI4]


@pytest.mark.parametrize("family", ["paper", "brauer-p"])
@pytest.mark.parametrize(
    "fr", [*ORACLE_FRAMES, frame_for(13, 1), frame_for(13, 2)], ids=lambda fr: f"{fr.ctx.q}-{fr.m}"
)
def test_build_constraints_matches_trace_row_oracle(fr, family):
    chars, _ = character_family(fr, family)
    layout = variable_layout(fr)
    system = build_constraints(fr, chars)
    expected = [
        (chi.label, l, row, chi.degree(fr), fr.m * chi.degree(fr))
        for chi in chars
        for l, row in enumerate(trace_rows(fr, chi, layout.variables))
    ]
    rows = [(r.character, r.l, r.coeffs, r.const, r.upper) for r in system.rows]
    assert rows == expected
    assert rows == dense_constraint_rows(fr, chars)
    # every character is real on <g0>: row l of a character equals row n - l
    n = fr.m
    for start in range(0, len(system.rows), n):
        coeffs = [r.coeffs for r in system.rows[start : start + n]]
        assert all(coeffs[l] == coeffs[-l] for l in range(n))


@st.composite
def counts_and_table(draw, kind):
    """A count vector of the given kind and an integer table with one row per count.

    ties: two or three values, each equally often; constant: one value;
    distinct: no value twice; any: small values, repeats allowed.  Every
    kind may hold negative entries.
    """
    if kind == "ties":
        values = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=3, unique=True))
        counts = draw(st.permutations(values * draw(st.integers(1, 4))))
    elif kind == "constant":
        counts = [draw(st.integers(-6, 6))] * draw(st.integers(1, 10))
    elif kind == "distinct":
        counts = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=10, unique=True))
    else:
        counts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
    width = draw(st.integers(1, 8))
    row = st.lists(st.integers(-30, 30), min_size=width, max_size=width)
    table = draw(st.lists(row, min_size=len(counts), max_size=len(counts)))
    return counts, table


FAMILY_KINDS = [
    "chain", "repeated", "reversed", "constant-between", "random", "empty-family", "empty-table",
]


@st.composite
def family_and_table(draw, kind):
    """A family of count vectors of the given kind and an integer table.

    ties, constant, distinct, any: one vector of that kind (counts_and_table);
    chain: each vector its predecessor with up to three counts redrawn, so
    repeats and one-count steps are common; repeated: each vector one to
    three times in a row; reversed: a chain, then the same backwards;
    constant-between: a constant vector between two others; random:
    unrelated vectors; empty-family: none; empty-table: vectors over a table
    whose rows are empty, as at n = 1 with no variables.
    """
    counts, table = draw(counts_and_table("any" if kind in FAMILY_KINDS else kind))
    if kind not in FAMILY_KINDS:
        return [counts], table
    size = len(counts)
    vector = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    if kind == "empty-family":
        return [], table
    if kind == "empty-table":
        return [counts, *draw(st.lists(vector, max_size=4))], [[] for _ in counts]
    if kind == "constant-between":
        return [counts, [draw(st.integers(-3, 3))] * size, draw(vector)], table
    if kind == "random":
        return [counts, *draw(st.lists(vector, min_size=1, max_size=5))], table
    family = [counts]
    for _ in range(draw(st.integers(1, 6))):
        step = list(family[-1])
        for h in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            step[h] = draw(st.integers(-3, 3))
        family.append(step)
    if kind == "repeated":
        family = [c for c in family for _ in range(draw(st.integers(1, 3)))]
    if kind == "reversed":
        family += family[::-1]
    return family, table


@pytest.mark.parametrize("kind", ["ties", "constant", "distinct", "any", *FAMILY_KINDS])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mu_sums_match_dense_oracle(kind, data):
    # the family as a walk (psl2.family_walk): the first vector restarts,
    # each later one restarts or adds its differences from the one before,
    # as drawn.  The four single-vector kinds take the residual; any split
    # count gives the same integers, so the choice among tied most common
    # values, and between the two references, does not show
    family, table = data.draw(family_and_table(kind))
    walk = []
    for i, counts in enumerate(family):
        if i == 0 or data.draw(st.booleans(), label="restart"):
            walk.append((counts, ()))
        else:
            prev = family[i - 1]
            walk.append((None, [(h, w - v) for h, (w, v) in enumerate(zip(counts, prev)) if w != v]))
    before = (repr(walk), [list(row) for row in table])
    sums = list(help_core._family_sums(iter(walk), table))
    assert sums == [dense_mu_sums(counts, table) for counts in family]
    assert (repr(walk), table) == before  # the kernel writes none of its inputs


def test_verify_v4_takes_one_row_pass_per_brauer_character(monkeypatch):
    # consecutive brauer-p characters differ in one count of the real half,
    # so after the first each costs one pass over one table row
    pa = check_brauer_items(0)[1]  # (43, 22)
    chars = character_family(pa.frame, "brauer-p")[0]
    passes = []

    class Row(list):
        def __iter__(self):
            passes.append(self)
            return super().__iter__()

    table = help_core._eigen_table
    monkeypatch.setattr(help_core, "_eigen_table", lambda *a: [Row(r) for r in table(*a)])
    assert verify_v4(pa, chars) == trace_row_v4(pa, chars)
    family_passes = len(passes)
    passes.clear()
    verify_v4(pa, chars[:1])
    assert family_passes - len(passes) == len(chars) - 1


@pytest.mark.parametrize("q,n,r", [(19, 10, 10), (19, 9, 18)])
def test_a_self_paired_raise_takes_one_row_pass(monkeypatch, q, n, r):
    # chi_r after chi_(r-2) adds zeta^(+-r/2), and both land on the one row
    # h = r/2 mod n with h = -h mod n: h = n/2 at (19,10), h = 0 at (19,9);
    # chi_r then costs one pass over that row, at weight 2
    fr = frame_for(q, n)
    pa = random_distribution(fr, random.Random(r))
    chars = [CharRestriction.brauer([r - 2]), CharRestriction.brauer([r])]
    passes = []

    class Row(list):
        def __iter__(self):
            passes.append(self)
            return super().__iter__()

    table = help_core._eigen_table
    monkeypatch.setattr(help_core, "_eigen_table", lambda *a: [Row(row) for row in table(*a)])
    assert verify_v4(pa, chars) == trace_row_v4(pa, chars)
    family_passes = len(passes)
    passes.clear()
    verify_v4(pa, chars[:1])
    assert family_passes - len(passes) == 1


def test_distribution_accepts_exactly_the_frame_classes():
    # the class set is kept per frame; a second frame of the same order
    # (another q) has equal labels, a frame of another order does not
    fr, twin, other = frame_for(19, 10), frame_for(41, 10), frame_for(23, 12)
    for frame in (fr, twin, fr):
        for cls in (*fr.classes(), *twin.classes()):
            assert PADistribution(frame, {1: {cls: 1}}).value(1, cls) == 1
        bad = [
            ClassLabel(order=10, exp=9),  # exponent not canonical: 9 = -1 mod 10
            ClassLabel(order=5, exp=1),  # wrong order for exp 1
            ClassLabel(order=1, exp=10),  # exponent not reduced mod 10
            other.class_of(5),  # order 12 at exp 5
            other.class_of(6),  # exp 6 beyond 10 / 2
            (10, 1),  # equal to the label of g0, but a plain tuple
        ]
        for cls in bad:
            with pytest.raises(ValueError, match="is not a class of the order-10 frame"):
                PADistribution(frame, {1: {cls: 1}})


def test_v3_violation_raises_for_every_character():
    # eps_2(g0) = 1: g0 does not have order dividing 10 / 2
    fr = frame_for(19, 10)
    pa = PADistribution(fr, {10: {fr.identity: 1}, 2: {fr.class_of(1): 1}})
    chars = [TRIV, *character_family(fr, "paper")[0], *brauer_irreducibles(fr.ctx, fr)]
    for chi in chars:
        for call in (
            lambda: multiplicity(pa, chi, 0),
            lambda: mu_minus(pa, chi, 1),
            lambda: mu_minus(pa, chi, 5),
            lambda: verify_v4(pa, [chi]),
        ):
            with pytest.raises(ValueError, match="not supported on the requested subframe"):
                call()


def test_verify_v4_tpa_always_passes():
    ctx = make_context(19)
    fr = make_frame(ctx, 10)
    chars = list(brauer_irreducibles(ctx, fr)) + [
        CharRestriction.phi(h) for h in range(1, 6)
    ] + [CharRestriction.psi(1), TRIV]
    for pa in tpa_set(fr):
        assert verify_v4(pa, chars).ok


def test_verify_v4_rejects_bad_distribution():
    # eps_1(g0) = 2, eps_1(g0^3) = -1, other levels like a group element
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    vec = [0] * len(layout)
    vec[layout.index(1, fr.class_of(1))] = 2
    vec[layout.index(1, fr.class_of(3))] = -1
    vec[layout.index(2, fr.class_of(2))] = 1
    vec[layout.index(5, fr.class_of(5))] = 1
    pa = distribution_from_vector(layout, vec)
    assert pa.violations() == []
    report = verify_v4(pa, [CHI2])
    assert not report.ok


def test_v4_report_ok_is_derived_from_its_sums():
    # ok when every n * mu is a nonnegative multiple of n
    assert V4Report(10, ()).ok is True
    assert V4Report(10, (("chi", (10, 0, 20)),)).ok
    assert not V4Report(10, (("chi", (10, 0)), ("psi", (-10,)))).ok
    assert not V4Report(10, (("chi", (5,)),)).ok
    assert V4Report(10, (("chi", (10, 0)), ("psi", (5,)))).checks == (
        ("chi", 0, 10), ("chi", 1, 0), ("psi", 0, 5))


# ---------------------------------------------------------------- mu_minus


def test_mu_minus_trivial_cases():
    fr = frame_for(19, 10)
    rng = random.Random(9)
    for _ in range(10):
        pa = random_distribution(fr, rng)
        assert mu_minus(pa, TRIV, 1) == 1
        for chi in (TRIV, CHI2, CharRestriction.phi(2)):
            assert mu_minus(pa, chi, 10) == Fraction(chi.degree(fr), 10)


def test_mu_minus_concentrated_form():
    # with eps_r concentrated, mu_r^- = (chi(1) + Tr_{Q(zeta_t)}(chi(g0^r))) / (r t)
    fr = frame_for(19, 10)
    for pa in [tpa_distribution(fr, 1), exceptional(fr, 5)]:
        for chi in (CHI2, CHI4, CharRestriction.phi(1)):
            from helpzc.psl2 import char_value

            lhs = mu_minus(pa, chi, 2)
            rhs = Fraction(
                chi.degree(fr) + char_value(fr, chi, fr.class_of(2)).descend(2).trace(), 10
            )
            assert lhs == rhs


# ---------------------------------------------------------------- power map


def test_power_distribution_edges():
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    assert power_distribution(pa, 10) == pa
    unit = power_distribution(pa, 1)
    assert unit.n == 1
    assert unit.value(1, unit.frame.identity) == 1


def test_power_of_tpa_is_tpa_of_power():
    # the order-5 subframe is generated by g0^2, so the square of g0 has exponent 1 there
    fr = frame_for(19, 10)
    sub = frame_for(19, 5)
    assert power_distribution(tpa_distribution(fr, 1), 5) == tpa_distribution(sub, 1)
    # g0^3 squares to g0^6 = (g0^2)^3 ~ (g0^2)^2, canonical exponent 2
    assert power_distribution(tpa_distribution(fr, 3), 5) == tpa_distribution(sub, 2)
    for pushed in (power_distribution(tpa_distribution(fr, 1), 5),):
        assert pushed.violations() == []


def test_power_map_multiplicity_identity():
    # mu(zeta_m^l, pa^(n/m), chi) = sum over l' = l mod m of mu(zeta_n^l', pa, chi)
    fr = frame_for(19, 10)
    rng = random.Random(21)
    chars = [TRIV, CHI2, CHI4, CharRestriction.brauer((6,))]
    for _ in range(25):
        pa = random_distribution(fr, rng)
        for m in divisors(10):
            sub = power_distribution(pa, m)
            for chi in chars:
                for l in range(m):
                    lhs = multiplicity(sub, chi, l)
                    rhs = sum(multiplicity(pa, chi, lp) for lp in range(l, 10, m))
                    assert lhs == rhs


def test_power_map_multiplicity_identity_phi():
    # same identity for phi/psi on subframes where they stay valid (m does not divide h)
    fr = frame_for(19, 10)
    rng = random.Random(22)
    for _ in range(10):
        pa = random_distribution(fr, rng)
        for m in (2, 5, 10):
            sub = power_distribution(pa, m)
            for h in (1, 3):
                if h % m == 0:
                    continue
                for chi in (CharRestriction.phi(h), CharRestriction.psi(h)):
                    for l in range(m):
                        lhs = multiplicity(sub, chi, l)
                        rhs = sum(multiplicity(pa, chi, lp) for lp in range(l, 10, m))
                        assert lhs == rhs


# ---------------------------------------------------------------- entry readers

PROBE_FRAMES = [(19, 10), (31, 15), (289, 12), (49, 24)]


@st.composite
def level_mappings(draw):
    """A frame and a sparse level mapping: zero and negative values included,
    and, unless the cells are drawn from the (V3) support, entries that break
    (V2) or (V3)."""
    q, n = draw(st.sampled_from(PROBE_FRAMES))
    fr = frame_for(q, n)
    if draw(st.booleans()):
        cells = [(d, cls) for d in divisors(n) for cls in fr.classes()]
    else:
        cells = [(d, cls) for d in divisors(n) for cls in fr.classes_of_order_dividing(n // d)]
    levels = {}
    for d, cls in draw(st.lists(st.sampled_from(cells), unique=True, max_size=14)):
        levels.setdefault(d, {})[cls] = draw(st.integers(-3, 3))
    return fr, levels


@settings(max_examples=80, deadline=None)
@given(level_mappings())
def test_entry_readers_match_the_probing_oracle(case):
    fr, levels = case
    n = fr.m
    pa = PADistribution(fr, levels)
    probe = ProbedDistribution(fr, levels)
    assert list(pa.entries()) == list(probe.entries())
    for d in divisors(n):
        for cls in fr.classes():
            assert pa.value(d, cls) == levels.get(d, {}).get(cls, 0)
    assert pa.violations() == probe.violations()
    for m in divisors(n):
        try:
            expected = probed_power_distribution(probe, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                power_distribution(pa, m)
            assert str(raised.value) == str(exc)
        else:
            assert power_distribution(pa, m) == expected
    for c in range(1, n):
        if gcd(c, n) == 1:
            assert relabel(pa, c) == probed_relabel(probe, c)


def test_solution_set_keeps_distributions_of_every_frame():
    small = tpa_set(frame_for(19, 10))
    large = tpa_set(frame_for(41, 10))
    both = SolutionSet.build([*small, *large])
    assert len(both) == 4
    assert [pa.q for pa in both] == [19, 19, 41, 41]
    assert both.distributions == SolutionSet.build([*large, *small]).distributions
    assert both.distributions[:2] == small.distributions


# ---------------------------------------------------------------- misc ops


def test_accumulated_values():
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    assert accumulated(pa, 1, 5) == 0
    assert accumulated(pa, 1, 10) == 1
    assert accumulated(pa, 1, 2) == 0
    tpa = tpa_distribution(fr, 1)
    assert accumulated(tpa, 1, 10) == 1


def test_check_wagner():
    fr = frame_for(19, 10)
    assert check_wagner(exceptional(fr, 5), 2, 5)
    assert check_wagner(tpa_distribution(fr, 1), 2, 5)
    layout = variable_layout(fr)
    vec = [0] * len(layout)
    # eps_1 concentrated on one order-5 class: accumulated eps_1(5) = 1, not divisible by 5
    vec[layout.index(1, fr.class_of(2))] = 1
    vec[layout.index(2, fr.class_of(2))] = 1
    vec[layout.index(5, fr.class_of(5))] = 1
    assert not check_wagner(distribution_from_vector(layout, vec), 2, 5)


def test_mu1_accumulated_form_agrees_with_multiplicity():
    fr = frame_for(19, 10)
    chars = [CHI2, CHI4, CharRestriction.phi(1), CharRestriction.phi(5), TRIV]
    for pa in [exceptional(fr, 5), tpa_distribution(fr, 1), tpa_distribution(fr, 3)]:
        for chi in chars:
            assert mu1_accumulated_form(pa, chi, 2, 5) == multiplicity(pa, chi, 0)


def test_mu1_closed_form_values():
    # mu(1, pa, chi_2) = 1 - 2 eps~_1(2)/2 and mu(1, pa, chi_4) = 1 - 2 eps~_1(5)/5
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    assert multiplicity(pa, CHI2, 0) == 1 - Fraction(2 * accumulated(pa, 1, 2), 2)
    assert multiplicity(pa, CHI4, 0) == 1 - Fraction(2 * accumulated(pa, 1, 5), 5)


def test_mu1_accumulated_form_requires_concentration():
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    vec = [0] * len(layout)
    vec[layout.index(1, fr.class_of(1))] = 1
    vec[layout.index(2, fr.class_of(2))] = 2
    vec[layout.index(2, fr.class_of(4))] = -1
    vec[layout.index(5, fr.class_of(5))] = 1
    pa = distribution_from_vector(layout, vec)
    with pytest.raises(ValueError, match="concentrated"):
        mu1_accumulated_form(pa, CHI2, 2, 5)


def test_relabel():
    fr = frame_for(19, 10)
    pa = exceptional(fr, 5)
    assert relabel(pa, 1) == pa
    assert relabel(pa, -1) == pa
    assert relabel(pa, 9) == pa
    assert relabel(pa, 3) == exceptional(fr, 5, g0exp=3)
    assert relabel(relabel(pa, 3), 7) == pa  # 3 * 7 = 21 = 1 mod 10
    with pytest.raises(ValueError, match="coprime"):
        relabel(pa, 5)


def test_relabel_commutes_with_power_and_preserves_v4():
    fr = frame_for(19, 10)
    rng = random.Random(41)
    chars = [CHI2, CHI4]
    for _ in range(10):
        pa = random_distribution(fr, rng)
        assert power_distribution(relabel(pa, 3), 5) == relabel(power_distribution(pa, 5), 3)
        before = verify_v4(pa, chars)
        after = verify_v4(relabel(pa, 3), chars)
        assert before.ok == after.ok


# ---------------------------------------------------------------- constraint rows


def test_constraint_row_constants_and_counts():
    fr = frame_for(19, 10)
    chars = [TRIV, CHI2, CharRestriction.phi(1)]
    system = build_constraints(fr, chars, family="test")
    assert len(system.rows) == 3 * 10
    for row in system.rows:
        chi = next(c for c in chars if c.label == row.character)
        assert row.const == chi.degree(fr)
        assert row.upper == 10 * chi.degree(fr)


def test_constraint_coefficient_specialized_trace():
    # coefficient of the (d=2, g0^2) variable in the chi_2 row at l equals
    # the trace of chi_2(g0^2) zeta_10^(-2l) over Q(zeta_5): t*w_l - 3 with t=5
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    system = build_constraints(fr, [CHI2])
    var = layout.index(2, fr.class_of(2))
    expected = {0: 2, 1: 2, 2: -3, 3: -3, 4: 2}
    for row in system.rows:
        lmod = row.l % 5
        assert row.coeffs[var] == expected[lmod]


def test_rows_evaluate_to_n_times_multiplicity():
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    chars = [TRIV, CHI2, CHI4, CharRestriction.phi(2), CharRestriction.psi(1)]
    system = build_constraints(fr, chars)
    rng = random.Random(55)
    for _ in range(10):
        pa = random_distribution(fr, rng)
        vec = [pa.value(d, cls) for d, cls in layout.variables]
        for row in system.rows:
            chi = next(c for c in chars if c.label == row.character)
            value = row.const + sum(a * x for a, x in zip(row.coeffs, vec))
            assert Fraction(value, 10) == multiplicity(pa, chi, row.l)


# ---------------------------------------------------------------- serialization


def test_json_round_trip():
    fr = frame_for(19, 10)
    for pa in [exceptional(fr, 5), tpa_distribution(fr, 3)]:
        again = PADistribution.from_json_dict(pa.to_json_dict())
        assert again == pa
        assert again.to_json_dict() == pa.to_json_dict()


# strings with quotes, backslashes, control characters, non-ASCII and a lone surrogate
JSON_STRINGS = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | JSON_STRINGS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, kids, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_json_text_is_indent_2_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


JSON_FRAMES = [frame_for(19, 10), frame_for(23, 12), frame_for(13, 6)]


@st.composite
def distribution_payloads(draw):
    """A random solution set, one of its distributions or a tuple of them
    (as in a verify-main diff), nested at depth 0-3 in dicts and lists.
    Entries draw from a few (level, class) cells and two or three nonzero
    values, so that distributions share entries and share cells with other
    values."""
    frame = draw(st.sampled_from(JSON_FRAMES))
    every = [(d, cls) for d in divisors(frame.m) for cls in frame.classes()]
    cells = draw(st.lists(st.sampled_from(every), min_size=1, max_size=3))
    values = draw(st.lists(
        st.integers(-3, -1) | st.integers(1, 3) | st.integers(min_value=2**64)
        | st.integers(max_value=-(2**64)),
        min_size=2, max_size=3, unique=True,
    ))
    entries = st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(values)), max_size=5)
    pas = []
    for drawn in draw(st.lists(entries, max_size=6)):
        levels = {}
        for (d, cls), v in drawn:
            levels.setdefault(d, {})[cls] = v
        pas.append(PADistribution(frame, levels))
    solutions = SolutionSet.build(pas)
    payload = draw(st.sampled_from(
        [solutions, solutions.distributions, *solutions.distributions[:1]]
    ))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(JSON_STRINGS)
        payload = draw(st.sampled_from([{key: payload, "next": 1}, [0, payload]]))
    return payload


def plain_json(value):
    """value with every distribution as its to_json_dict() and every set as a list."""
    if isinstance(value, PADistribution):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: plain_json(v) for k, v in value.items()}
    if isinstance(value, (SolutionSet, list, tuple)):
        return [plain_json(v) for v in value]
    return value


_TPA = tpa_distribution(JSON_FRAMES[0], 1)
_EXC = exceptional(JSON_FRAMES[0], 5)


@given(distribution_payloads())
@example(SolutionSet.build([]))
@example({"sets": [SolutionSet.build([]), ()], "next": 1})
@example(SolutionSet.build([PADistribution(JSON_FRAMES[1], {}), _TPA]))
@example({"a": [0, {"b": SolutionSet.build([_TPA, _EXC, tpa_distribution(JSON_FRAMES[0], 3)])}]})
@example([0, (_EXC, _TPA)])
@example(SolutionSet.build([_TPA, PADistribution(JSON_FRAMES[0], {1: {_TPA.frame.class_of(1): 2}})]))
@example(PADistribution(JSON_FRAMES[2], {1: {JSON_FRAMES[2].class_of(1): -(2**70)}}))
def test_json_text_writes_distributions_as_their_dicts(payload):
    assert json_text(payload) == json.dumps(plain_json(payload), indent=2)


@st.composite
def v4_reports(draw):
    """A V4Report of one to four characters over n = 1 .. 12, odd n included;
    sums of either sign, zero and multiples of n among them."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(JSON_STRINGS | st.sampled_from(["1", "chi_2", "phi_1"]),
                           min_size=1, max_size=4))
    sums = st.integers(-3 * n, 3 * n) | st.sampled_from([0, n, -n]) | st.integers()
    rows = [tuple(draw(st.lists(sums, min_size=n, max_size=n))) for _ in labels]
    return V4Report(n, tuple(zip(labels, rows)))


@given(v4_reports())
@example(V4Report(1, (("1", (0,)),)))
@example(V4Report(3, (("chi_2", (-3, 0, 2)),)))
@example(V4Report(10, (("chi_2", (-1, 0, 10, 20, -10, 5, 4, 3, 2, 1)), ("1", (10,) * 10))))
@example(V4Report(5, ()))
def test_json_text_writes_a_v4_report_as_its_multiplicity_list(report):
    n = report.n
    plain = [
        {"character": label, "l": l, "mu": str(Fraction(s, n)), "ok": s >= 0 and s % n == 0}
        for label, row in report.sums
        for l, s in enumerate(row)
    ]
    assert json_text(report) == json.dumps(plain, indent=2)
    nested = {"v4": {"ok": True, "multiplicities": report}, "after": [report]}
    plain = {"v4": {"ok": True, "multiplicities": plain}, "after": [plain]}
    assert json_text(nested) == json.dumps(plain, indent=2)


@given(st.data())
def test_distribution_to_json_is_indent_2_json_dumps(data):
    frame = data.draw(st.sampled_from([frame_for(19, 10), frame_for(23, 12), frame_for(13, 6)]))
    classes = frame.classes()
    levels = data.draw(
        st.dictionaries(
            st.sampled_from(divisors(frame.m)),
            st.dictionaries(st.sampled_from(classes), st.integers(-3, 3) | st.integers()),
        )
    )
    for pa in (PADistribution(frame, levels), PADistribution(frame, {})):
        assert pa.to_json() == json.dumps(pa.to_json_dict(), indent=2)
    assert '"entries": []' in PADistribution(frame, {}).to_json()


def test_json_text_refuses_tuple_subclasses():
    # a NamedTuple value type would otherwise be written as a JSON list
    fr = frame_for(19, 10)
    for value in (fr.class_of(1), CharRestriction.trivial()):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text({"ok": 0, "nested": [{"value": value}]})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text([value])
    assert json_text({"exact": (1, [2])}) == json.dumps({"exact": [1, [2]]}, indent=2)


def test_json_text_empty_containers_and_float_leaf():
    value = {"a": [], "b": {}, "c": (), "d": [1.5, float("inf"), {"e": [[]]}]}
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("key", [1, True, None, 1.5])
def test_json_text_rejects_non_str_keys(key):
    # the stdlib would write the key as a string; json_text never coerces
    with pytest.raises(TypeError):
        json_text({"ok": 0, "nested": [{key: 1}]})


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        PADistribution.from_json_dict({"q": 19})
    with pytest.raises(ValueError):
        PADistribution.from_json_dict({"q": 15, "n": 10, "entries": []})
    with pytest.raises(ValueError):
        PADistribution.from_json_dict(
            {"q": 19, "n": 10, "entries": [{"d": 1, "exp": 7, "value": 1}]}
        )
    with pytest.raises(ValueError):
        PADistribution.from_json_dict(
            {"q": 19, "n": 10, "entries": [{"d": 1, "order": 5, "exp": 1, "value": 1}]}
        )
    # a repeated (d, exp) is rejected, not summed: -4 + 5 would pass as 1
    split = [{"d": 1, "exp": 1, "value": -4}, {"d": 1, "order": 10, "exp": 1, "value": 5}]
    with pytest.raises(ValueError, match="repeated"):
        PADistribution.from_json_dict({"q": 19, "n": 10, "entries": split})
    # non-integers are rejected, not coerced
    entry = {"d": 1, "order": 5, "exp": 2, "value": 1}
    for q, value in [(19.9, 1), ("19", 1), (19, 1.7), (19, True)]:
        with pytest.raises(ValueError, match="integer"):
            PADistribution.from_json_dict(
                {"q": q, "n": 10, "entries": [dict(entry, value=value)]}
            )


def test_violation_reports():
    fr = frame_for(19, 10)
    layout = variable_layout(fr)
    vec = [0] * len(layout)
    vec[layout.index(1, fr.class_of(1))] = 1
    vec[layout.index(2, fr.class_of(2))] = 1
    # level 5 left empty: V1 broken there
    pa = distribution_from_vector(layout, vec)
    assert any(v.startswith("V1") for v in pa.violations())
    bad_v2 = PADistribution(fr, {1: {fr.identity: 1}, **{d: {fr.class_of(d): 1} for d in (2, 5)},
                                 10: {fr.identity: 1}})
    assert any(v.startswith("V2") for v in bad_v2.violations())
    bad_v3 = PADistribution(
        fr,
        {
            1: {fr.class_of(1): 1},
            2: {fr.class_of(1): 1},  # order 10 does not divide 10/2
            5: {fr.class_of(5): 1},
            10: {fr.identity: 1},
        },
    )
    assert any(v.startswith("V3") for v in bad_v3.violations())
