"""Frames, classes, and character restrictions on PSL(2,q)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpzc.cyclotomic import CycSum, euler_phi
from helpzc.psl2 import (
    CharRestriction,
    ClassLabel,
    _brauer_half_exponents,
    brauer_irreducibles,
    char_value,
    decompose_chi,
    eigen_counts,
    family_walk,
    make_context,
    make_frame,
    v_set_count,
)
from helpzc.solver import character_family

from helpers import (
    brauer_half_exponents_oracle,
    combination,
    conjugate,
    float_char_exponents,
    sweep_frames,
    v_pair_count,
    v_set_count_oracle,
)


def frame_for(q, m):
    return make_frame(make_context(q), m)


def test_make_context_examples():
    assert (make_context(19).p, make_context(19).f) == (19, 1)
    assert (make_context(27).p, make_context(27).f) == (3, 3)
    with pytest.raises(ValueError, match="odd prime power"):
        make_context(15)
    with pytest.raises(ValueError, match="odd prime power"):
        make_context(16)


def test_group_order():
    assert make_context(11).order == 660
    assert make_context(19).order == 3420


def test_make_frame_examples():
    assert frame_for(19, 10).epsilon == -1
    assert frame_for(41, 10).epsilon == 1
    with pytest.raises(ValueError, match="no p-regular element of order 7"):
        frame_for(19, 7)
    with pytest.raises(ValueError, match="no p-regular element"):
        frame_for(19, 19)


def test_frame_small_orders():
    assert frame_for(19, 1).epsilon == 1
    assert frame_for(13, 2).epsilon == 1   # 13 = 1 mod 4
    assert frame_for(19, 2).epsilon == -1  # 19 = -1 mod 4


def test_class_canonicalization():
    fr = frame_for(19, 10)
    assert fr.class_of(0).exp == 0 and fr.class_of(0).order == 1
    assert fr.class_of(7).exp == 3 and fr.class_of(7).order == 10
    assert fr.class_of(-3).exp == 3
    assert fr.class_of(12).exp == 2 and fr.class_of(12).order == 5
    assert fr.class_of(5).order == 2


def test_value_types_read_as_before():
    # NamedTuples: the dataclass repr, frozen fields, equal classes hash equal
    fr = frame_for(19, 10)
    assert repr(fr.class_of(5)) == "ClassLabel(exp=5, order=2)"
    assert repr(ClassLabel(order=2, exp=1)) == "ClassLabel(exp=1, order=2)"
    assert repr(CharRestriction.brauer((2,))) == "CharRestriction(kind='brauer', h=0, weights=(2,))"
    assert repr(make_context(27)) == "GroupContext(q=27, p=3, f=3)"
    for i in range(-12, 13):
        assert fr.class_of(i) == fr.class_of(-i)
        assert hash(fr.class_of(i)) == hash(fr.class_of(-i))
    for value, field in [
        (fr.class_of(3), "exp"),
        (fr, "m"),
        (fr.ctx, "q"),
        (CharRestriction.phi(1), "h"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict
    assert CharRestriction.trivial() == CharRestriction("trivial")
    assert (CharRestriction.trivial().h, CharRestriction.trivial().weights) == (0, ())
    assert (CharRestriction.psi(2).weights, CharRestriction.brauer((4,)).h) == ((), 0)


def test_classes_of_order_dividing_counts():
    fr = frame_for(19, 10)
    all_classes = fr.classes_of_order_dividing(10)
    assert len(all_classes) == 6
    assert sorted(c.order for c in all_classes) == [1, 2, 5, 5, 10, 10]
    assert sorted(c.exp for c in all_classes if c.order == 5) == [2, 4]
    assert sorted(c.exp for c in all_classes if c.order == 10) == [1, 3]
    assert len(fr.classes_of_order_dividing(5)) == 3
    assert fr.classes_of_order_dividing(1) == (fr.identity,)
    with pytest.raises(ValueError, match="does not divide"):
        fr.classes_of_order_dividing(4)


def test_class_count_formula():
    for q, m in [(19, 10), (29, 14), (13, 6), (43, 22), (11, 5)]:
        fr = frame_for(q, m)
        assert len(fr.classes()) == m // 2 + 1
        expected = 1 + (1 if m % 2 == 0 else 0) + sum(
            euler_phi(e) // 2 for e in range(3, m + 1) if m % e == 0
        )
        assert len(fr.classes()) == expected


def test_char_value_paper_instances():
    fr = frame_for(19, 10)
    chi2 = CharRestriction.brauer((2,))
    chi4 = CharRestriction.brauer((4,))
    assert char_value(fr, chi2, fr.identity) == 3
    assert char_value(fr, chi2, fr.class_of(5)) == -1
    assert char_value(fr, chi4, fr.identity) == 5
    assert char_value(fr, chi4, fr.class_of(5)) == 1


def test_phi_at_the_involution():
    # phi_h(g0^t) = 2 * eps * (-1)^h on a frame of even order 2t
    for q in (19, 41):
        fr = frame_for(q, 10)
        for h in range(1, 5):
            val = char_value(fr, CharRestriction.phi(h), fr.class_of(5))
            assert val == 2 * fr.epsilon * (-1) ** h


def test_degrees_match_identity_values():
    fr = frame_for(19, 10)
    chars = [
        CharRestriction.trivial(),
        CharRestriction.phi(2),
        CharRestriction.psi(1),
        CharRestriction.brauer((2,)),
        CharRestriction.brauer((4,)),
    ]
    for chi in chars:
        assert char_value(fr, chi, fr.identity) == chi.degree(fr)
    assert CharRestriction.phi(1).degree(fr) == 18
    assert CharRestriction.psi(1).degree(fr) == 20


def test_phi_psi_index_symmetry():
    fr = frame_for(19, 10)
    for h, h2 in [(1, 9), (2, 12), (3, 7), (4, 14)]:
        for cls in fr.classes():
            assert char_value(fr, CharRestriction.phi(h), cls) == char_value(
                fr, CharRestriction.phi(h2), cls
            )
            assert char_value(fr, CharRestriction.psi(h), cls) == char_value(
                fr, CharRestriction.psi(h2), cls
            )


def test_char_values_are_real():
    fr = frame_for(29, 14)
    chars = [CharRestriction.phi(3), CharRestriction.brauer((4,)), CharRestriction.psi(2)]
    for chi in chars:
        for cls in fr.classes():
            v = char_value(fr, chi, cls)
            assert conjugate(v) == v


def test_phi_requires_h_off_the_frame_order():
    fr = frame_for(19, 10)
    with pytest.raises(ValueError):
        char_value(fr, CharRestriction.phi(10), fr.class_of(1))
    with pytest.raises(ValueError):
        char_value(fr, CharRestriction.psi(20), fr.class_of(1))


@pytest.mark.parametrize("q,m", [(19, 10), (41, 10), (25, 12), (49, 24)])
def test_eigen_counts_expand_char_value(q, m):
    # eps = -1, eps = +1, and f = 2 (twice); char_value expands eigen_counts,
    # so both are held against the closed-form values of the oracle
    fr = frame_for(q, m)
    chars = [CharRestriction.trivial(), *brauer_irreducibles(fr.ctx, fr)]
    chars += [CharRestriction.brauer(w) for w in [(2, 2), (1, 3), (0, 4, 2)]]
    chars += [CharRestriction.phi(h) for h in range(1, m)]
    chars += [CharRestriction.psi(h) for h in range(1, m)]
    for chi in chars:
        counts = eigen_counts(fr, chi)
        assert len(counts) == m
        assert sum(counts) == chi.degree(fr)
        assert all(counts[e] == counts[-e % m] for e in range(m))
        for cls in fr.classes():
            coeffs = [0] * m
            for coef, e in float_char_exponents(fr, chi, cls.exp):
                coeffs[e] += coef
            assert char_value(fr, chi, cls) == CycSum(m, coeffs), (chi, cls)


def test_eigen_counts_phi_h_at_half_the_order():
    # h = -h mod m: both eigenvalues eps * zeta^(+-h) land on one index
    fr = frame_for(19, 10)
    counts = eigen_counts(fr, CharRestriction.phi(5))
    assert counts == [2] * 5 + [0] + [2] * 4


@st.composite
def frames_and_characters(draw):
    """A frame with f = 1 or 2 and m even or odd (m = 1 and 2 included), and a
    character of any kind on it: chi_R with random digits of even sum."""
    q, m = draw(st.sampled_from(
        [(13, 1), (13, 2), (19, 9), (19, 10), (29, 7), (25, 12), (25, 13), (49, 24), (49, 25)]
    ))
    fr = frame_for(q, m)
    # phi_h and psi_h need h != 0 mod m, so none exists at m = 1
    kind = draw(st.sampled_from(["trivial", "brauer", *(["phi", "psi"] if m > 1 else [])]))
    if kind == "trivial":
        return fr, CharRestriction.trivial()
    if kind == "brauer":
        digits = draw(st.lists(st.integers(0, fr.ctx.p - 1), min_size=fr.ctx.f,
                               max_size=fr.ctx.f).filter(lambda w: sum(w) % 2 == 0))
        return fr, CharRestriction.brauer(digits)
    h = draw(st.integers(1, 3 * m).filter(lambda h: h % m))
    return fr, getattr(CharRestriction, kind)(h)


@settings(max_examples=200, deadline=None)
@given(frames_and_characters())
def test_eigen_counts_are_symmetric(frame_and_chi):
    # every character is real on <g0> (g0^i and g0^-i are conjugate); the
    # (V4) kernels of help_core fold their tables onto h <= m / 2 on this
    fr, chi = frame_and_chi
    counts = eigen_counts(fr, chi)
    m = fr.m
    assert all(counts[e] == counts[-e % m] for e in range(m))


def assert_family_walk(fr, chars):
    # the counts rebuilt from the walk's steps are eigen_counts' real half;
    # a step restarts unless its character repeats the one before or raises
    # one digit of it by 2, and it adds each row at most once, never at 0
    half, counts = fr.m // 2 + 1, None
    steps = list(family_walk(fr, iter(chars)))
    assert len(steps) == len(chars)
    for i, (chi, (fresh, adds)) in enumerate(zip(chars, steps)):
        prev = chars[i - 1].weights if i else None
        raised = (
            prev is not None
            and len(prev) == len(chi.weights)
            and sorted(b - a for a, b in zip(prev, chi.weights) if a != b) == [2]
        )
        assert (fresh is None) == (i > 0 and (chi == chars[i - 1] or raised))
        adds = list(adds)
        assert len({h for h, _w in adds}) == len(adds) and all(w for _h, w in adds)
        counts = list(fresh) if fresh is not None else counts.copy()
        for h, w in adds:
            counts[h] += w
        assert counts == eigen_counts(fr, chi)[:half]


def test_family_walk_rebuilds_eigen_counts_on_the_sweep_frames():
    # both presets, brauer-p backwards, with each character twice, and
    # interleaved with paper, on every frame of the sweep, f = 1 to 3
    for q, m in sweep_frames():
        fr = frame_for(q, m)
        paper, brauer = (character_family(fr, spec)[0] for spec in ("paper", "brauer-p"))
        mixed = [chi for pair in itertools.zip_longest(brauer, paper) for chi in pair if chi]
        twice = [chi for chi in brauer for _ in range(2)]
        for chars in (paper, brauer, brauer[::-1], twice, mixed):
            assert_family_walk(fr, chars)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_family_walk_rebuilds_eigen_counts_along_random_walks(data):
    # chi_R after chi_R' for R one digit above, below or away from R', or
    # after a character with no digits; digits may pass p - 1
    q, m = data.draw(st.sampled_from(
        [(13, 1), (13, 2), (19, 9), (19, 10), (25, 12), (25, 13), (49, 24), (27, 14), (27, 13)]
    ))
    fr = frame_for(q, m)
    f = fr.ctx.f
    digits = st.lists(st.integers(0, 6), min_size=f, max_size=f).filter(lambda w: sum(w) % 2 == 0)
    weights = data.draw(digits)
    chars = [CharRestriction.brauer(weights)]
    for move in data.draw(st.lists(st.sampled_from(["up", "down", "jump", "other"]), max_size=8)):
        j = data.draw(st.integers(0, f - 1))
        if move == "up":
            weights[j] += 2
        elif move == "down" and weights[j] >= 2:
            weights[j] -= 2
        elif move == "jump":
            weights = data.draw(digits)
        if move == "other":
            chars.append(CharRestriction.trivial() if m == 1 else CharRestriction.phi(1))
        else:
            chars.append(CharRestriction.brauer(weights))
    assert_family_walk(fr, chars)


@pytest.mark.parametrize("q,m,r,h", [(19, 10, 10, 5), (19, 9, 18, 0), (13, 1, 4, 0)])
def test_a_self_paired_single_raise_adds_one_row_at_weight_2(q, m, r, h):
    # chi_r after chi_(r-2) adds zeta^(+-r/2); where r/2 = -r/2 mod m both
    # land on row h = r/2 mod m of the real half
    fr = frame_for(q, m)
    chars = [CharRestriction.brauer([r - 2]), CharRestriction.brauer([r])]
    assert [(c, list(adds)) for c, adds in family_walk(fr, chars)][1] == (None, [(h, 2)])
    assert_family_walk(fr, chars)


def test_eigen_counts_reject_h_on_the_frame_order():
    fr = frame_for(19, 10)
    for chi in (CharRestriction.phi(10), CharRestriction.psi(20)):
        with pytest.raises(ValueError, match="not defined when the frame order divides h"):
            eigen_counts(fr, chi)


def test_brauer_validation():
    with pytest.raises(ValueError, match="even"):
        CharRestriction.brauer((3,))
    with pytest.raises(ValueError):
        CharRestriction.brauer(())
    assert CharRestriction.brauer((2, 0)).label == "chi_2,0"


@pytest.mark.parametrize(
    "value", [2.9, 2.0, "2", True], ids=["float", "integral-float", "str", "bool"]
)
@pytest.mark.parametrize(
    "make",
    [CharRestriction.phi, CharRestriction.psi, lambda r: CharRestriction.brauer([r, 0.5])],
    ids=["phi", "psi", "brauer"],
)
def test_char_restriction_rejects_non_integers(make, value):
    # no truncation (brauer([2.9, 0.5]) was chi_2,0), no later TypeError,
    # no label phi_True
    with pytest.raises(ValueError, match=f"expected an integer, got {value!r}"):
        make(value)


@pytest.mark.parametrize(
    "make, value",
    [
        (make_context, 19.0),
        (make_context, "19"),
        (make_context, True),
        (lambda m: make_frame(make_context(19), m), 10.0),
        (lambda m: make_frame(make_context(19), m), "10"),
        (lambda m: make_frame(make_context(19), m), True),
    ],
    ids=["q-float", "q-str", "q-bool", "m-float", "m-str", "m-bool"],
)
def test_context_and_frame_reject_non_integers(make, value):
    # make_context(19.0) was GroupContext(q=19.0, p=19.0, f=1), and
    # make_frame(ctx, True) the order-1 frame
    with pytest.raises(ValueError, match=f"expected an integer, got {value!r}"):
        make(value)


def test_brauer_irreducibles_counts():
    ctx19 = make_context(19)
    assert len(brauer_irreducibles(ctx19, make_frame(ctx19, 10))) == 10
    ctx9 = make_context(9)
    assert len(brauer_irreducibles(ctx9, make_frame(ctx9, 5))) == 5
    ctx3 = make_context(3)
    assert len(brauer_irreducibles(ctx3, make_frame(ctx3, 2))) == 2
    ctx29 = make_context(29)
    assert len(brauer_irreducibles(ctx29, make_frame(ctx29, 14))) == 15
    ctx41 = make_context(41)
    assert len(brauer_irreducibles(ctx41, make_frame(ctx41, 10))) == 21


def test_brauer_irreducibles_match_the_checked_construction_on_the_sweep_frames():
    # the family skips CharRestriction.brauer's checks; it must build what they pass
    for q, m in sweep_frames():
        fr = frame_for(q, m)
        p, f = fr.ctx.p, fr.ctx.f
        checked = [
            CharRestriction.brauer(list(w))
            for w in itertools.product(range(p), repeat=f)
            if sum(w) % 2 == 0
        ]
        family = brauer_irreducibles(fr.ctx, fr)
        assert list(family) == checked
        assert [(type(chi), type(chi.weights), chi.label) for chi in family] == [
            (CharRestriction, tuple, chi.label) for chi in checked
        ]


@pytest.mark.parametrize("q", [9, 25, 27, 49, 121, 125])
def test_brauer_irreducibles_keep_product_order_at_prime_powers(q):
    # the last digit steps by 2 from the others' parity; the family is the
    # even-sum tuples of product(range(p), repeat=f), in product's order
    fr = frame_for(q, 2)
    p, f = fr.ctx.p, fr.ctx.f
    filtered = tuple(w for w in itertools.product(range(p), repeat=f) if sum(w) % 2 == 0)
    assert tuple(chi.weights for chi in brauer_irreducibles(fr.ctx, fr)) == filtered


def test_v_set_count_examples():
    fr = frame_for(19, 10)
    assert v_set_count(fr, (4,), 1) == 2
    assert v_pair_count(fr, (4,), 1) == 1
    assert v_pair_count(fr, (4,), 2) == 1
    assert v_pair_count(fr, (4,), 5) == 0


def _even_sum_weights():
    """Digit tuples of length 1..3 with an even sum; digits may reach or pass p."""
    return st.lists(st.integers(0, 12), min_size=1, max_size=3).map(
        lambda ws: tuple(ws[:-1]) + (ws[-1] + sum(ws) % 2,)
    )


# (q, m) with a valid frame, over f = 1..3
V_SET_FRAMES = [
    (7, 4), (9, 5), (11, 6), (13, 7), (19, 10), (25, 13),
    (27, 7), (29, 14), (49, 12), (81, 10), (125, 21),
]


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), weights=_even_sum_weights())
def test_brauer_half_exponents_match_digit_box_oracle(p, weights):
    assert _brauer_half_exponents(p, weights) == brauer_half_exponents_oracle(p, weights)


@settings(max_examples=200, deadline=None)
@given(
    qm=st.sampled_from(V_SET_FRAMES),
    weights=_even_sum_weights(),
    h=st.integers(-30, 60),
)
def test_v_set_count_matches_oracle(qm, weights, h):
    fr = frame_for(*qm)
    assert v_set_count(fr, weights, h) == v_set_count_oracle(fr, weights, h)


@pytest.mark.parametrize(
    "weights", [(-2, 4), (2, -2), (-1, -1), ()], ids=["-2,4", "2,-2", "-1,-1", "empty"]
)
def test_v_set_count_and_decompose_reject_negative_and_empty_digits(weights):
    fr = frame_for(19, 10)
    with pytest.raises(ValueError, match="nonempty tuple of nonnegative digits"):
        v_set_count(fr, weights, 0)
    with pytest.raises(ValueError, match="nonempty tuple of nonnegative digits"):
        decompose_chi(fr, weights)


# the criterion-7 frames, plus f = 2 at (81,10)
DECOMPOSE_FRAMES = [(13, 6), (19, 10), (29, 14), (43, 22), (81, 10)]


@pytest.mark.parametrize("q,m", DECOMPOSE_FRAMES)
def test_decompose_chi_matches_v_pair_counts(q, m):
    fr = frame_for(q, m)
    tuples = [(r,) for r in range(0, 7, 2)]
    tuples += [t for t in itertools.product(range(7), repeat=2) if sum(t) % 2 == 0]
    for weights in tuples:
        k0, n = decompose_chi(fr, weights)
        all_even = all(r % 2 == 0 for r in weights)
        assert k0 == int(all_even) + 2 * v_pair_count(fr, weights, 0), weights
        assert n == {h: v_pair_count(fr, weights, h) for h in range(1, m // 2 + 1)}, weights


def test_decompose_chi_rejects_odd_digit_sums():
    fr = frame_for(19, 10)
    for weights in [(3,), (1, 2)]:
        with pytest.raises(ValueError, match="even digit sum"):
            decompose_chi(fr, weights)


def test_decompose_chi_examples():
    fr = frame_for(19, 10)
    k0, n = decompose_chi(fr, (4,))
    assert k0 == 1 and n[1] == 1 and n[2] == 1 and all(n[h] == 0 for h in (3, 4, 5))
    k0, n = decompose_chi(fr, (2,))
    assert k0 == 1 and n[1] == 1 and all(n[h] == 0 for h in (2, 3, 4, 5))
    k0, n = decompose_chi(fr, (0,))
    assert k0 == 1 and all(v == 0 for v in n.values())


def check_decomposition_identity(fr, weights):
    """chi_R = k0 * 1 + eps * sum_h n_h (phi_h - psi_h), as exact values."""
    k0, n = decompose_chi(fr, weights)
    chi = CharRestriction.brauer(weights)
    e0 = [1] + [0] * (fr.m - 1)
    for cls in fr.classes():
        terms = [(k0, e0)]
        for h, nh in n.items():
            if nh:
                phi_h = char_value(fr, CharRestriction.phi(h), cls)
                psi_h = char_value(fr, CharRestriction.psi(h), cls)
                terms += [(fr.epsilon * nh, phi_h.coeffs), (-fr.epsilon * nh, psi_h.coeffs)]
        assert char_value(fr, chi, cls) == combination(fr.m, *terms), (weights, cls)
    # degree bookkeeping: |X_R| = k0 + 2 * sum_h n_h
    assert chi.degree(fr) == k0 + 2 * sum(n.values())


def test_decomposition_identity_small():
    fr = frame_for(19, 10)
    for weights in [(2,), (4,), (6,), (2, 2), (1, 1), (3, 1)]:
        check_decomposition_identity(fr, weights)


def test_decomposition_identity_mixed_frames():
    for q, m in [(13, 6), (11, 6), (29, 14)]:
        fr = frame_for(q, m)
        for weights in itertools.product(range(5), repeat=2):
            if sum(weights) % 2 == 0:
                check_decomposition_identity(fr, weights)
