import os
import random
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements, raw_syllable_lists
from freeprod import free_product
from freeprod.errors import (
    BadFactorIndexError,
    ForeignElementError,
    GroupError,
    GroupTooLargeError,
    MixedAmbientError,
    NotASubgroupError,
    PowerTooLargeError,
    TrivialSubgroupError,
)
from freeprod.free_product import (
    INFINITE,
    MAX_POWER_SYLLABLES,
    Ball,
    FPElement,
    FreeProduct,
    enumerate_ball,
    power_syllables,
)
from freeprod.finite_group import (
    direct_product,
    from_cayley_table,
    make_cyclic,
    make_dihedral_reflections,
)
from freeprod.sampling import (
    random_cyclically_reduced,
    random_noncommuting_conjugator,
    random_reduced,
)
from freeprod.specfiles import parse_group_spec
from freeprod.words import Const, MixedWord, evaluate, parse_constant

CASES = Path(__file__).resolve().parent.parent / "cases"


@pytest.fixture(scope="module")
def gens(p23):
    return p23.generator("a"), p23.generator("b")


def test_normalize_cancels_involution(p23):
    assert p23.element([(0, 1), (0, 1)]).is_identity


def test_normalize_cascades(p23):
    # a, b, b^2: the b's cancel, leaving a.
    assert p23.element([(0, 1), (1, 1), (1, 2)]) == p23.generator("a")


def test_normalize_merges_same_factor(p23):
    assert p23.element([(1, 1), (1, 1)]) == p23.element([(1, 2)])


def test_a_generator_labelling_the_identity_is_the_identity():
    # a label may name a factor's identity; its letter has norm 0 and
    # vanishes from every normal form it occurs in
    z2 = from_cayley_table([[0, 1], [1, 0]], [("a", 1), ("e", 0)])
    group = FreeProduct([z2, make_cyclic(3, "b")])
    assert group.generator("e").is_identity
    assert parse_constant("e b e", group) == group.generator("b")


def test_normalize_rejects_bad_input(p23):
    with pytest.raises(BadFactorIndexError):
        p23.element([(7, 1)])
    with pytest.raises(ForeignElementError):
        p23.element([(0, 5)])


def test_free_product_refuses_more_syllable_ids_than_a_string_holds():
    # 1,200 copies of C1000 share one table and would need 1,198,800 ids,
    # each a str character; they are refused before the codec is built
    c1000 = make_cyclic(1000)
    copies = [c1000.relabeled([f"a{i}"]) for i in range(1200)]
    with pytest.raises(GroupTooLargeError, match="^1,198,800 syllable ids"):
        FreeProduct(copies)
    assert issubclass(GroupTooLargeError, GroupError)


def test_multiply_examples(p23, gens):
    a, b = gens
    assert ((a * b) * (b * b * a)).is_identity
    assert (a * b) * (b * a) == p23.element([(0, 1), (1, 2), (0, 1)])
    assert ((a * b) * (b * a)).norm == 3
    u = a * b * a
    assert u * p23.identity() == u


def test_multiply_rejects_mixed_ambient(p23, p22):
    with pytest.raises(MixedAmbientError):
        p23.generator("a") * p22.generator("a")


def test_inverse_examples(p23, gens):
    a, b = gens
    assert (a * b).inverse() == b * b * a
    assert p23.identity().inverse().is_identity
    assert (a * b * a).inverse() == a * b * b * a


def test_power_examples(p23, gens):
    a, b = gens
    cube = (a * b).power(3)
    assert cube.norm == 6
    assert cube == a * b * a * b * a * b
    assert (a * b).power(0).is_identity
    assert (a * b).power(-1) == b * b * a


def test_conjugate_examples(p23, gens):
    a, b = gens
    assert b.conjugate(a) == a * b * a
    assert b.conjugate(p23.identity()) == b
    assert a.conjugate(b) == b * a * b * b


def test_norm_examples(p23, gens):
    a, b = gens
    assert p23.identity().norm == 0
    assert (a * b).norm == 2
    assert (b * a * b * b).norm == 3


def test_cyclic_reduce_examples(p23, gens):
    a, b = gens
    red = (a * b * a).cyclic_reduce()
    assert (red.conjugator, red.core) == (a, b)
    red = (a * b).cyclic_reduce()
    assert red.conjugator.is_identity and red.core == a * b
    red = (b * a * b * b).cyclic_reduce()
    assert (red.conjugator, red.core) == (b, a)


def test_order_examples(p23, gens):
    a, b = gens
    assert p23.identity().order() == 1
    assert (b * a * b * b).order() == 2
    assert (a * b).order() == INFINITE


def test_commute_examples(p23, gens):
    a, b = gens
    ab, ba = a * b, b * a
    assert ab.commutes_with(ab)
    # independent normalization check: (ab)(ba) = a b^2 a while (ba)(ab) = b^2
    assert ab * ba == p23.element([(0, 1), (1, 2), (0, 1)])
    assert ba * ab == p23.element([(1, 2)])
    assert not ab.commutes_with(ba)
    assert ab.commutes_with(p23.identity())


def test_enumerate_ball_infinite_dihedral(p22):
    one = p22.identity()
    parts = [(0, (0, 1), one), (1, (0, 1), one)]
    ball = enumerate_ball(p22, parts, 2)
    a, b = p22.generator("a"), p22.generator("b")
    assert ball == [one, a, b, a * b, b * a]
    for depth in range(6):
        assert len(enumerate_ball(p22, parts, depth)) == 2 * depth + 1


def test_enumerate_ball_depth_zero(p23):
    parts = [(0, (0, 1), p23.identity())]
    assert enumerate_ball(p23, parts, 0) == [p23.identity()]


def test_enumerate_ball_p23_depth_one(p23):
    one = p23.identity()
    parts = [(0, (0, 1), one), (1, (0, 1, 2), one)]
    ball = enumerate_ball(p23, parts, 1)
    a, b = p23.generator("a"), p23.generator("b")
    assert ball == [one, a, b, b * b]


def test_enumerate_ball_superset_and_unique(p23):
    one = p23.identity()
    parts = [(0, (0, 1), one), (1, (0, 1, 2), one * p23.generator("a"))]
    small = enumerate_ball(p23, parts, 2)
    large = enumerate_ball(p23, parts, 4)
    assert set(small) <= set(large)
    assert len(set(large)) == len(large)


def test_enumerate_ball_rejects_bad_parts(p23):
    one = p23.identity()
    with pytest.raises(TrivialSubgroupError):
        enumerate_ball(p23, [(0, (0,), one)], 1)
    with pytest.raises(NotASubgroupError):
        enumerate_ball(p23, [(1, (0, 1), one)], 1)


def test_enumerate_ball_dedupes_non_free_parts(p23):
    # Same part twice through different positions: products collapse.
    one = p23.identity()
    parts = [(0, (0, 1), one), (0, (0, 1), one)]
    ball = enumerate_ball(p23, parts, 2)
    assert len(ball) == len(set(ball))
    assert p23.identity() in ball


# -- randomized / property-based laws ---------------------------------------

_G = FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])


@settings(max_examples=150, deadline=None)
@given(raw=raw_syllable_lists(_G))
def test_normalize_idempotent(raw):
    u = _G.element(raw)
    assert _G.element(u.syllables) == u


@settings(max_examples=200, deadline=None)
@given(u=elements(_G), v=elements(_G), w=elements(_G))
def test_group_laws_hypothesis(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * _G.identity() == u
    assert (u * u.inverse()).is_identity
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=200, deadline=None)
@given(u=elements(_G), v=elements(_G))
def test_norm_inequalities(u, v):
    assert (u * v).norm <= u.norm + v.norm
    assert u.inverse().norm == u.norm
    assert u.conjugate(v).norm <= u.norm + 2 * v.norm


@settings(max_examples=200, deadline=None)
@given(u=elements(_G))
def test_cyclic_reduce_round_trip(u):
    red = u.cyclic_reduce()
    assert red.rebuild() == u
    core = red.core
    if core.norm >= 2:
        assert core.syllables[0][0] != core.syllables[-1][0]
    assert core.norm <= u.norm
    again = core.cyclic_reduce()
    assert again.conjugator.is_identity and again.core == core


@settings(max_examples=150, deadline=None)
@given(u=elements(_G), g=elements(_G))
def test_order_conjugation_invariant(u, g):
    assert u.order() == u.conjugate(g).order()
    assert (u.order() == INFINITE) == (u.cyclic_reduce().core.norm >= 2)


def test_lemma7_norm_bound_sampled(p23, p222):
    rng = random.Random(11)
    for group in (p23, p222):
        for _ in range(150):
            a = random_cyclically_reduced(rng, group, 2, 6)
            assert a.order() == INFINITE
            g = random_noncommuting_conjugator(rng, group, a)
            n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
            core = (a.power(n1) * a.conjugate(g).power(n2)).cyclic_reduce().core
            assert core.norm > (n1 + n2 - 4) * a.norm


def test_random_reduced_respects_bounds(p23):
    rng = random.Random(0)
    for _ in range(200):
        u = random_reduced(rng, p23, 2, 5)
        assert 2 <= u.norm <= 5
        assert p23.element(u.syllables) == u


# -- the seam-merge kernel against a naive normalizer -------------------------


def normalize_naive(group, pairs):
    """Drop identity syllables and merge adjacent same-factor syllables until
    nothing changes: the reference for element, * and evaluate, which share
    the seam-merge kernel."""
    syl = list(pairs)
    changed = True
    while changed:
        changed = False
        for i, (f, e) in enumerate(syl):
            if e == 0:
                del syl[i]
                changed = True
                break
            if i + 1 < len(syl) and syl[i + 1][0] == f:
                syl[i : i + 2] = [(f, group.factors[f].table[e][syl[i + 1][1]])]
                changed = True
                break
    return tuple(syl)


_S3Z2 = FreeProduct([make_dihedral_reflections(3), make_cyclic(2, "c")])


@pytest.mark.parametrize("group", [_G, _S3Z2], ids=["p23", "s3z2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_naive_normalizer(group, data):
    raws = data.draw(st.lists(raw_syllable_lists(group), min_size=2, max_size=4))
    # A piece that starts with the inverse of the first one, so that the
    # merge at its seam cascades through several syllables.
    factors = group.factors
    raws.append([(f, factors[f].inverses[e]) for f, e in reversed(raws[0])] + raws[1])
    values = [group.element(raw) for raw in raws]
    for raw, u in zip(raws, values):
        assert u.syllables == normalize_naive(group, raw)
    for i in range(len(raws) - 1):
        product = values[i] * values[i + 1]
        assert product.syllables == normalize_naive(group, raws[i] + raws[i + 1])
    word = MixedWord(group, [Const(u) for u in values])
    flat = [p for raw in raws for p in raw]
    assert evaluate(word, {}).syllables == normalize_naive(group, flat)


# -- linear cyclic reduction against the quadratic reference ------------------


def cyclic_reduce_quadratic(u):
    """The original list.pop(0) algorithm, kept as the reference for the
    pinned conjugator and core: (conjugator syllables, core syllables)."""
    syl = list(u.syllables)
    conj = []
    factors = u.group.factors
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        f, e = syl.pop(0)
        conj.append((f, e))
        lf, le = syl[-1]
        m = factors[f].table[le][e]
        if m == 0:
            syl.pop()
        else:
            syl[-1] = (f, m)
    return tuple(conj), tuple(syl)


def _split(u):
    red = u.cyclic_reduce()
    return red.conjugator.syllables, red.core.syllables


def test_cyclic_reduce_matches_quadratic_reference_random(p23, s3z2, z6z2, p222):
    rng = random.Random(41)
    for group in (p23, s3z2, z6z2, p222):
        for _ in range(300):
            u = random_reduced(rng, group, 0, 12)
            assert _split(u) == cyclic_reduce_quadratic(u)
            g = random_reduced(rng, group, 0, 6)
            v = u.conjugate(g)
            assert _split(v) == cyclic_reduce_quadratic(v)


def test_cyclic_reduce_matches_quadratic_reference_long_conjugates(p23, s3z2):
    rng = random.Random(43)
    for group in (p23, s3z2):
        labels = group.generator_labels
        w = group.generator(labels[0]) * group.generator(labels[-1])
        for k in (1, 2, 7, 50, 300):
            for _ in range(4):
                x = random_reduced(rng, group, 0, 5)
                u = w.power(k) * x * w.power(-k)
                assert _split(u) == cyclic_reduce_quadratic(u)
                assert u.cyclic_reduce().rebuild() == u


# -- the power kernel against square-and-multiply -----------------------------


def power_square_and_multiply(u, k):
    """The original FPElement.power, kept as the reference for the kernel."""
    if k < 0:
        return power_square_and_multiply(u.inverse(), -k)
    out = u.group.identity()
    base = u
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def test_power_matches_square_and_multiply_reference(p23, s3z2, z6z2, p222):
    rng = random.Random(61)
    for group in (p23, s3z2, z6z2, p222):
        for _ in range(150):
            u = random_reduced(rng, group, 0, 8)
            g = random_reduced(rng, group, 0, 5)
            for v in (u, u.conjugate(g)):
                ks = [rng.randint(-40, 40), 0, 1, -1]
                order = v.order()
                if order != INFINITE:
                    m = rng.randint(-5, 5)
                    ks += [m * order, m * order + 1, m * order - 1, order * 10**15 + 1]
                for k in ks:
                    expected = power_square_and_multiply(v, k)
                    assert v.power(k) == expected
                    assert power_syllables(group.codec, v.ids, k) == expected.ids


def test_power_size_cap(p23, gens):
    a, b = gens
    assert a.power(10**11).is_identity
    assert (a * b * a).power(10**11 + 1) == a * b * b * a  # b^a has order 3
    with pytest.raises(PowerTooLargeError):
        (a * b).power(10**11)
    with pytest.raises(PowerTooLargeError):
        (a * b).power(-(MAX_POWER_SYLLABLES // 2 + 1))
    assert (a * b).power(1000).norm == 2000


# -- exact conjugacy ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(u=elements(_G), g=elements(_G))
def test_is_conjugate_sound_under_conjugation(u, g):
    v = g * u * g.inverse()
    assert u.is_conjugate(v)
    assert v.is_conjugate(u)


def _factor_class(group, x):
    t, inv = group.table, group.inverses
    return {t[t[g][x]][inv[g]] for g in range(group.order)}


def test_is_conjugate_norm_one_matches_factor_classes(s3z2, z6z2):
    rng = random.Random(47)
    for group in (s3z2, z6z2):
        one = [
            (f, e) for f, fg in enumerate(group.factors) for e in range(1, fg.order)
        ]
        for f, x in one:
            cls = _factor_class(group.factors[f], x)
            for g, y in one:
                expected = f == g and y in cls
                for _ in range(3):
                    w1 = random_reduced(rng, group, 0, 4)
                    w2 = random_reduced(rng, group, 0, 4)
                    u = group.factor_element(f, x).conjugate(w1)
                    v = group.factor_element(g, y).conjugate(w2)
                    assert u.is_conjugate(v) is expected


def test_is_conjugate_different_core_norms(p23, p222):
    rng = random.Random(53)
    for group in (p23, p222):
        for _ in range(100):
            u = random_reduced(rng, group, 0, 8)
            v = random_reduced(rng, group, 0, 8)
            cu = u.cyclic_reduce().core.norm
            cv = v.cyclic_reduce().core.norm
            if cu != cv:
                assert not u.is_conjugate(v) and not v.is_conjugate(u)


def test_is_conjugate_rotations(p23, s3z2, p222):
    rng = random.Random(59)
    for group in (p23, s3z2, p222):
        for _ in range(40):
            u = random_cyclically_reduced(rng, group, 2, 10)
            s = u.syllables
            for k in range(len(s)):
                rot = group.element(s[k:] + s[:k])
                assert rot.norm == u.norm
                assert u.is_conjugate(rot) and rot.is_conjugate(u)


def test_is_conjugate_matches_conjugator_search(p23, gens):
    # Brute force: u ~ v iff some g with g u g^-1 = v.  For norms <= 3 a
    # conjugator of norm <= 6 suffices (cyclic-reduction conjugators of both
    # plus one rotation prefix), and the ball below holds all of them.
    a, b = gens
    one = p23.identity()
    parts = [(0, (0, 1), one), (1, (0, 1, 2), one)]
    small = enumerate_ball(p23, parts, 3)
    conjugators = enumerate_ball(p23, parts, 6)
    for u in small:
        orbit = {g * u * g.inverse() for g in conjugators}
        for v in small:
            assert u.is_conjugate(v) is (v in orbit)
    assert not (a * b).is_conjugate(a * b * b)
    assert (a * b).is_conjugate(b * a)
    assert not b.is_conjugate(b * b)


def is_rotation_reference(a, b):
    """The boolean Knuth-Morris-Pratt rotation test that decided conjugacy
    before conjugators were built, kept as the reference."""
    n = len(b)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and b[i] != b[k]:
            k = fail[k - 1]
        if b[i] == b[k]:
            k += 1
        fail[i] = k
    k = 0
    for x in a + a[:-1]:
        while k and x != b[k]:
            k = fail[k - 1]
        if x == b[k]:
            k += 1
            if k == n:
                return True
    return False


def are_conjugate_reference(group, x, y):
    """The factor-level conjugacy test before FiniteGroup.conjugator."""
    t, inv = group.table, group.inverses
    return any(t[t[g][x]][inv[g]] == y for g in range(group.order))


def is_conjugate_reference(u, v):
    """FPElement.is_conjugate before it asked for a conjugator."""
    a = cyclic_reduce_quadratic(u)[1]
    b = cyclic_reduce_quadratic(v)[1]
    if len(a) != len(b):
        return False
    if not a:
        return True
    if len(a) == 1:
        (f, e), (g, x) = a[0], b[0]
        return f == g and are_conjugate_reference(u.group.factors[f], e, x)
    return is_rotation_reference(a, b)


def is_conjugate_rotation_reference(u, v):
    """The original rotation test, kept as the reference: try every rotation
    of one core that starts at the other core's head."""
    a = u.cyclic_reduce().core.syllables
    b = v.cyclic_reduce().core.syllables
    n = len(a)
    if n != len(b):
        return False
    if n == 0:
        return True
    if n == 1:
        (f, e), (g, x) = a[0], b[0]
        return f == g and are_conjugate_reference(u.group.factors[f], e, x)
    head = b[0]
    return any(a[i] == head and a[i:] + a[:i] == b for i in range(n))


def test_is_conjugate_matches_rotation_reference(p23, s3z2, p222):
    rng = random.Random(67)
    for group in (p23, s3z2, p222):
        for _ in range(150):
            # random pairs, random conjugates, and periodic cores w^k against
            # rotations of w^k and against w^(k-1) with one copy of w changed
            u = random_reduced(rng, group, 0, 10)
            g = random_reduced(rng, group, 0, 6)
            w = random_cyclically_reduced(rng, group, 2, 4)
            k = rng.randint(2, 30)
            s = w.power(k).syllables
            r = rng.randrange(len(s))
            other = random_cyclically_reduced(rng, group, w.norm, w.norm)
            pairs = [
                (u, random_reduced(rng, group, 0, 10)),
                (u, u.conjugate(g)),
                (w.power(k), group.element(s[r:] + s[:r]).conjugate(g)),
                (w.power(k), w.power(k - 1) * other),
            ]
            for x, y in pairs:
                expected = is_conjugate_rotation_reference(x, y)
                assert x.is_conjugate(y) is expected
                assert y.is_conjugate(x) is expected


def test_is_conjugate_long_periodic_cores(p23, gens):
    a, b = gens
    ab = a * b
    for k in (1000, 4000):
        u = ab.power(k)
        assert not u.is_conjugate(ab.power(k - 1) * a * b * b)
        assert u.is_conjugate(b * ab.power(k) * b.inverse())
        assert u.is_conjugate((b * a).power(k))


_D4Z2 = FreeProduct([make_dihedral_reflections(4), make_cyclic(2, "c")])


@pytest.mark.parametrize("group", [_G, _S3Z2], ids=["p23", "s3z2"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conjugator_conjugates_and_matches_the_reference(group, data):
    u = data.draw(elements(group), label="u")
    g = data.draw(elements(group, 5), label="g")
    core = u.cyclic_reduce().core.ids
    k = data.draw(st.integers(0, max(len(core) - 1, 0)), label="rotation")
    rotated = FPElement(group, core[k:] + core[:k])
    others = [
        u.conjugate(g),
        rotated.conjugate(g),
        u.power(2).conjugate(g),
        data.draw(elements(group), label="v"),
    ]
    for v in others:
        expected = is_conjugate_reference(u, v)
        c = u.conjugator(v)
        assert (c is not None) is expected
        assert u.is_conjugate(v) is expected
        if c is not None:
            assert c * u * c.inverse() == v
    if len(core) >= 2:
        # the offset is the least rotation that matches
        rot = rotated.ids
        offset = free_product._is_rotation(core, rot)
        assert offset == min(i for i in range(len(core)) if core[i:] + core[:i] == rot)
        other = others[-1].cyclic_reduce().core.ids
        if len(other) == len(core):
            found = free_product._is_rotation(core, other)
            assert (found is not None) is is_rotation_reference(core, other)


def test_conjugator_of_an_element_and_itself_is_one(p23, s3z2, monkeypatch):
    # c = 1 conjugates b to itself; it is returned without a cyclic split,
    # for the identity, a norm-1 core (also in S3, whose factor conjugator
    # is not trivial) and norm >= 2 cores, with and without a conjugator u.
    cases = [(group, parse_constant(text, group).ids) for group, texts in (
        (p23, ["1", "a", "b^2", "a b", "b a b a b^2", "(a b)^3 a b^2", "a b a b a"]),
        (s3z2, ["1", "a", "a b", "c a c", "c a b c a", "b c a b c b a"]),
    ) for text in texts]
    monkeypatch.setattr(free_product, "_cyclic_split", None)
    for group, b in cases:
        assert free_product._conjugator(group.codec, b, b) == "", b


def test_centralizer_matches_brute_force(p23, s3z2):
    # C(b) for b != 1, up to a norm bound, against every element of that
    # norm that commutes with b: the balls below hold all such elements.
    # b of norm <= 4 in p23 includes proper powers such as (a b)^2.
    for group, depth, b_depth in ((p23, 8, 4), (s3z2, 5, 3), (_D4Z2, 4, 3)):
        one = group.identity()
        parts = [(f, range(fg.order), one) for f, fg in enumerate(group.factors)]
        ball = enumerate_ball(group, parts, depth)
        for b in enumerate_ball(group, parts, b_depth)[1:]:
            for bound in (depth - 2, depth):
                split = free_product._cyclic_split(group.codec, b.ids)
                got = free_product._centralizer(group.codec, b.ids, split, bound)
                assert len(set(got)) == len(got)
                expected = {z.ids for z in ball if z.norm <= bound and z * b == b * z}
                assert set(got) == expected


# -- rendering against the label-by-label reference ---------------------------


def as_word_label_runs(u):
    """The original FPElement.as_word, a run-length loop over all labels,
    kept as the reference for the per-syllable rendering."""
    if not u.syllables:
        return "1"
    labels = []
    for f, e in u.syllables:
        labels.extend(u.group.factors[f].element_words[e])
    parts = []
    i = 0
    while i < len(labels):
        j = i
        while j < len(labels) and labels[j] == labels[i]:
            j += 1
        parts.append(labels[i] if j - i == 1 else f"{labels[i]}^{j - i}")
        i = j
    return " ".join(parts)


def test_as_word_matches_label_run_reference(p23, s3z2, z6z2):
    rng = random.Random(71)
    for group in (p23, s3z2, z6z2):
        for _ in range(400):
            u = random_reduced(rng, group, 0, 12)
            assert u.as_word() == as_word_label_runs(u)
        every = [group.factor_element(f, e)
                 for f, g in enumerate(group.factors) for e in g.elements()]
        for u in every:
            assert u.as_word() == as_word_label_runs(u)


BLOCK = free_product.RENDER_BLOCK


def _changed(group, ids, offsets):
    """``ids`` with the syllable at each offset replaced by another element
    of its factor, where the factor has one, so the form stays reduced."""
    codec, out = group.codec, list(ids)
    for o in offsets:
        others = [x for x in codec.symbols[codec.factor[out[o]]][1:] if x != out[o]]
        if others:
            out[o] = others[o % len(others)]
    return "".join(out)


def _render_forms(group, rng):
    """Reduced id strings that walk every branch of the block renderer."""
    forms = []
    periodic = []
    for m in (2, 4, 6, 8, 14, 16):  # 16 does not divide the block size
        core = random_cyclically_reduced(rng, group, m, m)
        periodic.append(core.power(-(-5 * BLOCK // core.norm) + rng.randrange(m)).ids)
    forms += periodic
    # near-periodic: one syllable changed at offset L - 1, L or L + 1 from
    # the start of the repeat and from the next two block boundaries; two
    # changed one block before the end; and the repeat after a head of
    # random length, so that it starts off the block grid, as it is and
    # with one syllable changed at L - 1, L or L + 1 from its start
    for s in periodic[:3]:
        for base in (0, BLOCK, 2 * BLOCK):
            for d in (-1, 0, 1):
                forms.append(_changed(group, s, [base + BLOCK + d]))
        forms.append(_changed(group, s, [len(s) - BLOCK - 1, len(s) - BLOCK + 1]))
        head = random_reduced(rng, group, 1, BLOCK + 30).ids
        if group.codec.factor[head[-1]] == group.codec.factor[s[0]]:
            head = head[:-1]
        forms.append(head + s)
        for d in (-1, 0, 1):
            forms.append(_changed(group, head + s, [len(head) + BLOCK + d]))
    # v^k x v^-k with a long conjugator
    for _ in range(3):
        v = random_cyclically_reduced(rng, group, 2, 6)
        k = -(-3 * BLOCK // v.norm)
        x = random_reduced(rng, group, 1, 5)
        forms.append((v.power(k) * x * v.power(-k)).ids)
    # non-periodic
    forms += [random_reduced(rng, group, 3 * BLOCK, 5 * BLOCK).ids for _ in range(2)]
    # every length around the block size, periodic and not
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 1):
        forms.append(periodic[0][:n])
        forms.append(random_reduced(rng, group, n, n).ids)
    return forms


@pytest.mark.parametrize("name", ["p23", "s3z2", "d150"])
def test_block_rendering_matches_label_run_reference(request, name):
    # The renderer against the label-by-label reference on forms that
    # repeat, nearly repeat, repeat with a middle, never repeat, and on
    # every length next to the block size; d150 renders from all 300
    # syllables, whose ids lie above 255.
    if name == "d150":
        group = parse_group_spec((CASES / "d150.grp").read_text())
    else:
        group = request.getfixturevalue(name)
    rng = random.Random(27)
    forms = _render_forms(group, rng)
    if name == "d150":
        assert max(map(ord, "".join(forms))) > 255
    for ids in forms:
        u = FPElement(group, ids)
        expected = as_word_label_runs(u)
        assert _parting(free_product._render(group.codec, ids), expected) is None
        assert _parting(u.as_word(), expected) is None
    assert free_product._render(group.codec, "") == ""


def _parting(got, expected):
    """None when the texts agree, else where they part and what follows
    there in each: a short report, not a diff of two long texts."""
    if got == expected:
        return None
    k = len(os.path.commonprefix([got, expected]))
    return k, got[k:k + 40], expected[k:k + 40]


def test_block_rendering_looks_up_one_block(p23, monkeypatch):
    # (a b)^n looks up the texts of one block, which serve every copy and
    # the partial copy at the end: the same count for every n.
    lookups = 0

    class Counted(free_product._Texts):
        def __getitem__(self, x):
            nonlocal lookups
            lookups += 1
            return super().__getitem__(x)

    monkeypatch.setattr(p23.codec, "texts", Counted(p23.codec))
    counts = []
    for n in (25_000, 50_000, 100_000, 200_000):
        lookups = 0
        assert parse_constant(f"(a b)^{n}", p23).as_word() == " ".join(["a b"] * n)
        counts.append(lookups)
    assert counts == [BLOCK] * 4


def test_syllable_texts_are_rendered_on_first_use():
    # Each syllable's text is rendered when it is first looked up, and
    # equals the eager rendering of its element's word, on every factor
    # of every group in cases/.
    for path in sorted(CASES.glob("*.grp")):
        group = parse_group_spec(path.read_text())
        texts = group.codec.texts
        last = group.factors[0].order - 1
        group.factor_element(0, last).as_word()
        assert list(texts) == [group.codec.symbols[0][last]], path.name
        for f, g in enumerate(group.factors):
            for e in range(1, g.order):
                text = texts[group.codec.symbols[f][e]]
                assert text == as_word_label_runs(group.factor_element(f, e)), path.name


def enumerate_ball_elementwise(group, parts, depth):
    """The original enumerate_ball loop on FPElement values, kept as the
    reference for the loop on syllable tuples."""
    part_elems = []
    for factor, subgroup, conj in parts:
        sub = sorted(set(subgroup))
        part_elems.append(
            [conj * group.factor_element(factor, h) * conj.inverse() for h in sub if h]
        )
    identity = group.identity()
    seen = {identity.syllables}
    out = [identity]
    level = [(-1, identity)]
    for _ in range(depth):
        nxt = []
        for last, value in level:
            for pi, elems in enumerate(part_elems):
                if pi == last:
                    continue
                for t in elems:
                    v = value * t
                    nxt.append((pi, v))
                    if v.syllables not in seen:
                        seen.add(v.syllables)
                        out.append(v)
        level = nxt
    return out


def test_enumerate_ball_matches_elementwise_reference(p23, s3z2):
    a, b = p23.generator("a"), p23.generator("b")
    one = p23.identity()
    p23_parts = [
        [(0, (0, 1), one), (1, (0, 1, 2), one)],
        [(0, (0, 1), b), (1, (0, 1, 2), a * b * a)],  # conjugated parts
        [(0, (0, 1), one), (0, (0, 1), one)],  # a repeated part
        [(1, (0, 1, 2), a), (0, (0, 1), one), (1, (0, 1, 2), a)],
    ]
    c = s3z2.generator("c")
    r = s3z2.generator("a") * s3z2.generator("b")
    one = s3z2.identity()
    s3z2_parts = [
        [(0, range(6), one), (1, (0, 1), one)],
        [(0, s3z2.factors[0].generated_subgroup([1]), one), (0, range(6), c)],
        [(0, s3z2.factors[0].generated_subgroup([r.syllables[0][1]]), c), (1, (0, 1), r)],
        [(0, range(6), c), (0, range(6), c)],  # a repeated conjugated part
    ]
    for group, cases in ((p23, p23_parts), (s3z2, s3z2_parts)):
        for parts in cases:
            for depth in range(5):
                ball = enumerate_ball(group, parts, depth)
                reference = enumerate_ball_elementwise(group, parts, depth)
                assert [u.syllables for u in ball] == [u.syllables for u in reference]
                assert all(u.group is group for u in ball)
                assert len(set(ball)) == len(ball)


# -- the lazy ball against enumerate_ball ---------------------------------------

_Z6Z2 = FreeProduct([direct_product(make_cyclic(2, "a"), make_cyclic(3, "b")), make_cyclic(2, "c")])


@st.composite
def ball_parts(draw, group):
    """1-4 parts: random nontrivial subgroups of random factors, each under a
    short conjugator; a drawn part may be repeated, and parts of one factor
    overlap or coincide."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.integers(0, len(group.factors) - 1))
        fg = group.factors[f]
        gens = draw(st.lists(st.integers(1, fg.order - 1), min_size=1, max_size=2))
        conj = draw(elements(group, 2))
        parts.append((f, fg.generated_subgroup(gens), conj))
    if draw(st.booleans()):
        parts.append(parts[draw(st.integers(0, len(parts) - 1))])
    return parts


@pytest.mark.parametrize("group", [_G, _S3Z2, _Z6Z2], ids=["p23", "s3z2", "z6z2"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ball_matches_enumerate_ball(group, data):
    parts = data.draw(ball_parts(group), label="parts")
    depth = data.draw(st.integers(0, 5), label="depth")
    reference = enumerate_ball(group, parts, depth)
    members = {u.syllables for u in reference}
    part_elems = free_product._part_syllables(group, parts)
    # Targets: ball elements, each times one more part element (inside or
    # just outside the ball), and random elements.
    inside = data.draw(st.lists(st.sampled_from(reference), max_size=8))
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(reference), st.sampled_from(range(len(parts)))), max_size=8))
    beyond = [
        u * FPElement(group, data.draw(st.sampled_from(part_elems[p])))
        for u, p in steps
    ]
    targets = inside + beyond + data.draw(st.lists(elements(group, 6), max_size=4))

    ball = Ball(group, parts, depth)
    assert ball and not ball.enumerated
    # meet in the middle, then the set of the built ball
    assert [t in ball for t in targets] == [t.syllables in members for t in targets]
    assert not ball.enumerated
    assert len(ball) == len(reference)
    assert [t in ball for t in targets] == [t.syllables in members for t in targets]
    assert ball.membership_queries == 2 * len(targets)
    assert [u.syllables for u in ball] == [u.syllables for u in reference]
    assert ball.enumerated
    for i in data.draw(st.lists(st.integers(-len(reference), len(reference) - 1), max_size=4)):
        assert ball[i] == reference[i]
    assert ball[1:4] == reference[1:4]


def test_ball_rejects_bad_parts_when_made(p23, s3z2):
    one = p23.identity()
    with pytest.raises(TrivialSubgroupError):
        Ball(p23, [(0, (0,), one)], 1)
    with pytest.raises(NotASubgroupError):
        Ball(p23, [(1, (0, 1), one)], 1)
    with pytest.raises(MixedAmbientError):
        Ball(p23, [(0, (0, 1), s3z2.identity())], 1)
    with pytest.raises(BadFactorIndexError):
        Ball(p23, [(2, (0, 1), one)], 1)
    ball = Ball(p23, [(0, (0, 1), one)], 3)
    assert s3z2.identity() not in ball and "a" not in ball
    assert ball.membership_queries == 0


@pytest.mark.parametrize("group", [_G, _S3Z2, _Z6Z2], ids=["p23", "s3z2", "z6z2"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ball_products_are_the_ball_of_summed_depth(group, data):
    # B_a B_b = B_(a+b) as sets, for any parts, overlapping and conjugated
    # ones included: two adjacent factors from one part merge into that
    # part or cancel.  With B_a closed under inversion, this is the set of
    # values of x1^+-1 x2^+-1 that solve_bounded's image walk decides.
    parts = data.draw(ball_parts(group), label="parts")
    a = data.draw(st.integers(0, 3), label="a")
    b = data.draw(st.integers(0, 4 - a).filter(lambda b: b != a), label="b")
    left, right = enumerate_ball(group, parts, a), enumerate_ball(group, parts, b)
    products = {(u * v).syllables for u in left for v in right}
    assert products == {w.syllables for w in enumerate_ball(group, parts, a + b)}
    assert {u.inverse().syllables for u in left} == {u.syllables for u in left}
    # building the image extends only its new elements: at most one product
    # per element and nonidentity part element, however the parts overlap
    size, formed, part_elements = ball_products(group, parts, a + b)
    assert formed <= size * part_elements


def ball_products(group, parts, depth):
    """(|B_depth|, the products enumerate_ball forms to build it, the number
    of nonidentity part elements); the parts' own conjugations are made
    before counting starts."""
    part_elems = free_product._part_syllables(group, parts)
    formed = 0
    real = free_product._product

    def spy(*args):
        nonlocal formed
        formed += 1
        return real(*args)

    with (patch.object(free_product, "_part_syllables", lambda *args: part_elems),
          patch.object(free_product, "_product", spy)):
        size = len(enumerate_ball(group, parts, depth))
    return size, formed, sum(map(len, part_elems))


def test_ball_forms_products_only_from_new_elements(p23):
    # one C3 given twice: the ball is C3 at every depth.  Extending every
    # sequence of alternating part elements would form 2 * 2^n products
    # of n of them, 252 for B_6; extending only new elements forms 4 from
    # the identity and 2 from each of a and a^2.
    one = p23.identity()
    same = [(1, (0, 1, 2), one), (1, (0, 1, 2), one)]
    assert ball_products(p23, same, 6) == (3, 8, 4)
