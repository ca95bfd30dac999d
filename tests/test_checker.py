import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from freeprod import checker
from freeprod.checker import CONDITION1, CONDITION2, KuroshData, Part
from freeprod.errors import (
    BadFactorIndexError,
    ForeignElementError,
    MixedAmbientError,
    NotASubgroupError,
    TrivialSubgroupError,
)
from freeprod.finite_group import (
    direct_product,
    make_cyclic,
    make_dihedral_reflections,
)
from freeprod.free_product import Ball, FreeProduct


def example1_data(s3z2):
    d3 = s3z2.factors[0]
    a, b = d3.generators[0][1], d3.generators[1][1]
    return KuroshData(
        s3z2,
        0,
        (
            Part.of(s3z2, 0, [a]),
            Part.of(s3z2, 0, [b], s3z2.generator("c")),
        ),
    )


def example2_data(z6z2):
    z6 = z6z2.factors[0]
    a, b = z6.generators[0][1], z6.generators[1][1]
    return KuroshData(
        z6z2,
        0,
        (
            Part.of(z6z2, 0, [a]),
            Part.of(z6z2, 0, [b], z6z2.generator("c")),
        ),
    )


def klein_data(kleinz2):
    k = kleinz2.factors[0]
    a, d = k.generators[0][1], k.generators[1][1]
    return KuroshData(
        kleinz2,
        0,
        (
            Part.of(kleinz2, 0, [a]),
            Part.of(kleinz2, 0, [d], kleinz2.generator("c")),
        ),
    )


# -- validate ---------------------------------------------------------------


def test_validate_example1_ok(s3z2):
    assert checker.validate(example1_data(s3z2)) == []


def test_validate_trivial_subgroup(s3z2):
    data = KuroshData(s3z2, 0, (Part(0, (0,), s3z2.identity()),))
    errors = checker.validate(data)
    assert any(isinstance(e, TrivialSubgroupError) for e in errors)


def test_validate_non_closed_set(s3z2):
    d3 = s3z2.factors[0]
    a, b = d3.generators[0][1], d3.generators[1][1]
    data = KuroshData(s3z2, 0, (Part(0, (0, a, b), s3z2.identity()),))
    errors = checker.validate(data)
    assert any(isinstance(e, NotASubgroupError) for e in errors)


def test_validate_bad_factor_index(s3z2):
    data = KuroshData(s3z2, 0, (Part(5, (0, 1), s3z2.identity()),))
    errors = checker.validate(data)
    assert any(isinstance(e, BadFactorIndexError) for e in errors)


_P22 = FreeProduct([make_cyclic(2, "p"), make_cyclic(2, "q")])


@pytest.mark.parametrize("broken, error", [
    (lambda g: Part(5, (0, 1), g.identity()), BadFactorIndexError),
    (lambda g: Part(0, (0, *[e for _, e in g.factors[0].generators]), g.identity()),
     NotASubgroupError),
    (lambda g: Part(0, (0,), g.identity()), TrivialSubgroupError),
    (lambda g: Part(1, (0, 1), _P22.identity()), MixedAmbientError),
], ids=["factor", "closed", "nontrivial", "conjugator"])
def test_validate_and_ball_report_the_same_error(s3z2, broken, error):
    # one check of a part's invariants serves the decomposition and the ball
    parts = [Part.of(s3z2, 1, [1]), broken(s3z2)]
    errors = checker.validate(KuroshData(s3z2, 0, tuple(parts)))
    assert [type(e) for e in errors] == [error]
    assert str(errors[0]).startswith("part 1: ")
    with pytest.raises(error):
        Ball(s3z2, parts, 1)


@pytest.mark.parametrize("ids", [(0, 7), (0, 1, "x"), (0, -1)], ids=["range", "type", "negative"])
def test_foreign_ids_in_a_part_are_foreign_everywhere(p23, ids):
    # Every id is checked before a product is read: an id past the table,
    # one that is not an int, and a negative one (which would read the
    # table from its end) are foreign, not an IndexError, a TypeError or
    # "not a subgroup".
    c3 = p23.factors[1]
    with pytest.raises(ForeignElementError):
        c3.is_subgroup(ids)
    errors = checker.validate(KuroshData(p23, 0, (Part(1, ids, p23.identity()),)))
    assert [type(e) for e in errors] == [ForeignElementError]
    assert str(errors[0]).startswith("part 0: ")
    with pytest.raises(ForeignElementError):
        Ball(p23, [Part(1, ids, p23.identity())], 1)


# -- condition 1 ------------------------------------------------------------


def test_condition1(s3z2):
    data = example1_data(s3z2)
    assert checker.check_condition1(data) is None
    for rank in (1, 3):
        v = checker.check_condition1(KuroshData(s3z2, rank, data.parts))
        assert v is not None and v.kind == CONDITION1 and v.free_rank == rank


# -- condition 2 ------------------------------------------------------------


def test_condition2_example1_witness(s3z2):
    d3 = s3z2.factors[0]
    a, b = d3.generators[0][1], d3.generators[1][1]
    violations = checker.check_condition2(example1_data(s3z2))
    assert violations
    first = violations[0]
    assert first.part_indices == (0, 1)
    assert first.witness_f == a
    assert first.witness_g == d3.mul(b, a)  # g = b a
    assert first.k1 == first.k2 == 1
    # the conjugated subgroup really is <a>
    assert d3.conjugate_subgroup(d3.generated_subgroup([b]), first.witness_g) == (0, a)
    # plain (factor, subgroup, conjugator) triples work as parts
    triples = KuroshData(s3z2, 0, tuple(tuple(p) for p in example1_data(s3z2).parts))
    assert checker.check_all(triples) == checker.check_all(example1_data(s3z2))


def test_condition2_example2_witness(z6z2):
    z6 = z6z2.factors[0]
    a, b = z6.generators[0][1], z6.generators[1][1]
    violations = checker.check_condition2(example2_data(z6z2))
    assert violations
    first = violations[0]
    assert first.witness_f == z6.mul(a, b)
    assert first.witness_g == 0
    assert (first.k1, first.k2) == (3, 2)


def test_condition2_klein_passes(kleinz2):
    assert checker.check_condition2(klein_data(kleinz2)) == []


def reverify_condition2(data, violation):
    """Independent re-check of a witness using only finite_group primitives."""
    group = data.ambient.factors[violation.factor]
    j1, j2 = violation.part_indices
    f1 = group.power(violation.witness_f, violation.k1)
    f2 = group.power(violation.witness_f, violation.k2)
    conj = group.conjugate_subgroup(data.parts[j2].subgroup, violation.witness_g)
    return (
        f1 != 0
        and f2 != 0
        and f1 in data.parts[j1].subgroup
        and f2 in conj
    )


def test_condition2_witnesses_reverify(s3z2, z6z2):
    for data in (example1_data(s3z2), example2_data(z6z2)):
        for v in checker.check_condition2(data):
            assert reverify_condition2(data, v)


# -- condition 3 ------------------------------------------------------------


def test_condition3_example1(s3z2):
    d3 = s3z2.factors[0]
    a, b = d3.generators[0][1], d3.generators[1][1]
    violations = checker.check_condition3(example1_data(s3z2))
    assert violations
    first = violations[0]
    assert first.witness_g == d3.mul(b, a)
    assert first.witness_f == a
    assert (first.k1, first.k2) == (1, 1)


def test_condition3_klein_passes(kleinz2):
    assert checker.check_condition3(klein_data(kleinz2)) == []


def test_condition3_single_part_vacuous(s3z2):
    d3 = s3z2.factors[0]
    data = KuroshData(s3z2, 0, (Part.of(s3z2, 0, [d3.generators[0][1]]),))
    assert checker.check_condition3(data) == []
    assert checker.check_condition2(data) == []


def test_condition3_implies_condition2(s3z2, z6z2, kleinz2):
    for data in (example1_data(s3z2), example2_data(z6z2), klein_data(kleinz2)):
        c3_pairs = {v.part_indices for v in checker.check_condition3(data)}
        c2_pairs = {v.part_indices for v in checker.check_condition2(data)}
        assert c3_pairs <= c2_pairs


# -- check_all ----------------------------------------------------------------


def test_check_all_example1_fails(s3z2):
    verdict = checker.check_all(example1_data(s3z2))
    assert not verdict.passes_necessary
    assert not verdict.inconclusive
    assert any(v.kind == CONDITION2 for v in verdict.violations)


def test_check_all_free_factor_passes(s3z2):
    # single part that is a whole free factor (a retract): clean
    data = KuroshData(s3z2, 0, (Part.of(s3z2, 0, [s3z2.factors[0].generators[0][1],
                                                  s3z2.factors[0].generators[1][1]]),))
    verdict = checker.check_all(data)
    assert verdict.passes_necessary and verdict.inconclusive


def test_check_all_klein_inconclusive(kleinz2):
    verdict = checker.check_all(klein_data(kleinz2))
    assert verdict.passes_necessary
    assert verdict.inconclusive  # necessary, never sufficient


def test_check_all_reports_condition1_and_2(s3z2):
    data = KuroshData(s3z2, 2, example1_data(s3z2).parts)
    verdict = checker.check_all(data)
    kinds = {v.kind for v in verdict.violations}
    assert kinds == {CONDITION1, CONDITION2}


def test_check_all_counts_pairs_and_table_entries(s3z2):
    # two parts in factor 0 (order 6, subgroups of order 2): two ordered
    # pairs, 6 * 2 conjugates each; a part alone in its factor adds none
    data = KuroshData(s3z2, 0, (*example1_data(s3z2).parts, Part.of(s3z2, 1, [1])))
    verdict = checker.check_all(data)
    assert (verdict.pairs, verdict.table_entries) == (2, 24)


def test_check_all_validates_once(s3z2, monkeypatch):
    # check_all validates its input once for both conditions; the public
    # condition checks still validate on their own.
    calls = []
    real = checker.validate
    monkeypatch.setattr(checker, "validate", lambda data: calls.append(data) or real(data))
    data = KuroshData(s3z2, 2, example1_data(s3z2).parts)
    assert len(checker.check_all(data).violations) == 3
    assert calls == [data]
    checker.check_condition1(data)
    checker.check_condition2(data)
    assert len(calls) == 3


# -- randomized laws -----------------------------------------------------------


def random_ambient(rng):
    makers = [
        lambda: make_cyclic(rng.choice([2, 3, 4, 5]), _fresh(rng)),
        lambda: make_dihedral_reflections(rng.choice([2, 3]), (_fresh(rng), _fresh(rng))),
        lambda: direct_product(
            make_cyclic(2, _fresh(rng)), make_cyclic(rng.choice([2, 3]), _fresh(rng))
        ),
    ]
    n = rng.randint(2, 3)
    return FreeProduct([rng.choice(makers)() for _ in range(n)])


_COUNTER = [0]


def _fresh(rng):
    _COUNTER[0] += 1
    return f"g{_COUNTER[0]}"


def random_subgroup(rng, group):
    while True:
        size = rng.randint(1, min(2, group.order - 1))
        gens = rng.sample(range(1, group.order), size)
        sub = group.generated_subgroup(gens)
        if len(sub) >= 2:
            return sub


def random_conjugator(rng, ambient):
    n = len(ambient.factors)
    sylls = []
    f = rng.randrange(n)
    for _ in range(rng.randint(0, 3)):
        sylls.append((f, rng.randrange(1, ambient.factors[f].order)))
        f = rng.choice([i for i in range(n) if i != f])
    return ambient.element(sylls)


def test_duplicated_part_always_violates():
    rng = random.Random(99)
    for _ in range(60):
        ambient = random_ambient(rng)
        i = rng.randrange(len(ambient.factors))
        sub = random_subgroup(rng, ambient.factors[i])
        parts = (
            Part(i, sub, random_conjugator(rng, ambient)),
            Part(i, sub, random_conjugator(rng, ambient)),
        )
        data = KuroshData(ambient, 0, parts)
        assert checker.check_condition2(data), "duplicated part must violate"


def test_distinct_factor_parts_always_pass():
    rng = random.Random(100)
    for _ in range(60):
        ambient = random_ambient(rng)
        parts = tuple(
            Part(i, random_subgroup(rng, g), random_conjugator(rng, ambient))
            for i, g in enumerate(ambient.factors)
        )
        data = KuroshData(ambient, 0, parts)
        assert checker.check_condition2(data) == []


def brute_pair_witness(group, sub1, sub2):
    """Oracle with power exponents up to the group order."""
    set1 = set(sub1)
    for f in range(1, group.order):
        for g in range(group.order):
            conj = set(group.conjugate_subgroup(tuple(sub2), g))
            for k1 in range(1, group.order + 1):
                p1 = group.power(f, k1)
                if p1 == 0 or p1 not in set1:
                    continue
                for k2 in range(1, group.order + 1):
                    p2 = group.power(f, k2)
                    if p2 != 0 and p2 in conj:
                        return f, g, k1, k2
    return None


def test_condition2_search_matches_brute_oracle():
    rng = random.Random(101)
    for _ in range(40):
        ambient = random_ambient(rng)
        i = rng.randrange(len(ambient.factors))
        group = ambient.factors[i]
        sub1 = random_subgroup(rng, group)
        sub2 = random_subgroup(rng, group)
        data = KuroshData(
            ambient,
            0,
            (
                Part(i, sub1, ambient.identity()),
                Part(i, sub2, random_conjugator(rng, ambient)),
            ),
        )
        fast = checker.check_condition2(data)
        slow01 = brute_pair_witness(group, sub1, sub2)
        slow10 = brute_pair_witness(group, sub2, sub1)
        fast_pairs = {v.part_indices for v in fast}
        assert ((0, 1) in fast_pairs) == (slow01 is not None)
        assert ((1, 0) in fast_pairs) == (slow10 is not None)


# -- the first-conjugator scans against the per-(f, g) scan ---------------------


def scan_pair_witness(group, sub1, sub2):
    """Brute-force oracle for checker._pair_witness: f ascending, f's first
    power in sub1 \\ {1}, then g ascending with one conjugate set per
    (f, g), and f's first power in it."""
    set1 = set(sub1)
    for f in range(1, group.order):
        powers = [group.power(f, k) for k in range(1, group.element_order(f))]
        k1 = next((k for k, x in enumerate(powers, 1) if x in set1), None)
        if k1 is None:
            continue
        for g in range(group.order):
            conj = set(group.conjugate_subgroup(sub2, g))
            k2 = next((k for k, x in enumerate(powers, 1) if x in conj), None)
            if k2 is not None:
                return f, g, k1, k2
    return None


def scan_condition3(group, sub1, sub2):
    """Brute-force oracle for one pair of check_condition3: the first g
    with sub1 meeting g sub2 g^-1 nontrivially, and the least element of
    that meet other than 1, as (f, g)."""
    for g in range(group.order):
        meet = set(sub1) & set(group.conjugate_subgroup(sub2, g)) - {0}
        if meet:
            return min(meet), g
    return None


_FACTORS = (
    [make_dihedral_reflections(n) for n in range(2, 13)]
    + [make_cyclic(n) for n in range(2, 13)]
    + [direct_product(make_cyclic(2, "c"), make_dihedral_reflections(4)),
       direct_product(make_cyclic(2, "c"), make_cyclic(6, "d")),
       # f = t (a b) has f^2 = t^2 (a b)^2 central and is conjugate to
       # t (a b)^-1, so for sub2 = <t (a b)^-1> its powers f and f^2 have
       # different least conjugators; with sub1 = <f^2> only the least
       # of them gives the scan's witness, and no factor above tells the
       # least from the greatest
       direct_product(make_cyclic(4, "t"), make_dihedral_reflections(4)),
       # for sub1 = <t> and sub2 = <b>, f = t a b a has f^2 = t^2 in sub1
       # and f^3 = a b a = (a b) b (a b)^-1: the one factor here, over
       # every subgroup at most two elements generate, with a witness
       # whose g != 1 and k2 >= 2, the case the k2 walk exists for
       direct_product(make_cyclic(3, "t"), make_dihedral_reflections(4))]
)
_AMBIENTS = [FreeProduct([g, make_cyclic(2, "z")]) for g in _FACTORS]


def _c4d4_case():
    """(index, <f^2>, <t (a b)^-1>) for f = t (a b) in C4 x D4 (see _FACTORS)."""
    i = len(_FACTORS) - 2
    g = _FACTORS[i]
    t, a, b = (e for _, e in g.generators)
    ab = g.mul(a, b)
    f = g.mul(t, ab)
    return i, g.generated_subgroup([g.power(f, 2)]), g.generated_subgroup([g.mul(t, g.inv(ab))])


def _c3d4_case():
    """(index, <t>, <b>) in C3 x D4 (see _FACTORS): the witness is
    f = t a b a, g = a b, k1 = 2, k2 = 3."""
    i = len(_FACTORS) - 1
    g = _FACTORS[i]
    t, _, b = (e for _, e in g.generators)
    return i, g.generated_subgroup([t]), g.generated_subgroup([b])


@st.composite
def factor_and_two_subgroups(draw):
    i = draw(st.integers(0, len(_FACTORS) - 1))
    group = _FACTORS[i]
    gens = st.lists(st.integers(1, group.order - 1), min_size=1, max_size=2)
    return i, group.generated_subgroup(draw(gens)), group.generated_subgroup(draw(gens))


@settings(max_examples=400, deadline=None)
@given(case=factor_and_two_subgroups())
@example(case=_c4d4_case())
@example(case=_c3d4_case())
def test_pair_witness_is_the_scan_orders_first_witness(case):
    i, sub1, sub2 = case
    group = _FACTORS[i]
    assert checker._pair_witness(group, sub1, sub2) == scan_pair_witness(group, sub1, sub2)
    assert checker._pair_witness(group, sub2, sub1) == scan_pair_witness(group, sub2, sub1)


@settings(max_examples=400, deadline=None)
@given(case=factor_and_two_subgroups())
def test_condition3_is_the_scan_orders_first_meet(case):
    i, sub1, sub2 = case
    group, ambient = _FACTORS[i], _AMBIENTS[i]
    c = ambient.generator("z")
    data = KuroshData(ambient, 0, (Part(0, sub1, ambient.identity()), Part(0, sub2, c)))
    expected = []
    for j1, j2, s1, s2 in ((0, 1, sub1, sub2), (1, 0, sub2, sub1)):
        found = scan_condition3(group, s1, s2)
        if found:
            expected.append(((j1, j2), *found))
    got = checker.check_condition3(data)
    assert [(v.part_indices, v.witness_f, v.witness_g) for v in got] == expected
    assert all(v.kind == CONDITION2 and v.k1 == v.k2 == 1 for v in got)
