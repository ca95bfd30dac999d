import hashlib
import json
import random
import re
from itertools import product as cartesian
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements
from freeprod import free_product, words
from freeprod.errors import (
    EmptyCandidatesError,
    EmptyWordError,
    GroupError,
    MixedAmbientError,
    PowerTooLargeError,
    UnboundVariableError,
    UnknownGeneratorError,
    VerificationError,
    WordSyntaxError,
)
from freeprod.finite_group import (
    FiniteGroup,
    direct_product,
    make_cyclic,
    make_dihedral_reflections,
)
from freeprod.free_product import INFINITE, Ball, FPElement, FreeProduct, enumerate_ball
from freeprod.sampling import random_reduced, random_word_text
from freeprod.words import (
    Const,
    Equation,
    MixedWord,
    Pow,
    Substitution,
    Var,
    build_lemma4,
    build_lemma5,
    evaluate,
    parse_constant,
    parse_equation,
    parse_word,
    solve_bounded,
    theorem2_report,
)


def test_parse_simple_variables(p23):
    w = parse_word("x1 x2^-1", p23)
    assert w.letters == (Var(1), Var(2, -1))


def test_parse_commutator_with_conjugation(p23):
    w = parse_word("[x1, x2^x3]", p23)
    body = (
        Var(1),
        Var(3), Var(2), Var(3, -1),
        Var(1, -1),
        Var(3), Var(2, -1), Var(3, -1),
    )
    # the commutator stays one item, a group whose body is written out
    assert w.letters == (Pow(body, 1),)
    assert words._expand(w.letters) == body
    # its powers and its inverse share that body
    assert parse_word("[x1, x2^x3]^3", p23).letters == (Pow(body, 3),)
    assert parse_word("[x1, x2^x3]^-1", p23).letters == (Pow(body, -1),)
    assert w.inverse().letters == (Pow(body, -1),)
    assert parse_word("[1, 1] x1", p23).letters == (Var(1),)


def test_parse_keeps_powers(p23):
    w = parse_word("x1^3 (x1 x2)^-2 x2^1 x2^-1 a^0", p23)
    assert w.letters == (
        Pow((Var(1),), 3), Pow((Var(1), Var(2)), -2), Var(2), Var(2, -1),
    )
    assert w.inverse().letters == (
        Var(2), Var(2, -1), Pow((Var(1), Var(2)), 2), Pow((Var(1),), -3),
    )
    f = parse_word("x1 x2", p23)
    assert f.repeat(5).letters == (Pow((Var(1), Var(2)), 5),)
    assert f.repeat(-1) == f.inverse() and f.repeat(1) == f
    assert f.repeat(0).letters == ()
    assert len(parse_word("a^100000000000", p23).letters) == 1
    assert parse_word("((x1)^2)^3", p23).letters == (Pow((Pow((Var(1),), 2),), 3),)


def test_parse_rejects_dangling_caret(p23):
    with pytest.raises(WordSyntaxError):
        parse_word("x1^", p23)


def test_parse_rejects_unknown_generator(p23):
    with pytest.raises(UnknownGeneratorError):
        parse_word("a q", p23)


def test_parse_generators_powers_identity(p23):
    a, b = p23.generator("a"), p23.generator("b")
    assert parse_constant("a b^2 a", p23) == a * b * b * a
    assert parse_constant("(a b)^3", p23) == (a * b).power(3)
    assert parse_constant("b^-1", p23) == b.inverse()
    assert parse_constant("1", p23).is_identity
    assert parse_constant("b^a", p23) == b.conjugate(a)


def test_parse_precedence_caret_over_juxtaposition(p23):
    # x1 x2^-1 is x1 * (x2^-1), not (x1 x2)^-1
    val = evaluate(parse_word("x1 x2^-1", p23), {1: p23.generator("a"), 2: p23.generator("b")})
    assert val == p23.generator("a") * p23.generator("b").inverse()


def test_evaluate_examples(p23):
    a, b = p23.generator("a"), p23.generator("b")
    w = parse_word("x1 x2", p23)
    assert evaluate(w, {1: a, 2: b}) == a * b
    w = parse_word("[x1, x2^x3]", p23)
    val = evaluate(w, {1: a, 2: b, 3: p23.identity()})
    assert val == a * b * a * b * b  # a b a b^2


def test_evaluate_theorem2_word_in_big_group(kleinz2):
    ga, gd, gc = (kleinz2.generator(x) for x in "adc")
    w = parse_word(words.THEOREM2_WORD_TEXT, kleinz2)
    value = evaluate(w, {1: ga, 2: gc * gd * gc, 3: gc})
    expected = (ga * gc * gd * gc).power(2)
    assert value == expected
    assert value.norm == 8


def test_evaluate_unbound_variable(p23):
    with pytest.raises(UnboundVariableError):
        evaluate(parse_word("x1 x5", p23), {1: p23.generator("a")})


def test_evaluate_checks_each_value_once_at_the_boundary(p23, p22):
    # Every substitution value must be an element of the word's group, as a
    # mapping or as a Substitution, also for a variable the word repeats or
    # only inverts: below evaluate, values are read as normal forms unchecked.
    a = p23.generator("a")
    for text in ("x1", "x1^-1", "x2 x1 x1", "(x1 x2)^3"):
        word = parse_word(text, p23)
        for wrong in (p22.generator("a"), a.syllables, "a", None):
            for subst in ({1: wrong, 2: a}, Substitution.of({1: wrong, 2: a})):
                with pytest.raises(MixedAmbientError):
                    evaluate(word, subst)
    assert evaluate(parse_word("x1^-1", p23), Substitution.of({1: a})) == a.inverse()


@settings(max_examples=150, deadline=None)
@given(u=elements(FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])),
       v=elements(FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])))
def test_evaluate_is_a_homomorphism(p23, u, v):
    # rebuild the strategy elements inside the shared fixture's ambient
    u = p23.element(u.syllables)
    v = p23.element(v.syllables)
    w1 = MixedWord(p23, (Var(1), Const(p23.generator("a")), Var(2, -1)))
    w2 = MixedWord(p23, (Var(2), Var(1, -1)))
    sub = {1: u, 2: v}
    assert evaluate(w1.concat(w2), sub) == evaluate(w1, sub) * evaluate(w2, sub)
    assert evaluate(w1.inverse(), sub) == evaluate(w1, sub).inverse()


def flat_letters(items):
    """Test-side expansion of every Pow into copies of its body."""
    out = []
    for l in items:
        if isinstance(l, Pow):
            body = flat_letters(l.body)
            if l.k < 0:
                body = [
                    Var(x.index, -x.sign) if isinstance(x, Var) else Const(x.value.inverse())
                    for x in reversed(body)
                ]
            out += body * abs(l.k)
        else:
            out.append(l)
    return out


def multiply_letters(letters, sub, group):
    """Independent oracle: the product of the letter values with ``*``."""
    value = group.identity()
    for l in letters:
        if isinstance(l, Var):
            value = value * (sub[l.index] if l.sign > 0 else sub[l.index].inverse())
        else:
            value = value * l.value
    return value


_P23 = FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])
_HUGE = 10**12  # = 4 mod 6, and every finite order in C2 * C3 divides 6


def word_texts(depth=3):
    """Word text with nested powers (exponents 0, +-1, negative, huge),
    conjugates and commutators, over x1, x2 and the generators of C2 * C3."""
    atoms = st.sampled_from(["x1", "x2", "a", "b", "1"])
    if depth == 0:
        return atoms
    inner = word_texts(depth - 1)
    exponents = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, _HUGE, -_HUGE])
    return st.one_of(
        atoms,
        st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}, {t[1]}]"),
    )


@settings(max_examples=300, deadline=None)
@given(text=word_texts(), u=elements(_P23), v=elements(_P23),
       k=st.sampled_from([-3, -2, -1, 0, 1, 2, 3]))
def test_evaluate_powers_match_flat_expansion(p23, text, u, v, k):
    sub = {1: p23.element(u.syllables), 2: p23.element(v.syllables)}
    word = parse_word(text, p23)
    # The same word with every huge exponent e replaced by e mod 6, which
    # can be written out; it has the same value unless a huge power has a
    # base of infinite order, which the kernel refuses.
    small = parse_word(text.replace(str(_HUGE), "4"), p23)
    # Pow items with exponent 0 and +-1 only arise when built directly.
    pairs = [(word, small),
             (MixedWord(p23, (Pow(word.letters, k),)), MixedWord(p23, (Pow(small.letters, k),)))]
    for w, w_small in pairs:
        flat = flat_letters(w_small.letters)
        expected = multiply_letters(flat, sub, p23)
        assert evaluate(MixedWord(p23, flat), sub) == expected
        try:
            value = evaluate(w, sub)
        except PowerTooLargeError:
            assert str(_HUGE) in text
            continue
        assert value == expected


_Z6Z2 = FreeProduct([direct_product(make_cyclic(2, "a"), make_cyclic(3, "b")),
                     make_cyclic(2, "c")])


# Inverted groups (inverted commutators) holding b, which is not an
# involution, and kept powers, one of them nested two deep.
_INVERTED_GROUP_WORDS = ["[x1 b, x2^2 x3]^-1", "x1 [[x2, b x1^4], x3 a]^-1 x2^-1",
                         "[x1^-2 b, x3]^-1 [x2, a b^2]^3"]


def mixed_items(group, depth=2):
    """Items over x1..x3 and constants of ``group`` (which has generators a
    and b): variables of both signs, constants, groups and inverted groups
    (Pow with k = +-1) and powers with 2 <= |k| <= 5, nested ``depth``
    deep, or the items of one of _INVERTED_GROUP_WORDS."""
    letters = st.one_of(st.builds(Var, st.integers(1, 3), st.sampled_from([1, -1])),
                        elements(group, 3).map(Const))
    items = st.lists(letters, max_size=4)
    for _ in range(depth):
        body = items.filter(bool).map(tuple)
        exponents = st.one_of(st.sampled_from([1, -1]),  # groups, half of the Pows
                              st.sampled_from([2, 3, 4, 5, -2, -3, -4, -5]))
        items = st.lists(st.one_of(letters, st.builds(Pow, body, exponents)), max_size=4)
    return st.one_of(st.sampled_from(_INVERTED_GROUP_WORDS).map(
        lambda text: parse_word(text, group).letters), items)


@pytest.mark.parametrize("group", [_P23, _Z6Z2], ids=["p23", "z6z2"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flat_refs_filled_and_merged_match_letter_by_letter(group, data):
    # A word's flat references, filled from a substitution and joined in
    # one merge, give the product of its written-out letters; the same
    # references filled again, from a second substitution, with the
    # inverses kept from the first, give that one's product.  The values
    # are not the identity, so that a reversed walk or a lost sign shows.
    items = tuple(data.draw(mixed_items(group), label="items"))
    codec = group.codec
    refs = words._flat_refs(items, codec)
    inverses = {}
    values = elements(group, 4).filter(lambda v: v.norm > 0)
    for _ in range(2):
        sub = {i: data.draw(values, label=f"x{i}") for i in (1, 2, 3)}
        pieces = words._fill(refs, codec, {i: v.ids for i, v in sub.items()}, inverses)
        expected = multiply_letters(words._expand(items), sub, group)
        assert free_product._seam_merge(codec, "", pieces) == expected.ids
        assert evaluate(MixedWord(group, items), sub) == expected


# -- bounded solving ---------------------------------------------------------


def test_solve_bounded_commutator(p23):
    eq = parse_equation("[x1,x2] = 1", p23)
    one = p23.identity()
    ball = enumerate_ball(
        p23, [(0, (0, 1), one), (1, (0, 1, 2), one)], 1
    )
    found = solve_bounded(eq, {1: ball, 2: ball}, mode="first")
    assert found is not None
    assert found[1].is_identity and found[2].is_identity


def naive_all_solutions(eq, candidates):
    """Independent oracle: plain nested loops, no shared machinery."""
    vs = eq.lhs.free_variables()
    out = []
    for combo in cartesian(*(candidates[v] for v in vs)):
        sub = dict(zip(vs, combo))
        if evaluate(eq.lhs, sub) == eq.rhs:
            out.append(Substitution.of(sub))
    return out


def assert_matches_oracle(eq, cand):
    candidates = {v: cand for v in eq.lhs.free_variables()}
    fast = solve_bounded(eq, candidates, mode="all")
    assert fast == naive_all_solutions(eq, candidates)
    first = solve_bounded(eq, candidates, mode="first")
    assert first == (fast[0] if fast else None)
    return fast


def assert_ball_matches_oracle(eq, make_ball):
    """solve_bounded with a fresh Ball per variable, in both modes, against
    the oracle over the built ball: an inner variable that occurs once is
    then answered by meet-in-the-middle membership."""
    vs = eq.lhs.free_variables()
    expected = naive_all_solutions(eq, {v: list(make_ball()) for v in vs})
    assert solve_bounded(eq, {v: make_ball() for v in vs}, mode="all") == expected
    first = solve_bounded(eq, {v: make_ball() for v in vs}, mode="first")
    assert first == (expected[0] if expected else None)


def spy_conjugator(monkeypatch):
    """Record (b, t, result) as id strings for every conjugacy test the
    solver makes; result is None when b and t are not conjugate."""
    calls = []
    real = words._conjugator

    def spy(codec, b, t, split=None):
        result = real(codec, b, t, split)
        calls.append((b, t, result))
        return result

    monkeypatch.setattr(words, "_conjugator", spy)
    return calls


# Outer variables x1, x2 that occur only in runs such as x1 x2: the walk
# decides each distinct value of the runs once.
FUSED_TEXTS = (
    # centralizer coset; x1 x2 = 1 gives B = T = 1 for several pairs
    "(x1 x2)^2 x3 (x1 x2)^-1 x3^-1 = 1",
    "(x1 x2)^2 x3 (x1 x2)^-1 x3^-1 = b",
    # a run in P and its inverse in B: joined across x3 they would cancel
    "x1 x2 x3 x2^-1 x1^-1 x3^-1 = 1",
    # B's run is not in P or Q: the target word alone does not decide it
    "x3 x1 x2 x3^-1 = b",
    "x3^-1 (x1 a x2)^2 x3 = a b^2 a b",
    # one occurrence
    "x3 (x1 a x2)^3 = 1",
    "x3 (x1 a x2)^3 = b a",
    "(x1 x2^-1)^2 x3^-1 b = a",
    # the general path
    "(x1 x2)^2 x3 (x1 x2) x3 = 1",
    "x3 (x1 b x2)^2 x3^2 = a",
)


def test_solve_bounded_all_matches_naive_oracle(p23, s3z2, monkeypatch):
    calls = spy_conjugator(monkeypatch)
    rng = random.Random(5)
    cand = [random_reduced(rng, p23, 0, 2) for _ in range(5)]
    one = p23.identity()
    parts = [(0, (0, 1), one), (1, (0, 1, 2), one)]
    ball = enumerate_ball(p23, parts, 3)
    for text in (
        "x1 x2 = a",
        "[x1,x2] = 1",
        "x1 x2 x1 = b",
        "x1^2 x2 = a b",
        # P y^s B y^-s Q with y = x2: y is looked up in a coset of C(B)
        "x1 x2 x1 x2^-1 = a",
        "x2^-1 x1 b x2 = a b",
        "x1 x2 b x2^-1 x1 = 1",
        "x2 x1 x2^-1 = b^2",
        "x1 x2 a x2^-1 = b a b",
        "x2 x2^-1 x1 = a",
        # B = 1 (x1 = 1): every y
        "x2 x1 x2^-1 = 1",
        # B a proper power: C(B) is generated by a b, not by the core
        "x2 (a b)^3 x2^-1 = (b a)^3",
        "x2 (a b)^3 x2^-1 x1 = (b a)^3",
        # B = u b u^-1 with u = b, and a core whose last syllable the cyclic
        # reduction merged: b^2 (a b a) b^2 = b^2 (a b)^2 b^-2
        "x2 b a b^2 x2^-1 = a",
        "x2 b^2 a b a b^2 x2^-1 x1 = a b a b",
        # s = -1: B and T swap roles
        "x2^-1 (a b)^3 x2 = (b a)^3",
        "x2^-1 b a b^2 x2 x1 = a",
        # y twice with the same sign: the gate does not apply
        "x2 x1 x2 = b",
        # y inside a power with |k| >= 2: the power stays a power, so the scan
        "(x1 x2)^2 = a b a b",
        "x2^2 x1 = a",
        "(x2 x1 x2^-1)^3 = b",
        # y once: solved by a scan for y^s = W0^-1 rhs W1^-1
        "x2 = a b",
        "x1 x2^-1 = b",
        "a x2 x1 = b a",
        "x2^-1 = b a b a",
        "x1 x2 = b a b a b",
        # shared sub-words on the general path: a commutator used with
        # several exponents, and a group next to its inverse
        "[x1,x2]^2 x1 [x1,x2] = a",
        "[x1,x2] x2 [x1,x2]^-1 = b",
        # y in nested powers: 1 + 2^3 occurrences, kept as powers
        "x2 (((x1 x2)^2 x1)^2 x1)^2 x1 = a",
        "x2 (((x1 x2)^2 x1)^2 x1)^2 x1 = b a b",
        # a run of one letter is keyed by x1's value, also when x1^-1 comes
        # first, on each path
        "x2 x1^-1 x2^-1 = b a b^2",
        "x2^-1 x1^-1 x2 x1 = a",
        "x1^-1 x2 = a b",
        "x2 x1^-1 x2 = b",
    ):
        eq = parse_equation(text, p23)
        for c in (cand, ball):
            assert_matches_oracle(eq, c)
        assert_ball_matches_oracle(eq, lambda: Ball(p23, parts, 3))
    # duplicated candidates: every copy is a solution of its own
    repeated = 0
    for text in ("x1 = a b", "x1 x2^-1 = b", "x2 x1 x2^-1 = b^2", "x1^2 x2 = a b",
                 "x2 x1 x2^-1 = 1", "x2 (a b)^3 x2^-1 x1 = (b a)^3",
                 "x2^-1 b a b^2 x2 x1 = a"):
        eq = parse_equation(text, p23)
        for c in (cand + cand, ball + ball[:7]):
            found = assert_matches_oracle(eq, c)
            repeated += len(found) - len(set(found))
    # outer variables that occur only together are fused: each distinct
    # value of their runs is decided once, and every tuple is still listed
    for text in FUSED_TEXTS:
        eq = parse_equation(text, p23)
        for c in (cand, ball, cand + cand, ball + ball[:7]):
            found = assert_matches_oracle(eq, c)
            repeated += len(found) - len(set(found))
        assert_ball_matches_oracle(eq, lambda: Ball(p23, parts, 3))
        counters = {}
        solve_bounded(eq, {v: ball for v in (1, 2, 3)}, mode="all", counters=counters)
        assert counters["outer_values"] < counters["outer_tuples"] == len(ball) ** 2
    assert repeated
    # B with a norm-1 core in a factor: the coset is c u C_A(b) u^-1.  In
    # S3 the conjugator inside the factor is nontrivial (a to b); in D4 the
    # central rotation (a b)^2 has the whole, non-abelian, D4 as centralizer.
    d4c2 = FreeProduct([make_dihedral_reflections(4), make_cyclic(2, "c")])
    for group, texts in (
        (s3z2, ("x2 x1 x2^-1 = a b", "x2 x1 x2^-1 = a", "x2^-1 c a c x2 = b",
                "x2 c a c x2^-1 x1 = b", "x2 x1 x2^-1 = 1")),
        (d4c2, ("x2 (a b)^2 x2^-1 = (a b)^2", "x2 c (a b)^2 c x2^-1 = (b a)^2",
                "x2^-1 x1 x2 = a b a b", "x2 x1 x2^-1 = c a c")),
    ):
        one = group.identity()
        parts = [(0, range(group.factors[0].order), one), (1, (0, 1), one)]
        group_ball = enumerate_ball(group, parts, 2)
        for text in texts + ("x1 x2 = c a", "x2^-1 x1 = a c b c"):
            eq = parse_equation(text, group)
            for c in (group_ball, group_ball + group_ball[:9]):
                assert_matches_oracle(eq, c)
            assert_ball_matches_oracle(eq, lambda: Ball(group, parts, 2))
    outcomes = {result is not None for _, _, result in calls}
    assert outcomes == {True, False}


def test_solve_bounded_does_not_fuse_one_variable_per_run(p23):
    # As many runs as outer variables: [x1,x2] = 1 has the runs x1 and
    # x1^-1, one up to inversion; x1 x2 x1 x2^-1 = a has x1 twice; in
    # x1 x3 x2 = a, x3 splits x1 from x2.
    one = p23.identity()
    ball = enumerate_ball(p23, [(0, (0, 1), one), (1, (0, 1, 2), one)], 4)
    for text in ("[x1,x2] = 1", "x1 x2 x1 x2^-1 = a", "x1 x3 x2 = a", "x1 = a b"):
        eq = parse_equation(text, p23)
        counters = {}
        solve_bounded(eq, {v: ball for v in (1, 2, 3)}, mode="all", counters=counters)
        tuples = len(ball) ** (len(eq.lhs.free_variables()) - 1)
        assert counters == {"outer_tuples": tuples, "outer_values": tuples, "image": None}
    counters = {}
    assert solve_bounded(parse_equation("a = a", p23), {}, counters=counters) is not None
    assert counters == {"outer_tuples": 0, "outer_values": 0, "image": None}


def fused_texts():
    """Left sides over C2 * C3 in which x1 and x2 occur only inside one run
    F, on each of the three paths (x3 once, x3 twice with opposite signs,
    otherwise)."""
    extra = st.lists(st.sampled_from(["x1", "x2^-1", "a", "b", "b^-1"]), max_size=2)
    run = st.tuples(extra, extra).flatmap(
        lambda t: st.permutations(["x1", "x2", *t[0], *t[1]]).map(" ".join)
    )
    exps = st.sampled_from([-2, -1, 1, 2, 3])
    templates = st.sampled_from([
        "x3 ({F})^{j}",
        "({F})^{j} x3^-1 {F}",
        "({F})^{j} x3 ({F})^{k} x3^-1",
        "x3^-1 ({F})^{k} x3 {F}",
        "({F})^{j} x3 ({F})^{k} x3",
        "x3 ({F})^{j} x3^2",
    ])
    return st.builds(lambda t, F, j, k: t.format(F=F, j=j, k=k), templates, run, exps, exps)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fused_and_plain_walks_agree(data):
    group = _P23
    text = data.draw(fused_texts(), label="lhs")
    lhs = parse_word(text, group)
    pool = data.draw(st.lists(elements(group, 3), min_size=1, max_size=5), label="pool")
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=3), label="copies")
    cands = pool + [FPElement(group, c.ids) for c in picks]
    # the right side: a random element, or a value the left side takes
    if data.draw(st.booleans(), label="reachable"):
        sub = {v: data.draw(st.sampled_from(cands)) for v in (1, 2, 3)}
        rhs = evaluate(lhs, sub)
    else:
        rhs = data.draw(elements(group, 4), label="rhs")
    eq = Equation(lhs, rhs)
    candidates = {v: cands for v in (1, 2, 3)}
    counters = {}
    fused = solve_bounded(eq, candidates, mode="all", counters=counters)
    # the plain walk is the oracle's, with nothing fused
    assert fused == naive_all_solutions(eq, candidates)
    assert solve_bounded(eq, candidates, mode="first") == (fused[0] if fused else None)
    assert counters["outer_tuples"] == len(cands) ** 2
    assert counters["outer_values"] <= counters["outer_tuples"]
    # a copied candidate gives the same run values as its original
    if picks:
        assert counters["outer_values"] < counters["outer_tuples"]


def test_solve_bounded_gate_separates_factor_classes(s3z2, monkeypatch):
    # x2 x1 x2^-1 = a b: the target a b is a rotation in S3, so x1 = a (a
    # reflection) has a norm-1 core in the same factor but another class.
    calls = spy_conjugator(monkeypatch)
    one = s3z2.identity()
    ball = enumerate_ball(s3z2, [(0, range(6), one), (1, (0, 1), one)], 2)
    eq = parse_equation("x2 x1 x2^-1 = a b", s3z2)
    assert assert_matches_oracle(eq, ball)
    a = s3z2.generator("a")
    rejected = [(b, t) for b, t, result in calls if result is None]
    assert (a.ids, eq.rhs.ids) in rejected
    assert a.cyclic_reduce().core.syllables[0][0] == eq.rhs.syllables[0][0]


_P23 = FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])
_S3Z2 = FreeProduct([make_dihedral_reflections(3), make_cyclic(2, "c")])


@pytest.mark.parametrize("group", [_P23, _S3Z2], ids=["p23", "s3z2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_centralizer_coset_lookup_matches_brute_force(group, data):
    # y^s B y^-s = T with B and T constants: the solver looks y up in the
    # coset c C(B).  T is a conjugate of B, or of a power of B, or random;
    # the candidates mix random elements, elements of the coset and copies
    # of both (separate objects, so that positions can be told apart).
    b = data.draw(elements(group, 6), label="B")
    g = data.draw(elements(group, 4), label="g")
    sign = data.draw(st.sampled_from([1, -1]), label="s")
    kind = data.draw(st.sampled_from(["conjugate", "power", "random"]), label="T")
    if kind == "random":
        t = data.draw(elements(group, 6))
    else:
        t = b.power(data.draw(st.integers(1, 2)) if kind == "power" else 1).conjugate(g)
    # solutions when T = g B g^-1: y in g C(B) for s = 1, y in C(B) g^-1 for s = -1
    if sign < 0:
        coset = [b.power(k) * g.inverse() for k in (-1, 0, 1, 2)]
    else:
        coset = [g * b.power(k) for k in (-1, 0, 1, 2)]
    pool = data.draw(st.lists(elements(group, 6), max_size=12)) + coset
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    cands = data.draw(st.permutations(pool + [FPElement(group, pool[i].ids) for i in picks]))
    letters = (Var(1, sign), Const(b), Var(1, -sign))
    eq = Equation(MixedWord(group, letters), t)
    found = solve_bounded(eq, {1: cands}, mode="all")
    index = {id(y): i for i, y in enumerate(cands)}
    positions = [index[id(sub[1])] for sub in found]
    if sign > 0:
        expected = [i for i, y in enumerate(cands) if y * b * y.inverse() == t]
    else:
        expected = [i for i, y in enumerate(cands) if y.inverse() * b * y == t]
    assert positions == expected
    first = solve_bounded(eq, {1: cands}, mode="first")
    assert first == (found[0] if found else None)
    if kind == "conjugate":
        assert positions  # g^s solves it


def test_commuting_pairs_work(p23, monkeypatch):
    # [x1,x2] = 1 over the 890-element depth-14 ball of <a> * <b>: per x1,
    # x2 is looked up in the centralizer of x1, so the search makes a few
    # seam merges per x1 and one per re-checked solution, not one per pair
    # (890^2 = 792,100).  4,408 pairs is the count bench/oracle.py finds.
    one = p23.identity()
    ball = enumerate_ball(p23, [(0, (0, 1), one), (1, (0, 1, 2), one)], 14)
    assert len(ball) == 890
    merges = 0
    real_merge = free_product._seam_merge

    def merge(*args):
        nonlocal merges
        merges += 1
        return real_merge(*args)

    inversions = powers = 0
    real_inverse, real_power = free_product._inverse_syllables, free_product.power_syllables

    def inverse(*args):
        nonlocal inversions
        inversions += 1
        return real_inverse(*args)

    def power(*args):
        nonlocal powers
        powers += 1
        return real_power(*args)

    monkeypatch.setattr(free_product, "_seam_merge", merge)
    monkeypatch.setattr(words, "_seam_merge", merge)
    monkeypatch.setattr(free_product, "_inverse_syllables", inverse)
    monkeypatch.setattr(words, "_inverse_syllables", inverse)
    monkeypatch.setattr(free_product, "power_syllables", power)
    monkeypatch.setattr(words, "power_syllables", power)
    found = solve_bounded(parse_equation("[x1,x2] = 1", p23), {1: ball, 2: ball}, mode="all")
    assert len(found) == 4408
    # the work, exactly: B = x1^-1 is a lone input with no power, read
    # without a merge, and T = x1^-1 rhs shares its one inversion of x1 per
    # key (890); record() inverts each value once (890), and the
    # centralizers' roots make the rest; each power of a root is built from
    # the root's split, with no power_syllables call
    assert (merges, inversions, powers) == (5299, 3036, 0)
    # the inverted commutator has the same solutions, found and re-checked
    # with as many merges: its re-check splices the inverted group's body
    # into one merge, as it splices the group's, walking it in reverse so
    # that each variable's inverse is read from the cache.  Its B = x1 is
    # not inverted, so it makes one inversion per key (890) fewer.
    plain, merges, inversions = merges, 0, 0
    inverted = parse_equation("[x1,x2]^-1 = 1", p23)
    assert solve_bounded(inverted, {1: ball, 2: ball}, mode="all") == found
    assert (merges, inversions) == (plain, 3036 - 890)


def test_solve_bounded_single_occurrence_work(z6z2, monkeypatch):
    # x1 = w over the 39,061-element depth-6 ball of <a,b> * c<a,b>c, with
    # w = c outside it: the answer is one scan, with no seam merge and no
    # inversion per candidate.
    one, c = z6z2.identity(), z6z2.generator("c")
    ball = enumerate_ball(z6z2, [(0, range(6), one), (0, range(6), c)], 6)
    assert len(ball) == 39061
    counts = {"merge": 0, "inverse": 0}
    real_merge, real_inverse = free_product._seam_merge, FPElement.inverse

    def merge(*args):
        counts["merge"] += 1
        return real_merge(*args)

    def inverse(self):
        counts["inverse"] += 1
        return real_inverse(self)

    def inverse_syllables(*args):
        counts["inverse"] += 1
        return real_inverse_syllables(*args)

    real_inverse_syllables = words._inverse_syllables
    monkeypatch.setattr(free_product, "_seam_merge", merge)
    monkeypatch.setattr(words, "_seam_merge", merge)
    monkeypatch.setattr(FPElement, "inverse", inverse)
    monkeypatch.setattr(words, "_inverse_syllables", inverse_syllables)
    for text in ("x1 = c", "x1^-1 = c a"):
        eq = parse_equation(text, z6z2)
        assert solve_bounded(eq, {1: ball}, mode="all") == []
        assert solve_bounded(eq, {1: ball}, mode="first") is None
    # exactly: the two merges parse the right sides, and each search of
    # x1^-1 = c a inverts its target once
    assert counts == {"merge": 2, "inverse": 2}
    # y twice with one sign: each candidate is squared, one step of one
    # input, which is a power and not a seam merge, and nothing is inverted
    assert solve_bounded(parse_equation("x1^2 = c", z6z2), {1: ball}) is None
    assert counts == {"merge": 3, "inverse": 2}
    # a target inside the ball is found at its first index
    w = ball[-1]
    eq = Equation(MixedWord(z6z2, (Var(1, -1),)), w.inverse())
    assert solve_bounded(eq, {1: ball}) == Substitution.of({1: w})


def test_solve_bounded_certifies_no_solution(p22):
    # The two-involution equation over the rank-two ball never reaches the
    # target value.
    eq = parse_equation(words.THEOREM2_WORD_TEXT + " = a b a b", p22)
    one = p22.identity()
    ball = enumerate_ball(p22, [(0, (0, 1), one), (1, (0, 1), one)], 12)
    assert len(ball) == 25
    found = solve_bounded(eq, {v: ball for v in (1, 2, 3)}, mode="first")
    assert found is None


def test_solve_bounded_finds_lemma4_solution(s3z2):
    cons = build_lemma4(s3z2, "a c b")
    singletons = {i: [v] for i, v in cons.g_solution.assignment}
    assert solve_bounded(cons.equation, singletons, mode="first") == cons.g_solution


def test_solve_bounded_empty_candidates(p23):
    eq = parse_equation("x1 = a", p23)
    with pytest.raises(EmptyCandidatesError):
        solve_bounded(eq, {1: []})


def test_solve_bounded_checks_a_balls_group_without_building_it(p23, p22):
    eq = parse_equation("x1 = a", p23)
    foreign = Ball(p22, [(0, (0, 1), p22.identity())], 4)
    with pytest.raises(MixedAmbientError):
        solve_bounded(eq, {1: foreign})
    ball = Ball(p23, [(0, (0, 1), p23.identity()), (1, (0, 1, 2), p23.identity())], 9)
    assert solve_bounded(eq, {1: ball}) == Substitution.of({1: p23.generator("a")})
    assert not ball.enumerated and ball.membership_queries == 1


def test_solve_bounded_no_variables(p23):
    eq = parse_equation("a b = a b", p23)
    found = solve_bounded(eq, {}, mode="first")
    assert found == Substitution.of({})
    eq = parse_equation("a b = b a", p23)
    assert solve_bounded(eq, {}, mode="first") is None


# -- power equation construction --------------------------------------------


def test_build_lemma4_p23(p23):
    cons = build_lemma4(p23, "a b")
    assert cons.prime == 5
    assert cons.exponents == (1, 2)
    assert cons.equation.rhs == parse_constant("a b", p23)
    assert evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs
    assert build_lemma4(p23, "a b^2").exponents == build_lemma4(p23, "a b b").exponents


def test_build_lemma4_single_letter(p23):
    cons = build_lemma4(p23, "a")
    assert cons.prime == 5 and cons.exponents == (1,)
    assert cons.g_solution[1] == p23.generator("a")


def test_build_lemma4_s3z2(s3z2):
    cons = build_lemma4(s3z2, "a b c")
    assert cons.prime == 7
    assert cons.exponents == (1, 1, 1)


def test_build_lemma4_modular_inverses(p23, s3z2):
    rng = random.Random(17)
    for group in (p23, s3z2):
        for _ in range(50):
            f_word = random_word_text(rng, group, 1, 5)
            cons = build_lemma4(group, f_word)
            letters = [l.value for l in parse_word(f_word, group).letters]
            assert len(letters) == len(cons.exponents)
            for k, s in zip(cons.exponents, letters):
                f, e = s.syllables[0]
                d = group.factors[f].element_order(e)
                assert (k * cons.prime) % d == 1 % d
            assert evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs


def test_build_lemma4_errors(p23):
    with pytest.raises(EmptyWordError):
        build_lemma4(p23, "1")
    with pytest.raises(UnknownGeneratorError):
        build_lemma4(p23, "a q")
    with pytest.raises(PowerTooLargeError):
        build_lemma4(p23, "a^100000000000")


def test_lemma4_no_cyclic_power_solution(p23):
    cons = build_lemma4(p23, "a b")
    assert cons.equation.rhs.order() == INFINITE
    assert not words.cyclic_power_solution_exists(cons, bound=20)


def test_lemma4_cyclic_power_check_agrees_with_evaluate(p23):
    # Tie the collapsed sum check to the generic evaluator on sampled tuples.
    cons = build_lemma4(p23, "a b")
    f = cons.equation.rhs
    rng = random.Random(23)
    m = len(cons.exponents)
    for _ in range(40):
        ns = [rng.randint(-20, 20) for _ in range(m)]
        sub = {j + 1: f.power(n) for j, n in enumerate(ns)}
        value = evaluate(cons.equation.lhs, sub)
        assert value == f.power(cons.prime * sum(ns))
        assert value != f



def _cyclic_power_oracle(cons, bound):
    """Every exponent sum's power built and compared with f."""
    f = cons.equation.rhs
    m = len(cons.exponents)
    return any(f.power(cons.prime * total) == f for total in range(-bound * m, bound * m + 1))


def _check_cyclic_power_against_oracle(cons, bound):
    f = cons.equation.rhs
    work: dict = {}
    found = words.cyclic_power_solution_exists(cons, bound, f.cyclic_reduce(), work)
    assert found == _cyclic_power_oracle(cons, bound)
    assert words.cyclic_power_solution_exists(cons, bound) == found
    assert work == {"candidates": 2 * bound * len(cons.exponents) + 1, "powers_built": 0}
    return found


# Factor orders above 3, so that f of finite order d has a threshold
# min(p^-1 mod d, d - p^-1 mod d) above 1: p = 13 and 11.
_C11C2 = FreeProduct([make_cyclic(11, "a"), make_cyclic(2, "b")])
_D5C7 = FreeProduct([make_dihedral_reflections(5), make_cyclic(7, "c")])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bound=st.integers(0, 6))
def test_cyclic_power_norm_first_matches_building_every_power(p23, s3z2, p222, data, bound):
    group = data.draw(st.sampled_from([p23, s3z2, p222, _C11C2, _D5C7]))
    labels = data.draw(st.lists(st.sampled_from(group.generator_labels), min_size=1,
                                max_size=5))
    _check_cyclic_power_against_oracle(build_lemma4(group, " ".join(labels)), bound)


def test_cyclic_power_norm_first_finds_finite_order_solutions(p23, s3z2):
    # f of finite order d: f^(p n) = f for p n = 1 modulo d, so some sum
    # solves once the bound reaches it, and the answer is True.
    # Answers at bounds 0, 1 and 3; at bound 0 only n = 0 is covered, which
    # solves for f = 1 alone.
    solvable, unsolvable, identity = (False, True, True), (False,) * 3, (True,) * 3
    for group, text, expected in (
        (p23, "b", solvable), (p23, "b a b b", solvable), (p23, "a a", identity),
        (s3z2, "a b", solvable), (s3z2, "c a b a c", solvable),
        (p23, "a b", unsolvable), (p23, "b a b", unsolvable), (s3z2, "a c", unsolvable),
    ):
        cons = build_lemma4(group, text)
        assert tuple(_check_cyclic_power_against_oracle(cons, bound)
                     for bound in (0, 1, 3)) == expected
    # larger orders: the least solving |n| is min(r, d - r), r = p^-1 mod d,
    # reached at bound * (letters) >= that; answers at bounds 0 to 6
    F, T = False, True
    for group, text, expected in (
        (_C11C2, "a", (F, F, F, F, F, T, T)),  # d = 11, p = 13: n = r - d = -5
        (_C11C2, "a a", (F, F, F, T, T, T, T)),  # f = a^2, two letters: |n| = 5
        (_D5C7, "c", (F, F, T, T, T, T, T)),  # d = 7, p = 11: n = r = 2
    ):
        cons = build_lemma4(group, text)
        assert tuple(_check_cyclic_power_against_oracle(cons, bound)
                     for bound in range(7)) == expected


# -- twisted power equation --------------------------------------------------


def test_build_lemma5_constant(z6z2):
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    assert cons.N == 13


def test_build_lemma5_rhs(z6z2):
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    assert cons.equation.rhs == parse_constant("a c b^2 c", z6z2)
    assert cons.equation.rhs.norm == 4


def test_build_lemma5_generator_solution(z6z2):
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    assert evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs
    # one variable per ambient generator, in declaration order
    assert [i for i, _ in cons.g_solution.assignment] == [1, 2, 3]
    assert cons.g_solution[1] == z6z2.generator("a")


def test_build_lemma5_keeps_f_and_g(z6z2):
    cons = build_lemma5(z6z2, "a b", "c a", 3, 2)
    assert cons.f == parse_constant("a b", z6z2)
    assert cons.g == parse_constant("c a", z6z2)
    assert cons.equation.rhs == cons.f.power(3) * cons.g * cons.f.power(2) * cons.g.inverse()


def test_build_lemma5_refuses_inputs_outside_its_hypotheses(p23, z6z2, monkeypatch):
    # f must lie in one factor (else f^N != f) and g outside it (else the
    # two ball parts fix one vertex of the Bass-Serre tree).  Both are
    # refused before the left side is built.
    monkeypatch.setattr(MixedWord, "repeat", lambda self, k: pytest.fail("built"))
    with pytest.raises(GroupError, match=r"^coefficient 'a b' must lie in a single factor$"):
        build_lemma5(p23, "a b", "b", 1, 1)
    with pytest.raises(GroupError, match=r"^coefficient 'c a c' must lie in a single factor$"):
        build_lemma5(z6z2, "c a c", "c", 1, 1)
    for g in ("a b", "1", "b^2", "a^2"):
        with pytest.raises(GroupError, match=rf"^twist '{re.escape(g)}' must lie outside the "
                                             "factor of coefficient 'a b'$"):
            build_lemma5(z6z2, "a b", g, 3, 2)
    with pytest.raises(GroupError, match="^twist 'a\\^3' must lie outside"):
        build_lemma5(p23, "a", "a^3", 1, 1)


def lemma5_desk_parts(z6z2):
    f = parse_constant("a b", z6z2)
    factor, fe = f.syllables[0]
    fgrp = z6z2.factors[factor]
    return [
        (factor, fgrp.generated_subgroup([fgrp.power(fe, 3)]), z6z2.identity()),
        (factor, fgrp.generated_subgroup([fgrp.power(fe, 2)]), z6z2.generator("c")),
    ]


def lemma5_desk_ball(z6z2, depth):
    return enumerate_ball(z6z2, lemma5_desk_parts(z6z2), depth)


def test_lemma5_ball_search_no_solution(z6z2):
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    ball = lemma5_desk_ball(z6z2, 6)
    found = solve_bounded(
        cons.equation, {v: ball for v in cons.equation.lhs.free_variables()}
    )
    assert found is None


def test_lemma5_left_side_keeps_its_powers(z6z2):
    # F^39 x3 F^26 x3^-1 with F = x1 x2: four items, not 132 letters
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    f = (Var(1), Var(2))
    assert cons.equation.lhs.letters == (Pow(f, 39), Var(3), Pow(f, 26), Var(3, -1))


def test_lemma5_gate_rejects_every_outer_tuple(z6z2, monkeypatch):
    # lhs = F^39 x3 F^26 x3^-1 with F = x1 x2: the (x1, x2) pairs are fused
    # by the value of F, so one conjugacy test per distinct product, and
    # none passes, so no inner x3 loop runs.
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    calls = spy_conjugator(monkeypatch)
    for depth, size, products in ((6, 50, 442), (8, 106, 1786)):
        ball = lemma5_desk_ball(z6z2, depth)
        assert len(ball) == size
        assert len({(x1 * x2).syllables for x1 in ball for x2 in ball}) == products
        calls.clear()
        counters = {}
        found = solve_bounded(cons.equation, {v: ball for v in (1, 2, 3)}, counters=counters)
        assert found is None
        assert len(calls) == products
        assert all(result is None for _, _, result in calls)
        # plain lists, not Balls: no image walk
        assert counters == {"outer_tuples": size**2, "outer_values": products, "image": None}


def spy_image(depths: list):
    """Patch the image walk's ball enumeration to log each image's depth."""
    real = words._ball_elements

    def spy(group, parts, depth):
        depths.append(depth)
        return real(group, parts, depth)

    return patch.object(words, "_ball_elements", spy)


def test_lemma5_gate_walks_the_image_ball(z6z2, monkeypatch):
    # With Ball candidates, F = x1 x2 runs over the image ball B_2d, so each
    # of its values is decided once, from F alone: B = F^26 is F's power,
    # with no merge, and T = F^-39 rhs is one seam merge, F's syllables
    # powered without merging them first.  One value is decided after each
    # pair, so the walk ends after |B_2d| + 1 pairs, one merge each, when the
    # image runs out; no pair has a hit and nothing is re-evaluated.
    cons = build_lemma5(z6z2, "a b", "c", 3, 2)
    parts = lemma5_desk_parts(z6z2)
    calls = spy_conjugator(monkeypatch)
    merges = 0
    real_merge = free_product._seam_merge

    def merge(*args):
        nonlocal merges
        merges += 1
        return real_merge(*args)

    monkeypatch.setattr(free_product, "_seam_merge", merge)
    monkeypatch.setattr(words, "_seam_merge", merge)
    evaluated = []
    monkeypatch.setattr(words, "evaluate", lambda *args: evaluated.append(args))
    for depth, size, values in ((6, 50, 442), (8, 106, 1786)):
        merges = 0
        assert len(enumerate_ball(z6z2, parts, 2 * depth)) == values
        assert len(enumerate_ball(z6z2, parts, depth)) == size
        enumeration = merges
        merges = 0
        calls.clear()
        counters = {}
        ball = Ball(z6z2, parts, depth)
        images = []
        with spy_image(images):
            assert solve_bounded(cons.equation, {v: ball for v in (1, 2, 3)},
                                 counters=counters) is None
        assert images == [2 * depth]
        assert len(calls) == values
        assert all(result is None for _, _, result in calls)
        assert counters == {"outer_tuples": size**2, "outer_values": values,
                            "image": {"run": "x1 x2", "depth": 2 * depth}}
        assert merges == values + (values + 1) + enumeration
    assert not evaluated


def image_texts():
    """Left sides over C2 * C3 whose only fusion run is x1^+-1 x2^+-1, in
    either order, with constants outside the run, on each of the three
    paths."""
    letter = st.sampled_from(["x1", "x1^-1"]), st.sampled_from(["x2", "x2^-1"])
    run = st.tuples(*letter).flatmap(lambda t: st.permutations(t).map(" ".join))
    const = st.sampled_from(["", "a", "b", "a b", "b^-1 a"])
    exps = st.sampled_from([-3, -2, 2, 3])
    templates = st.sampled_from([
        "{a} ({F})^{j} {b} x3 {c}",
        "x3^-1 {a} ({F})^{j} {b}",
        "{a} ({F})^{j} x3 {b} ({F})^{k} x3^-1 {c}",
        "x3^-1 {a} ({F})^{j} x3 ({F})^{k} {b}",
        "({F})^{j} x3 {a} ({F})^{k} x3 {b}",
        "x3 ({F})^{j} x3^2 {a}",
    ])
    return st.builds(lambda t, F, j, k, a, b, c: t.format(F=F, j=j, k=k, a=a, b=b, c=c),
                     templates, run, exps, exps, const, const, const)


_P23_PARTS = (
    [(0, (0, 1), _P23.identity()), (1, (0, 1, 2), _P23.identity())],
    [(0, (0, 1), _P23.identity()), (1, (0, 1, 2), _P23.generator("a"))],
    # overlapping parts: one subgroup of C3, once conjugated by a
    [(1, (0, 1, 2), _P23.identity()), (1, (0, 1, 2), _P23.generator("a")),
     (0, (0, 1), _P23.identity())],
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_and_pair_walks_agree(data):
    # The image walk over Ball candidates against the pair walk over the
    # same elements as plain lists: the same solutions in the same order,
    # in both modes.  Both decide every value of x1 x2 unless a first
    # solution ends the walk; then the image walk decides at most one more
    # value per pair walked.
    group = _P23
    lhs = parse_word(data.draw(image_texts(), label="lhs"), group)
    parts = data.draw(st.sampled_from(_P23_PARTS), label="parts")
    depths = [data.draw(st.integers(1, 2), label=f"depth x{v}") for v in (1, 2, 3)]
    lists = {v: enumerate_ball(group, parts, d) for v, d in zip((1, 2, 3), depths)}
    if data.draw(st.booleans(), label="reachable"):
        rhs = evaluate(lhs, {v: data.draw(st.sampled_from(c)) for v, c in lists.items()})
    else:
        rhs = data.draw(elements(group, 4), label="rhs")
    eq = Equation(lhs, rhs)
    for mode in ("all", "first"):
        balls = {v: Ball(group, parts, d) for v, d in zip((1, 2, 3), depths)}
        image_counters, pair_counters = {}, {}
        images = []
        with spy_image(images):
            found = solve_bounded(eq, balls, mode=mode, counters=image_counters)
            assert found == solve_bounded(eq, lists, mode=mode, counters=pair_counters)
        assert images == [depths[0] + depths[1]]
        assert image_counters.pop("image")["depth"] == depths[0] + depths[1]
        assert pair_counters.pop("image") is None
        if mode == "all" or not found:
            assert image_counters == pair_counters
            assert pair_counters["outer_tuples"] == len(lists[1]) * len(lists[2])
        else:
            assert image_counters["outer_tuples"] == pair_counters["outer_tuples"]
            assert (pair_counters["outer_values"] <= image_counters["outer_values"]
                    <= pair_counters["outer_values"] + pair_counters["outer_tuples"])


def test_image_walk_needs_one_product_over_balls_with_one_set_of_parts(p23):
    # A constant inside the run, a repeated variable, two runs, or balls
    # with other parts: the tuples are walked, with the same answers.
    one, a = p23.identity(), p23.generator("a")
    parts = [(0, (0, 1), one), (1, (0, 1, 2), one)]
    conjugated = [(0, (0, 1), one), (1, (0, 1, 2), a)]
    for text, other in (("x3 x1 a x2 x3^-1 = b", parts), ("x3 x1 x2 x1 x3^-1 = b", parts),
                        ("x1 x3 x2 x3^-1 x2 x1 = b", parts), ("x3 x1^-1 x2 x3^-1 = b", conjugated),
                        ("x3 x1^-1 x2 x3^-1 = b", parts)):
        eq = parse_equation(text, p23)
        balls = {1: Ball(p23, parts, 2), 2: Ball(p23, other, 3), 3: Ball(p23, parts, 2)}
        lists = {v: list(ball) for v, ball in balls.items()}
        images = []
        with spy_image(images):
            found = solve_bounded(eq, balls, mode="all")
        assert found == naive_all_solutions(eq, lists)
        assert bool(images) == (other is parts and "x1^-1 x2" in text)
    # one subgroup as both parts: the ball is C3 at every depth, and the
    # image B_6 extends only its new elements, so it takes the image walk
    # like any other ball; the first pair has hits, so the pairs are walked
    same = [(1, (0, 1, 2), one), (1, (0, 1, 2), one)]
    assert len(enumerate_ball(p23, same, 6)) == 3
    eq = parse_equation("x3 x1 x2 x3^-1 = b", p23)
    counters = {}
    images = []
    with spy_image(images):
        assert len(solve_bounded(eq, {v: Ball(p23, same, 3) for v in (1, 2, 3)}, mode="all",
                                 counters=counters)) == 3 * 3
    assert counters == {"outer_tuples": 9, "outer_values": 3,
                        "image": {"run": "x1 x2", "depth": 6}} and images == [6]


# -- re-verification that survives python -O ----------------------------------


def test_solve_bounded_rejects_a_false_match(p23, monkeypatch):
    # The search reads the left side through its compiled _Program, the
    # re-check in record() from the equation's own letters and the
    # solution's values: a broken compilation that makes x1 = b look like a
    # solution of x1 = a must be caught.
    eq = parse_equation("x1 = a", p23)
    a, b = p23.generator("a"), p23.generator("b")
    real = words._Program
    monkeypatch.setattr(words, "_Program",
                        lambda items, group, y: real((*items, Const(b.inverse() * a)), group, y))
    with pytest.raises(VerificationError):
        solve_bounded(eq, {1: [b]}, mode="first")


@pytest.mark.parametrize("text", ["[x1,x2] = 1", "[x1,x2]^-1 = 1"], ids=["commutator", "inverse"])
def test_solve_bounded_coset_path_rejects_a_false_match(p23, monkeypatch, text):
    # [x1,x2] = 1 takes the coset path: x2 ranges over c C(B) with
    # B = T = x1^-1 and c = 1, and so does its inverse, whose group is
    # spliced in inverted.  A centralizer widened by both generators holds,
    # for every x1 != 1, a generator that does not commute with it; the
    # re-check in record(), one merge of the equation's own flat
    # references, must catch the hit it brings.
    eq = parse_equation(text, p23)
    one = p23.identity()
    ball = enumerate_ball(p23, [(0, (0, 1), one), (1, (0, 1, 2), one)], 4)
    commuting = sum(x * y == y * x for x in ball for y in ball)
    assert len(solve_bounded(eq, {1: ball, 2: ball}, mode="all")) == commuting == 98
    real = words._centralizer

    def widened(codec, b, split, bound):
        return real(codec, b, split, bound) + [codec.symbols[0][1], codec.symbols[1][1]]

    monkeypatch.setattr(words, "_centralizer", widened)
    with pytest.raises(VerificationError, match="non-solution"):
        solve_bounded(eq, {1: ball, 2: ball}, mode="all")


def test_constructions_reverify_their_solutions(p23, z6z2, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "power", lambda self, x, k: x)
        with pytest.raises(VerificationError):
            build_lemma4(p23, "a b")
    # a wrong order gives a wrong exponent k_j: x_j^p is then not s_j
    order = FiniteGroup.element_order
    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "element_order", lambda self, x: order(self, x) + 1)
        for f_word in ("a", "b", "b a b^2"):
            with pytest.raises(VerificationError):
                build_lemma4(p23, f_word)
    with monkeypatch.context() as m:
        m.setattr(FPElement, "power", lambda self, k: self)
        with pytest.raises(VerificationError):
            build_lemma5(z6z2, "a b", "c", 3, 2)


# -- exhaustive case verification against an independent model ---------------
#
# The rank-two subgroup of two involutions is faithfully represented by
# integer isometries x -> s*x + c with s = +-1: a maps to (-1, 0) and b to
# (-1, 1).  The product b*a is the translation (+1, +1).  Evaluating the
# equation word in that model gives an oracle that shares nothing with the
# normal-form machinery.

AFF_A = (-1, 0)
AFF_B = (-1, 1)
AFF_ID = (1, 0)


def aff_mul(u, v):
    return (u[0] * v[0], u[0] * v[1] + u[1])


def aff_inv(u):
    s, c = u
    return (s, -s * c)  # s in {+-1}


def aff_pow(u, k):
    out = AFF_ID
    if k < 0:
        u, k = aff_inv(u), -k
    for _ in range(k):
        out = aff_mul(out, u)
    return out


def aff_eval_theorem2(x, y, z):
    w = aff_mul(aff_mul(z, y), aff_inv(z))  # y^z
    e = aff_mul(aff_mul(x, w), aff_mul(aff_inv(x), aff_inv(w)))  # [x, y^z]
    inner = aff_mul(aff_mul(aff_pow(x, 3), e), aff_pow(y, 3))
    return aff_mul(aff_pow(inner, 2), aff_pow(e, 3))


def fp_to_affine(u):
    out = AFF_ID
    for f, _ in u.syllables:
        out = aff_mul(out, AFF_A if f == 0 else AFF_B)
    return out


def test_case_table_against_affine_model(p22):
    ba = (1, 1)  # translation by one
    for eps, (ck, ct, cs) in words.THEOREM2_CASE_EXPONENTS.items():
        for k, t, s in cartesian(range(-3, 4), repeat=3):
            x = aff_mul(aff_pow(ba, k), AFF_A) if eps[0] else aff_pow(ba, k)
            y = aff_mul(aff_pow(ba, t), AFF_A) if eps[1] else aff_pow(ba, t)
            z = aff_mul(aff_pow(ba, s), AFF_A) if eps[2] else aff_pow(ba, s)
            assert aff_eval_theorem2(x, y, z) == aff_pow(ba, ck * k + ct * t + cs * s)


def test_sign_variants_rejected_by_affine_model():
    ba = (1, 1)
    for eps, (vk, vt, vs) in words.THEOREM2_SIGN_VARIANTS.items():
        mismatch = False
        for k, t, s in cartesian(range(-2, 3), repeat=3):
            x = aff_mul(aff_pow(ba, k), AFF_A) if eps[0] else aff_pow(ba, k)
            y = aff_mul(aff_pow(ba, t), AFF_A) if eps[1] else aff_pow(ba, t)
            z = aff_mul(aff_pow(ba, s), AFF_A) if eps[2] else aff_pow(ba, s)
            if aff_eval_theorem2(x, y, z) != aff_pow(ba, vk * k + vt * t + vs * s):
                mismatch = True
                break
        assert mismatch


def test_normal_forms_agree_with_affine_model(p22):
    rng = random.Random(31)
    for _ in range(200):
        u = random_reduced(rng, p22, 0, 8)
        v = random_reduced(rng, p22, 0, 8)
        assert fp_to_affine(u * v) == aff_mul(fp_to_affine(u), fp_to_affine(v))
        assert fp_to_affine(u.inverse()) == aff_inv(fp_to_affine(u))


def test_theorem2_report_small_range():
    rep = theorem2_report(2)
    assert rep.ok
    assert rep.total_evaluations == 8 * 5**3
    assert not rep.target_hits
    assert rep.embedding_image_matches
    flagged = {c.epsilons for c in rep.case_results if c.sign_variant_consistent is False}
    assert flagged == {(1, 1, 0), (1, 1, 1)}
    d = rep.to_dict()
    assert d["ok"] and len(d["cases"]) == 8


def test_theorem2_identity_case(p22):
    # all-identity substitution lands on the identity
    w = parse_word(words.THEOREM2_WORD_TEXT, p22)
    one = p22.identity()
    assert evaluate(w, {1: one, 2: one, 3: one}).is_identity


def test_theorem2_case3_example(p22):
    # x = (ba) a = b, y = a, z = 1 lies in case (0,1,0): value (ba)^{6k}, k=1
    a, b = p22.generator("a"), p22.generator("b")
    w = parse_word(words.THEOREM2_WORD_TEXT, p22)
    value = evaluate(w, {1: b * a, 2: a, 3: p22.identity()})
    assert value == (b * a).power(6)


def theorem2_report_reference(k_range):
    """The per-substitution sweep: every (k, t, s) evaluated from scratch,
    in (k, t, s) order, with no binding shared between substitutions (so
    its ``bindings`` are 0)."""
    rank_two, big = words._theorem2_ambients()
    word = parse_word(words.THEOREM2_WORD_TEXT, rank_two)
    a = rank_two.generator("a")
    b = rank_two.generator("b")
    ba = b * a
    target = parse_constant(words.THEOREM2_TARGET_TEXT, rank_two)

    span = range(-k_range, k_range + 1)
    powers = {k: ba.power(k) for k in range(-12 * k_range - 1, 12 * k_range + 2)}
    subs = {(k, e): powers[k] * a if e else powers[k] for k in span for e in (0, 1)}

    case_results = []
    target_hits = []
    total = 0
    for eps, (ck, ct, cs) in words.THEOREM2_CASE_EXPONENTS.items():
        e1, e2, e3 = eps
        mismatches = []
        variant = words.THEOREM2_SIGN_VARIANTS.get(eps)
        variant_consistent = None if variant is None else True
        count = 0
        for k in span:
            for t in span:
                for s in span:
                    value = evaluate(word, {1: subs[k, e1], 2: subs[t, e2], 3: subs[s, e3]})
                    count += 1
                    if value != powers[ck * k + ct * t + cs * s]:
                        mismatches.append((k, t, s))
                    if value == target:
                        target_hits.append((k, t, s, eps))
                    if variant is not None and variant_consistent:
                        vk, vt, vs = variant
                        if value != powers[vk * k + vt * t + vs * s]:
                            variant_consistent = False
        total += count
        case_results.append(
            words.Theorem2CaseResult(
                eps, (ck, ct, cs), count, 0, tuple(mismatches), variant, variant_consistent
            )
        )

    big_word = parse_word(words.THEOREM2_WORD_TEXT, big)
    ga, gd, gc = big.generator("a"), big.generator("d"), big.generator("c")
    image = evaluate(big_word, {1: ga, 2: gc * gd * gc, 3: gc})
    expected_image = (ga * gc * gd * gc).power(2)
    return words.Theorem2Report(
        k_range, total, tuple(case_results), tuple(target_hits), image == expected_image
    )


def without_bindings(report):
    """The report as a dict without its work counts, ``bindings``,
    ``merges`` and ``rows``, which the per-substitution reference, with no
    memo, does not share."""
    d = report.to_dict()
    for case in d["cases"]:
        del case["bindings"], case["merges"], case["rows"]
    return d


def test_theorem2_report_matches_per_substitution_reference(monkeypatch):
    for k_range in (1, 2, 3):
        assert without_bindings(theorem2_report(k_range)) == without_bindings(
            theorem2_report_reference(k_range)
        )
    # A wrong closed form for two cases gives mismatches, and a target that
    # some substitutions reach gives hits: both in (k, t, s) order, case by
    # case, as the reference finds them.
    table = dict(words.THEOREM2_CASE_EXPONENTS)
    table[(0, 0, 0)] = (6, 0, 6)
    table[(1, 1, 0)] = (4, -4, 4)
    monkeypatch.setattr(words, "THEOREM2_CASE_EXPONENTS", table)
    monkeypatch.setattr(words, "THEOREM2_TARGET_TEXT", "(b a)^6")
    # a sign variant that is the verified form of its case is consistent
    variants = dict(words.THEOREM2_SIGN_VARIANTS)
    variants[(1, 0, 1)] = (0, 6, 0)
    monkeypatch.setattr(words, "THEOREM2_SIGN_VARIANTS", variants)
    fast = theorem2_report(2)
    d = without_bindings(fast)
    assert d == without_bindings(theorem2_report_reference(2))
    mismatched = {tuple(c["epsilons"]) for c in d["cases"] if c["mismatches"]}
    assert mismatched == {(0, 0, 0), (1, 1, 0)}
    consistent = {tuple(c["epsilons"]) for c in d["cases"] if c.get("sign_variant_consistent")}
    assert consistent == {(1, 0, 1)}
    assert len({h[3] for h in fast.target_hits}) > 1 and len(fast.target_hits) > 2
    assert not fast.ok


# sha256 of json.dumps(theorem2_report(R).to_dict(), sort_keys=True) for
# R = 1 ... 8: every case's counts, mismatches and hits, byte for byte.
GOLDEN_THEOREM2 = [
    "b456537f8717401e472d5d988ef41b2c7ad59194fbf760418678b742bfb88c89",
    "69abf7aab723f250bd4b62c067a020c49cd77205c132ed8b68131aed8a01f7e6",
    "bdd4a3fdfc29d2db2153a71453642ff8cb5ebeeaf7e5ab76a2ed4f747a6dd3a0",
    "b83ff2fd0106136546e91f7bf122806a04f87982b50444b7f16a9219b3f01c9b",
    "84c04d731bd7350fb9ff45856b471428c0f826b834a8987acc40be4ecab67cb7",
    "316adddbd69ce770bca7bf9852a70dd58222e86f6901a6cd40146fefed9782c2",
    "b5d976fc52f41938f7cc67ec98c61c4c2907b98aee2409e223858215708a25f9",
    "d263b3f015c650fe686fec27fb127fad8c01b5b020da50fb3a1bee49d73c9e77",
]


def test_theorem2_report_is_pinned():
    for k_range, digest in enumerate(GOLDEN_THEOREM2, start=1):
        text = json.dumps(theorem2_report(k_range).to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k_range


# sha256 of json.dumps(without_bindings(theorem2_report(R)), sort_keys=True)
# for R = 1 ... 8: every case's evaluations, mismatches, sign-variant flags
# and hits, with no work count, so that sharing work between cases cannot
# move them.
GOLDEN_THEOREM2_WITHOUT_COUNTERS = [
    "013318659eafb400a1636665c5013521d3b43f1a34aa9c65796ef6541117bfe2",
    "15bceef9653f285c9dc12a114d781614b6fd86d91afb52363714aae383fd6754",
    "bf2c7cca4331be618c322fbba2b70072279b7ee09dab49fe06e4e2259769a180",
    "89e4170ce6eba3c8d300a0206862531c581d6dc8e6192b37d080ad8b32c9a04c",
    "0083af16d93aa6f7b3bfb21bc53c660490a670e07f498b19508ecd3c7a98a4e4",
    "d590a5e790c5c62b312fe8665248f7370f2c663c5864bbaffc5e9aae12ce7621",
    "840a235a90c4912dd31f91bc50208fd561b9110d558663628a521cfad8046497",
    "7979264fe097f2ba7b3e5e2433cfded3eb6de0c66913b64ea400dcb5545b6f4f",
]


def test_theorem2_report_without_counters_is_pinned():
    for k_range, digest in enumerate(GOLDEN_THEOREM2_WITHOUT_COUNTERS, start=1):
        text = json.dumps(without_bindings(theorem2_report(k_range)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k_range


def count_binds(monkeypatch):
    """A dict whose "bind" entry counts the calls of _Program.bind."""
    counts = {"bind": 0}
    real = words._Program.bind

    def bind(self, assignment):
        counts["bind"] += 1
        return real(self, assignment)

    monkeypatch.setattr(words._Program, "bind", bind)
    return counts


def test_theorem2_report_counts_its_bindings(monkeypatch):
    binds = count_binds(monkeypatch)
    rep = theorem2_report(2)
    assert [(c.evaluations, c.bindings) for c in rep.case_results] == [(125, 25)] * 8
    assert [(c["evaluations"], c["bindings"]) for c in rep.to_dict()["cases"]] == [(125, 25)] * 8
    # x1 is in no run, so each (x2, x3) binding is computed once for both
    # values of e1: 4 * 5^2 binds where each case binding its own made 8 * 5^2
    assert binds["bind"] == 4 * 5**2
    # steps merged, once per distinct tuple of input values in the memo
    # that (e1, e2, 0) and (e1, e2, 1) share, of the 3 * 125 steps run per
    # case; each case counts the merges it made first, so (0, 0, 1) and
    # (0, 1, 1), whose inputs their partners all met, count 0
    merges = [59, 75, 115, 0, 235, 40, 0, 52]
    assert [c.merges for c in rep.case_results] == merges
    assert [c["merges"] for c in rep.to_dict()["cases"]] == merges
    # rows decided, one per distinct tuple of bound values, counted by the
    # case that decided it first: with e2 = 0 the runs x2^x3, (x2^-1)^x3
    # and x2^3 depend on t alone, so 5 of the 25, and the e3 = 1 case of
    # such a pair meets one of its partner's again (t = 0, x2^x3 = x2)
    rows = [5, 5, 25, 4, 25, 4, 6, 6]
    assert [c.rows for c in rep.case_results] == rows
    assert [c["rows"] for c in rep.to_dict()["cases"]] == rows


def test_theorem2_report_work(monkeypatch):
    # The compiled word merges the commutator [x1, x2^x3] once for its two
    # uses and computes x1^3 once per value of x1, and the memo that
    # (e1, e2, 0) and (e1, e2, 1) share merges each of its 3 steps once per
    # distinct tuple of input values: 11,260 of the 117,912 steps run
    # (18,648 with one memo per case).  Each (x2, x3) is bound once for
    # both values of e1, 1,156 binds (2,312 per case).  With the runs and
    # bound steps per binding, (x2^-1)^x3 taken as the inverse of x2^x3
    # rather than merged, and x2^3 and x1^3 taken as powers with no merge,
    # the words module makes 12,421 seam merges and 4,709 powers, 0.316 and
    # 0.120 per substitution; one memo and one bind per case made 0.533 and
    # 0.195, merging every step 3.24 and 2.06, and binding (x2, x3) without
    # sharing 4.29 and 3.06.  A row of 17 values of x1 is decided once per
    # distinct tuple of bound values in each shared memo: 17 + 16 for the
    # pairs with e2 = 0, 289 + 72 for the others, 788 rows (1,224 with one
    # memo per case).
    counts = {}
    reals = {name: getattr(free_product, name) for name in ("_seam_merge", "power_syllables")}

    def spy(module, name):
        def counted(*args):
            counts[module, name] = counts.get((module, name), 0) + 1
            return reals[name](*args)

        monkeypatch.setattr(module, name, counted)

    for module in (free_product, words):
        for name in reals:
            spy(module, name)
    binds = count_binds(monkeypatch)
    rep = theorem2_report(8)
    n = rep.total_evaluations
    assert rep.ok and n == 8 * 17**3
    assert binds["bind"] == 4 * 17**2
    assert [c.merges for c in rep.case_results] == [611, 867, 1411, 0, 6307, 512, 0, 1552]
    assert sum(c.merges for c in rep.case_results) == 11260
    assert [c.rows for c in rep.case_results] == [17, 17, 289, 16, 289, 16, 72, 72]
    assert sum(c.rows for c in rep.case_results) == 788
    assert counts[words, "_seam_merge"] == 12421
    assert counts[words, "power_syllables"] == 4709
    merges = counts[words, "_seam_merge"] + counts.get((free_product, "_seam_merge"), 0)
    powers = counts[words, "power_syllables"] + counts.get((free_product, "power_syllables"), 0)
    assert merges <= 0.66 * n
    assert powers <= 0.2 * n


def test_theorem2_report_compares_each_case_with_its_own_closed_form(monkeypatch):
    # (0, 1, 0) and (0, 1, 1) share a memo, (0, 0, 1) and (1, 0, 1) share
    # their binds: a wrong closed form in one case of each pair is reported
    # for that case alone, as the per-substitution reference reports it.
    table = dict(words.THEOREM2_CASE_EXPONENTS)
    table[(0, 1, 1)] = (6, 1, 0)
    table[(1, 0, 1)] = (0, 6, 1)
    monkeypatch.setattr(words, "THEOREM2_CASE_EXPONENTS", table)
    for k_range in (1, 2):
        d = without_bindings(theorem2_report(k_range))
        assert d == without_bindings(theorem2_report_reference(k_range))
        mismatched = {tuple(c["epsilons"]) for c in d["cases"] if c["mismatches"]}
        assert mismatched == {(0, 1, 1), (1, 0, 1)}
        assert not d["ok"]


# -- partial evaluation: a word compiled once with y free ----------------------


def residual_texts(gens, depth=3):
    """Word text over x1, x2, x3 and ``gens`` with nested powers (negative
    exponents, 0 and +-1 included), conjugates and commutators, and with
    repeated sub-words: u v (u)^k, and a commutator next to its inverse."""
    atoms = st.sampled_from(["x1", "x2", "x3", "1", *gens])
    if depth == 0:
        return atoms
    inner = residual_texts(gens, depth - 1)
    exponents = st.sampled_from([-3, -2, -1, 0, 1, 2, 3])
    return st.one_of(
        atoms,
        st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}, {t[1]}]"),
        st.tuples(inner, inner, exponents).map(lambda t: f"{t[0]} {t[1]} ({t[0]})^{t[2]}"),
        st.tuples(inner, inner, inner).map(
            lambda t: f"[{t[0]}, {t[1]}] {t[2]} [{t[0]}, {t[1]}]^-1"),
    )


def bind_and_run(word, outer, y, value):
    program = words._Program(word.letters, word.group, y)
    bound = program.bind({i: v.ids for i, v in outer.items()})
    return program.run(program.y_values(value.ids), bound)


def assert_bind_matches_evaluate(word, values, y):
    outer = {i: v for i, v in values.items() if i != y}
    assert bind_and_run(word, outer, y, values[y]) == evaluate(word, values).ids


@pytest.mark.parametrize("group, gens", [(_P23, ("a", "b")), (_S3Z2, ("a", "b", "c"))],
                         ids=["p23", "s3z2"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bind_and_plan_match_evaluate(group, gens, data):
    text = data.draw(residual_texts(gens), label="word")
    word = parse_word(text, group)
    values = {i: data.draw(elements(group, 6), label=f"x{i}") for i in (1, 2, 3, 4)}
    # y = x4 never occurs in the word
    y = data.draw(st.sampled_from([1, 2, 3, 4]), label="y")
    assert_bind_matches_evaluate(word, values, y)
    # the word as a power, with the exponents the parser never leaves
    k = data.draw(st.sampled_from([-3, -1, 0, 1, 2]), label="k")
    assert_bind_matches_evaluate(MixedWord(group, (Pow(word.letters, k),)), values, y)
    # and twice, as a group and as a power: one body, two references
    twice = MixedWord(group, (Pow(word.letters, 1), Var(y), Pow(word.letters, k)))
    assert_bind_matches_evaluate(twice, values, y)


@pytest.mark.parametrize("group, gens", [(_P23, ("a", "b")), (_S3Z2, ("a", "b", "c"))],
                         ids=["p23", "s3z2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bind_inverts_a_run_whose_inverse_came_first(group, gens, data):
    # [u, v] y w y [u, v]^-1 with u, v free of y = x4: the commutator is one
    # value, a run or a bound step, and its inverse is a bound step that
    # inverts that value, with no merge.
    u, v, w = (data.draw(residual_texts(gens, 2), label=name) for name in "uvw")
    word = parse_word(f"[{u}, {v}] x4 {w} x4 [{u}, {v}]^-1", group)
    values = {i: data.draw(elements(group, 6), label=f"x{i}") for i in (1, 2, 3, 4)}
    assert_bind_matches_evaluate(word, values, 4)
    program = words._Program(word.letters, group, 4)
    (commutator,) = parse_word(f"[{u}, {v}]", group).letters or (None,)
    if commutator is not None and words._variables(commutator.body):
        # the split reads the inverse's bound step through: the last piece
        # is the first piece's value, inverted
        assert program.signs == [1, 1]
        ((i, k),) = program.pieces[0]
        assert k == 1 and program.pieces[-1] == [(i, -1)]
    # each run is kept once up to inversion, and a lone letter with sign 1
    for run in program.runs:
        assert run == words._invert(run) or words._invert(run) not in program.runs
        assert len(run) > 1 or run[0].sign == 1


def copied(ids):
    """An id string equal to ``ids`` but, from two syllables up, another
    object: a memo must reuse values by equality, not identity."""
    return "".join(list(ids))


@pytest.mark.parametrize("group, gens", [(_P23, ("a", "b")), (_S3Z2, ("a", "b", "c"))],
                         ids=["p23", "s3z2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_with_a_shared_memo_matches_evaluate(group, gens, data):
    # One memo for many bindings of values from a small pool, so that inputs
    # repeat.  bind builds new values and y is passed as a copy, so reuse
    # must come from keying by value: running every binding again, with the
    # rows forgotten, merges nothing new.
    word = parse_word(data.draw(residual_texts(gens), label="word"), group)
    pool = data.draw(st.lists(elements(group, 4), min_size=1, max_size=3), label="pool")
    y = data.draw(st.sampled_from([1, 2, 3]), label="y")
    index = st.integers(0, len(pool) - 1)
    bindings = data.draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=10),
                         label="bindings")
    program = words._Program(word.letters, group, y)
    memo = words._Memo(program)

    def run(values):
        outer = {i: v for i, v in values.items() if i != y}
        y_values = program.y_values(copied(values[y].ids))
        bound = program.bind({i: v.ids for i, v in outer.items()})
        return memo.row([y_values], bound)[0]

    for again in (False, True):
        merged = memo.merges
        memo.rows.clear()
        for binding in bindings:
            values = {i: pool[j] for i, j in zip((1, 2, 3), binding)}
            assert run(values) == evaluate(word, values).ids
        assert not again or memo.merges == merged
    assert memo.merges <= len(set(bindings)) * len(program.steps)
    # one stored value per merge
    assert sum(map(len, memo.steps)) == memo.merges


@pytest.mark.parametrize("group, gens", [(_P23, ("a", "b")), (_S3Z2, ("a", "b", "c"))],
                         ids=["p23", "s3z2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_with_a_shared_memo_matches_run_and_evaluate(group, gens, data):
    # One memo, y values from two lists drawn from a small pool and
    # bindings drawn from the same pool, so that rows repeat.  bind builds
    # new values, so reuse must come from keying by value: deciding every
    # row again adds neither a row nor a step.
    word = parse_word(data.draw(residual_texts(gens), label="word"), group)
    pool = data.draw(st.lists(elements(group, 4), min_size=1, max_size=3), label="pool")
    y = data.draw(st.sampled_from([1, 2, 3]), label="y")
    index = st.integers(0, len(pool) - 1)
    y_picks = st.lists(index, min_size=1, max_size=3)
    y_lists = data.draw(st.lists(y_picks, min_size=1, max_size=2), label="y lists")
    bindings = data.draw(
        st.lists(st.tuples(st.integers(0, len(y_lists) - 1), index, index),
                 min_size=1, max_size=10),
        label="bindings")
    program = words._Program(word.letters, group, y)
    memo = words._Memo(program)
    others = [i for i in (1, 2, 3) if i != y]
    distinct = set()

    for again in (False, True):
        rows, merged = len(memo.rows), memo.merges
        for which, j2, j3 in bindings:
            outer = dict(zip(others, (pool[j2], pool[j3])))
            ys = [pool[j] for j in y_lists[which]]
            y_values = [program.y_values(copied(v.ids)) for v in ys]
            assignment = {i: v.ids for i, v in outer.items()}
            plain = program.bind(assignment)
            row = list(memo.row(y_values, plain))
            distinct.add((tuple(v.ids for v in ys), tuple(plain)))
            assert row == [program.run(program.y_values(v.ids), plain) for v in ys]
            assert row == [evaluate(word, {y: v, **outer}).ids for v in ys]
        assert not again or (len(memo.rows), memo.merges) == (rows, merged)
    # one row per distinct tuple of y values and bound values
    assert len(memo.rows) == len(distinct)


def test_run_memo_reuses_a_step_whose_inputs_were_merged_to_equal_values(p23):
    # (x1 x2)^2 x3 with y = x1 is two steps: x1 x2, then its square times
    # x3.  (a, b) and (a b, 1) give x1 x2 the same value, so with x3 the same
    # the second step is merged once: steps are keyed by their input values.
    a, b, one = p23.generator("a"), p23.generator("b"), p23.identity()
    word = parse_word("(x1 x2)^2 x3", p23)
    program = words._Program(word.letters, p23, 1)
    assert len(program.steps) == 2
    memo = words._Memo(program)
    for x1, x2 in ((a, b), (a * b, one), (a, b)):
        values = {1: x1, 2: x2, 3: b}
        bound = program.bind({2: x2.ids, 3: b.ids})
        y_values = program.y_values(x1.ids)
        value = memo.row([y_values], bound)[0]
        assert value == evaluate(word, values).ids
    assert memo.merges == 3
    # without a memo, run gives the same value
    bound = program.bind({2: b.ids, 3: b.ids})
    assert program.run(program.y_values(a.ids), bound) == value


def test_bind_folds_runs_and_keeps_powers_that_hold_y(p23):
    a, b = p23.generator("a"), p23.generator("b")
    values = {1: a * b, 2: b * b * a, 3: a * b}
    for text in (
        "x1^3 [x1, x2^x3] x2^3",  # runs free of y between its letters
        "(x2 x1^-1 a)^-2 b x3",  # y inside a negative power only
        "((x1 x2)^2 x1^-1)^-3",  # nested powers holding y
        "((x1 x3)^2)^-3 x1",  # a power of a power: (u^2)^-3 is u^-6
        "x2 a x3^2 b",  # no y at all: one run
        "(x2 x1)^0 (x1)^(x2)",  # a zero power and a conjugate
        "x1 a b x1^-1 x1^3",  # constants only: folded when compiled
        words.THEOREM2_WORD_TEXT,
    ):
        word = parse_word(text, p23)
        assert_bind_matches_evaluate(word, values, 1)

    def compiled(text):
        return words._Program(parse_word(text, p23).letters, p23, 1)

    # runs between the letters of y, and a power of a step that holds y
    program = compiled("x2 a x1 x3^2 b (x1 x2)^-2")
    assert program.runs == [(Var(2), Const(a)), (Var(3),), (Var(2),)]
    assert program.consts == [b.ids] and program.pure == []
    # values: y, y^-1, b, the three runs, the bound step x3^2 b, the steps
    assert program.bound == [((4, 2), (2, 1))]
    assert program.steps == [((0, 1), (5, 1)), ((3, 1), (0, 1), (6, 1), (7, -2))]
    assert program.result == 8 and not program.needs_inverse
    # no y at all: the word is one bound step over its runs
    program = compiled("x2 a x3^2 b")
    assert program.runs == [(Var(2), Const(a)), (Var(3),)]
    assert program.bound == [((3, 1), (4, 2), (2, 1))] and program.steps == [((5, 1),)]
    bound = program.bind({2: values[2].ids, 3: values[3].ids})
    assert program.run(program.y_values(""), bound) == (
        values[2] * a * values[3].power(2) * b).ids
    # a constant run is folded once; a power of y alone is a pure step
    program = compiled("x1 a b x1^-1 x1^3")
    assert program.consts == [(a * b).ids] and program.runs == [] == program.bound
    assert program.pure == [((0, 3),), ((0, 1), (2, 1), (1, 1), (3, 1))]
    assert program.needs_inverse and program.steps == [] and program.result == 4
    # the Theorem-2 word: x1^3 once per value of x1, two runs and two bound
    # steps per (x2, x3), and one merge each for the shared commutator, the
    # first power's body and the whole word
    program = compiled(words.THEOREM2_WORD_TEXT)
    assert program.pure == [((0, 3),)]
    assert program.runs == [parse_word("x2^x3", p23).letters, (Var(2),)]
    # (x2^-1)^x3 is the inverse of the run x2^x3, and x2^3 a power of the
    # run x2: one reference each, with no merge
    assert program.bound == [((3, -1),), ((4, 3),)]
    assert len(program.steps) == 3
    assert program.steps[0] == ((0, 1), (3, 1), (1, 1), (5, 1))
    assert program.steps[2] == ((8, 2), (7, 3))
    # a group and its inverse share one body
    program = compiled("[x1, x2] x3 [x1, x2]^-1")
    assert program.runs == [(Var(2),), (Var(3),)] and program.bound == [((2, -1),)]
    assert program.steps == [((0, 1), (2, 1), (1, 1), (4, 1)), ((5, 1), (3, 1), (5, -1))]
    with pytest.raises(UnboundVariableError):
        compiled("x1 x2").bind({})


def test_solve_bounded_general_path_with_inverted_y_inside_a_power(p23):
    # y^-1 occurs only inside a negative power, which written out reads as
    # y: the compiled word still needs each candidate's inverse.
    rng = random.Random(8)
    cand = [random_reduced(rng, p23, 0, 3) for _ in range(12)]
    for text in ("(x2^-1 x1)^-2 x2 = b", "x1 (x2^-1)^-2 = a b", "(x2^-1 a)^-3 x2 = 1"):
        assert_matches_oracle(parse_equation(text, p23), cand)
    # y occurs 10^8 times, so the power is kept, and powering a value of
    # x1 x2 of infinite order still meets the cap
    eq = parse_equation("(x1 x2)^100000000 = a", p23)
    with pytest.raises(PowerTooLargeError):
        solve_bounded(eq, {1: cand, 2: cand})


def test_solve_bounded_answers_y_in_deeply_nested_powers(p23, monkeypatch):
    # x2 (...((x1 x2)^2 x1)^2 ... x1)^2 x1, 100 levels deep: x2 occurs
    # 1 + 2^100 times, so the general path's compiled word keeps the powers;
    # writing them out would take about 2^101 letters.
    word = "x1 x2"
    for _ in range(100):
        word = f"({word})^2 x1"
    one, a, b = p23.identity(), p23.generator("a"), p23.generator("b")
    expanded = []
    real_expand = words._expand
    monkeypatch.setattr(words, "_expand", lambda *args: expanded.append(args) or real_expand(*args))
    for rhs, cand in (("a", [one, a]), ("b", [b, b.inverse()]), ("1", [b, one])):
        eq = parse_equation(f"x2 {word} = {rhs}", p23)
        candidates = {1: cand, 2: cand}
        found = solve_bounded(eq, candidates, mode="all")
        assert found == naive_all_solutions(eq, candidates)
        assert solve_bounded(eq, candidates) == (found[0] if found else None)
    assert found and not expanded
    assert solve_bounded(parse_equation(f"x2 {word} = a", p23), {1: [one, a], 2: [a, one]},
                         mode="all") == [Substitution.of({1: one, 2: a}),
                                         Substitution.of({1: a, 2: one})]


def test_inverted_commutator_takes_the_coset_path(p23, monkeypatch):
    # [x1,x2]^-1 is a group with k = -1, used once: the compiled word splices
    # it in, inverted, so x2 is looked up in a coset once per x1, as for
    # [x1,x2], with the same solutions.
    calls = spy_conjugator(monkeypatch)
    ball = enumerate_ball(p23, [(0, (0, 1), p23.identity()), (1, (0, 1, 2), p23.identity())], 8)
    found = solve_bounded(parse_equation("[x1,x2]^-1 = 1", p23), {1: ball, 2: ball}, mode="all")
    assert len(calls) == len(ball)
    assert found == solve_bounded(parse_equation("[x1,x2] = 1", p23), {1: ball, 2: ball},
                                  mode="all")


def y_signs(items, y):
    """The signs of y's occurrences in ``items``, in order, every power
    written out (a power's body |k| times, inverted when k < 0)."""
    out = []
    for item in items:
        if type(item) is Var:
            if item.index == y:
                out.append(item.sign)
        elif type(item) is Pow:
            body = y_signs(item.body, y)
            if item.k < 0:
                body = [-s for s in reversed(body)]
            out += body * abs(item.k)
    return out


def split_texts():
    """Left sides over C2 * C3 for the solver's split: residual words, a
    commutator's inverse, y twice with one sign, and groups nested inside
    groups, inverted or not."""
    inner = residual_texts(("a", "b"), 1)
    nested = st.sampled_from([
        "[[{u}, {v}], {w}]", "[[{u}, {v}]^-1, {w}]^-1", "{u} [{v}, [{w}, {u}]^-1]",
        "[{u}, {v}]^-1 {w}", "{w} [{u} {v}, {w}]^-1 [{u}, {v}]",
    ])
    return st.one_of(
        residual_texts(("a", "b")),
        st.sampled_from(["[x1,x2]^-1", "[x1,x2]", "x1^2", "x2 x1 x2", "x1 [a, x2^b]^-1",
                         "[x1, a x2]^-1 b", "[x1, [a, x2]]", "[[x1, x2], a]^-1"]),
        st.builds(lambda t, u, v, w: t.format(u=u, v=v, w=w), nested, inner, inner, inner),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solver_split_follows_the_occurrences_of_y(data):
    # The branch is read from the compiled left side; it must be the one
    # the occurrences of y give, a power's body counted |k| times: y once
    # is solved from W0 y^s W1, y twice with opposite signs by the coset
    # lookup (the only caller of _conjugator), anything else by the scan
    # (the only caller of _Program.run).
    group = _P23
    lhs = parse_word(data.draw(split_texts(), label="lhs"), group)
    variables = lhs.free_variables()
    pool = data.draw(st.lists(elements(group, 3), min_size=1, max_size=4), label="pool")
    if variables and data.draw(st.booleans(), label="reachable"):
        rhs = evaluate(lhs, {v: data.draw(st.sampled_from(pool)) for v in variables})
    else:
        rhs = data.draw(elements(group, 4), label="rhs")
    eq = Equation(lhs, rhs)
    candidates = {v: pool for v in variables}
    calls = {"conjugator": 0, "run": 0}
    real_conjugator, real_run = words._conjugator, words._Program.run

    def conjugator(*args):
        calls["conjugator"] += 1
        return real_conjugator(*args)

    def run(self, *args):
        calls["run"] += 1
        return real_run(self, *args)

    with patch.object(words, "_conjugator", conjugator), \
            patch.object(words._Program, "run", run):
        found = solve_bounded(eq, candidates, mode="all")
    signs = y_signs(lhs.letters, variables[-1]) if variables else []
    coset = len(signs) == 2 and signs[0] == -signs[1]
    scan = bool(variables) and len(signs) != 1 and not coset
    assert (calls["conjugator"] > 0) == coset
    assert (calls["run"] > 0) == scan
    assert found == naive_all_solutions(eq, candidates)
