"""Acceptance suite: one test per criterion, run at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test asserts both correctness and its wall-clock budget.
"""

import random
import time

from freeprod import checker, words
from freeprod.checker import KuroshData, Part
from freeprod.finite_group import (
    direct_product,
    make_cyclic,
    make_dihedral_reflections,
)
from freeprod.free_product import INFINITE, FreeProduct, enumerate_ball
from freeprod.sampling import (
    random_cyclically_reduced,
    random_noncommuting_conjugator,
    random_reduced,
    random_word_text,
)
from freeprod.tree import (
    CosetVertex,
    ElementVertex,
    act,
    axes_intersection,
    vertex_distance,
)
from freeprod.words import build_lemma4, build_lemma5, evaluate, solve_bounded


class Timer:
    def __init__(self, limit_s):
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit_s, (
                f"took {self.elapsed:.2f}s, budget {self.limit_s}s"
            )
        return False

    def report(self, n, message):
        print(f"PASS criterion {n}: {message} ({self.elapsed:.2f}s < {self.limit_s}s)")


def test_criterion_1_example1_reproduction(s3z2):
    with Timer(1.0) as t:
        d3 = s3z2.factors[0]
        a, b = d3.generators[0][1], d3.generators[1][1]
        data = KuroshData(
            s3z2, 0,
            (Part.of(s3z2, 0, [a]), Part.of(s3z2, 0, [b], s3z2.generator("c"))),
        )
        violations = checker.check_condition2(data)
        assert violations, "expected a condition-2 violation"
        v = violations[0]
        ba = d3.mul(b, a)
        assert v.witness_g == ba
        assert v.witness_f == a and v.k1 == 1 and v.k2 == 1
        # <a> meet <b>^g is all of <a>
        conj = d3.conjugate_subgroup(d3.generated_subgroup([b]), ba)
        assert conj == d3.generated_subgroup([a]) == (0, a)
        assert not checker.check_all(data).passes_necessary
    t.report(1, "condition-2 witness g = b a with <a> ^ <b>^g = <a>")


def test_criterion_2_example2_reproduction(z6z2):
    with Timer(1.0) as t:
        z6 = z6z2.factors[0]
        a, b = z6.generators[0][1], z6.generators[1][1]
        data = KuroshData(
            z6z2, 0,
            (Part.of(z6z2, 0, [a]), Part.of(z6z2, 0, [b], z6z2.generator("c"))),
        )
        violations = checker.check_condition2(data)
        assert violations
        v = violations[0]
        ab = z6.mul(a, b)
        assert v.witness_f == ab and (v.k1, v.k2) == (3, 2)
        assert z6.power(ab, 3) == a and z6.power(ab, 2) == z6.power(b, 2)
    t.report(2, "witness f = a b with f^3 = a and f^2 = b^2")


def test_criterion_3_theorem2_verification():
    with Timer(10.0) as t:
        rep = words.theorem2_report(6)
        assert rep.total_evaluations == 8 * 13**3 == 17576
        for case in rep.case_results:
            assert case.mismatches == (), case
        assert rep.target_hits == ()
        assert rep.embedding_image_matches
    t.report(3, "17576 evaluations match the closed forms; target never reached")


def test_criterion_4_lemma4_constructions(p23, s3z2):
    with Timer(10.0) as t:
        rng = random.Random(0)
        for group in (p23, s3z2):
            for _ in range(100):
                f_word = random_word_text(rng, group, 1, 5)
                cons = build_lemma4(group, f_word)
                assert evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs
                f = cons.equation.rhs
                if f.order() == INFINITE:
                    # x_j = f^{n_j} makes the left side f^(p * sum n_j), and
                    # f^(p n) = f needs p n = 1 for f of infinite order, so
                    # no |n_j| <= 20 tuple solves; sampled tuples confirm it.
                    assert not words.cyclic_power_solution_exists(cons, bound=20)
                    for _ in range(3):
                        ns = [rng.randint(-20, 20) for _ in cons.exponents]
                        sub = {j + 1: f.power(n) for j, n in enumerate(ns)}
                        assert evaluate(cons.equation.lhs, sub) != f
    t.report(4, "200 random constructions verified; no cyclic-power solutions")


def test_criterion_5_lemma7_norm_bound(p23, p222):
    with Timer(30.0) as t:
        for group in (p23, p222):
            rng = random.Random(42)
            for _ in range(1000):
                a = random_cyclically_reduced(rng, group, 2, 6)
                assert a.order() == INFINITE
                g = random_noncommuting_conjugator(rng, group, a)
                n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
                core = (a.power(n1) * a.conjugate(g).power(n2)).cyclic_reduce().core
                assert core.norm > (n1 + n2 - 4) * a.norm
    t.report(5, "2000 trials: |core| > (N1+N2-4)|A| throughout")


def test_criterion_6_axis_geometry(p23, p222):
    with Timer(60.0) as t:
        rng = random.Random(7)
        for trial in range(200):
            group = p23 if trial % 2 == 0 else p222
            a = random_cyclically_reduced(rng, group, 2, 6)
            g = random_noncommuting_conjugator(rng, group, a, max_norm=3)
            ag = a.conjugate(g)
            window = 2 * (a.norm + ag.cyclic_reduce().core.norm)
            inter = axes_intersection(a, ag, window)
            if inter is not None:
                assert inter < 4 * a.norm
            n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
            x = a.power(n1) * ag.power(n2)
            bound = 2 * ((n1 + n2 - 4) * a.norm + 2)
            assert 2 * x.cyclic_reduce().core.norm >= bound
            probes = [
                ElementVertex(group.identity()),
                ElementVertex(a),
                ElementVertex(g),
                CosetVertex(0, a * g),
                ElementVertex(random_reduced(rng, group, 0, 4)),
            ]
            for v in probes:
                assert vertex_distance(v, act(x, v)) >= bound
    t.report(6, "200 pairs: |I| < 4|A| edges and displacement >= 2((N1+N2-4)|A|+2)")


def test_criterion_7_lemma5_desk_instance(z6z2):
    with Timer(60.0) as t:
        cons = build_lemma5(z6z2, "a b", "c", 3, 2)
        assert cons.N == 13
        assert evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs
        f = words.parse_constant("a b", z6z2)
        factor, fe = f.syllables[0]
        fgrp = z6z2.factors[factor]
        parts = [
            (factor, fgrp.generated_subgroup([fgrp.power(fe, 3)]), z6z2.identity()),
            (factor, fgrp.generated_subgroup([fgrp.power(fe, 2)]), z6z2.generator("c")),
        ]
        ball = enumerate_ball(z6z2, parts, 6)
        found = solve_bounded(
            cons.equation, {v: ball for v in cons.equation.lhs.free_variables()}
        )
        assert found is None, f"unexpected solution {found}"
    t.report(7, f"generator solution holds; no solution in the {len(ball)}-element ball")


def _fresh_labels():
    i = 0
    while True:
        i += 1
        yield f"g{i}"


def _random_ambient(rng, labels, n_factors):
    factories = [
        lambda lab: make_cyclic(rng.choice([2, 3, 4, 5]), lab),
        lambda lab: make_dihedral_reflections(3, (lab, next(labels))),
        lambda lab: direct_product(
            make_cyclic(2, lab), make_cyclic(rng.choice([2, 3]), next(labels))
        ),
    ]
    return FreeProduct([rng.choice(factories)(next(labels)) for _ in range(n_factors)])


def _random_subgroup(rng, group):
    while True:
        size = rng.randint(1, min(2, group.order - 1))
        sub = group.generated_subgroup(rng.sample(range(1, group.order), size))
        if len(sub) >= 2:
            return sub


def _random_conjugator(rng, ambient):
    n = len(ambient.factors)
    sylls, f = [], rng.randrange(n)
    for _ in range(rng.randint(0, 2)):
        sylls.append((f, rng.randrange(1, ambient.factors[f].order)))
        f = rng.choice([i for i in range(n) if i != f])
    return ambient.element(sylls)


def test_criterion_8_duplicated_and_distinct_parts():
    with Timer(10.0) as t:
        rng = random.Random(13)
        labels = _fresh_labels()
        for _ in range(100):
            ambient = _random_ambient(rng, labels, rng.randint(2, 3))
            i = rng.randrange(len(ambient.factors))
            sub = _random_subgroup(rng, ambient.factors[i])
            data = KuroshData(
                ambient, 0,
                (
                    Part(i, sub, _random_conjugator(rng, ambient)),
                    Part(i, sub, _random_conjugator(rng, ambient)),
                ),
            )
            assert checker.check_condition2(data), "duplicated part must violate"
        for _ in range(100):
            ambient = _random_ambient(rng, labels, rng.randint(2, 3))
            data = KuroshData(
                ambient, 0,
                tuple(
                    Part(i, _random_subgroup(rng, g), _random_conjugator(rng, ambient))
                    for i, g in enumerate(ambient.factors)
                ),
            )
            assert checker.check_condition2(data) == []
    t.report(8, "100 duplicated-part violations, 100 distinct-factor passes")


def _brute_order(u, bound=60):
    """Order by iterating powers; infinite once the norm has grown
    monotonically past 2 * bound."""
    acc = u
    k = 1
    norms = [u.norm]
    while True:
        if acc.is_identity:
            return k
        if k > bound and norms[-1] > 2 * bound and all(
            x < y for x, y in zip(norms[-10:], norms[-9:])
        ):
            return INFINITE
        acc = acc * u
        k += 1
        norms.append(acc.norm)
        assert k < 10_000


def test_criterion_9_algebra_law_suite(p23):
    with Timer(30.0) as t:
        rng = random.Random(1)
        for _ in range(10_000):
            u = random_reduced(rng, p23, 0, 6)
            v = random_reduced(rng, p23, 0, 6)
            w = random_reduced(rng, p23, 0, 6)
            assert (u * v) * w == u * (v * w)
            assert u * p23.identity() == u
            assert (u * u.inverse()).is_identity
            assert (u * v).inverse() == v.inverse() * u.inverse()
            red = u.cyclic_reduce()
            assert red.rebuild() == u
        for _ in range(1000):
            u = random_reduced(rng, p23, 0, 6)
            expected = _brute_order(u)
            assert u.order() == expected
            assert (expected == INFINITE) == (u.cyclic_reduce().core.norm >= 2)
    t.report(9, "10^4 law triples, 10^4 round trips, 10^3 order cross-checks")
