import random
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from freeprod import tree
from freeprod.errors import MixedAmbientError, NotHyperbolicError, VerificationError
from conftest import raw_syllable_lists
from freeprod.finite_group import make_cyclic
from freeprod.free_product import INFINITE, FreeProduct
from freeprod.sampling import (
    random_cyclically_reduced,
    random_noncommuting_conjugator,
    random_reduced,
)
from freeprod.tree import (
    CosetVertex,
    ElementVertex,
    Elliptic,
    Hyperbolic,
    act,
    axes_intersection,
    axis_vertices,
    classify,
    vertex_distance,
)
from freeprod.words import parse_constant


def test_coset_vertex_canonicalizes(p23):
    a, b = p23.generator("a"), p23.generator("b")
    v = CosetVertex(1, a * b)  # trailing syllable in factor 1 gets stripped
    assert v.rep == a
    assert CosetVertex(1, a) == v
    assert CosetVertex(0, a).rep.is_identity


def test_act_examples(p23):
    a, b = p23.generator("a"), p23.generator("b")
    one = p23.identity()
    assert act(a, ElementVertex(one)) == ElementVertex(a)
    assert act(a, CosetVertex(0, one)) == CosetVertex(0, one)
    assert act(b, CosetVertex(0, one)) == CosetVertex(0, b)


def test_act_rejects_mixed_ambient(p23, p22):
    with pytest.raises(MixedAmbientError):
        act(p22.generator("a"), ElementVertex(p23.identity()))


def test_distance_examples(p23):
    a, b = p23.generator("a"), p23.generator("b")
    one = p23.identity()
    assert vertex_distance(ElementVertex(one), ElementVertex(a * b)) == 4
    assert vertex_distance(ElementVertex(one), CosetVertex(0, one)) == 1
    assert vertex_distance(CosetVertex(0, one), CosetVertex(1, one)) == 2
    assert vertex_distance(CosetVertex(0, b), ElementVertex(one)) == 3


def materialized_ball(group, radius_sylls):
    """Explicit finite piece of the tree for BFS distance checking."""
    elems = [group.identity()]
    frontier = [group.identity()]
    for _ in range(radius_sylls):
        nxt = []
        for g in frontier:
            for i, factor in enumerate(group.factors):
                for e in range(1, factor.order):
                    h = g * group.factor_element(i, e)
                    if h.norm == g.norm + 1:
                        nxt.append(h)
        elems.extend(nxt)
        frontier = nxt
    vertices = set()
    adj = {}
    for g in elems:
        ev = ElementVertex(g)
        vertices.add(ev)
        for i in range(len(group.factors)):
            cv = CosetVertex(i, g)
            vertices.add(cv)
            adj.setdefault(ev, set()).add(cv)
            adj.setdefault(cv, set()).add(ev)
    return vertices, adj


def bfs_distances(adj, start):
    """Edge distance from start to every vertex of the materialized ball."""
    seen = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj.get(v, ()):
            if w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    return seen


def test_distance_matches_bfs_oracle(p23):
    # Every pair of vertices within two syllables of the base, so v == w,
    # element and coset ends, and the coset end whose factor holds u's
    # syllable at that end all occur; the geodesic between two such
    # vertices stays inside the radius-4 ball.  Also on three factors.
    c2c3c2 = FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b"), make_cyclic(2, "c")])
    for group in (p23, c2c3c2):
        vertices, adj = materialized_ball(group, 4)
        near = [v for v in vertices if tree._vertex_rep(v).norm <= 2]
        for v in near:
            distances = bfs_distances(adj, v)
            for w in near:
                assert vertex_distance(v, w) == distances[w], (v.render(), w.render())


def test_classify_examples(p23):
    a, b = p23.generator("a"), p23.generator("b")
    cls = classify(a)
    assert isinstance(cls, Elliptic)
    assert cls.fixed_vertex == CosetVertex(0, p23.identity())

    cls = classify(a * b)
    assert isinstance(cls, Hyperbolic)
    assert cls.axis.translation_length_edges == 4
    # no fixed vertex: infinite order
    assert (a * b).order() == INFINITE

    cls = classify(b * a * b * b)
    assert isinstance(cls, Elliptic)
    assert cls.fixed_vertex == CosetVertex(0, b)
    assert act(b * a * b * b, cls.fixed_vertex) == cls.fixed_vertex


def test_classify_identity(p23):
    cls = classify(p23.identity())
    assert isinstance(cls, Elliptic)
    assert cls.fixed_vertex == ElementVertex(p23.identity())


def test_elliptic_fixed_vertices_verify(p23):
    rng = random.Random(5)
    for _ in range(100):
        u = random_reduced(rng, p23, 0, 6)
        cls = classify(u)
        if isinstance(cls, Elliptic):
            assert act(u, cls.fixed_vertex) == cls.fixed_vertex
            assert u.order() != INFINITE
        else:
            assert u.order() == INFINITE


def test_axis_vertices_examples(p23):
    a, b = p23.generator("a"), p23.generator("b")
    one = p23.identity()
    verts = axis_vertices(a * b, 1)
    for expected in (
        ElementVertex(one),
        CosetVertex(0, one),
        ElementVertex(a),
        CosetVertex(1, a),
        ElementVertex(a * b),
    ):
        assert expected in verts
    # every axis vertex is displaced exactly the translation length
    tl = classify(a * b).axis.translation_length_edges
    for v in verts:
        assert vertex_distance(v, act(a * b, v)) == tl

    assert ElementVertex(b) not in verts
    assert vertex_distance(ElementVertex(b), act(a * b, ElementVertex(b))) == 6

    period = axis_vertices(a * b, 0)
    assert len(period) == 2 * (a * b).norm


def test_axis_requires_hyperbolic(p23):
    with pytest.raises(NotHyperbolicError):
        axis_vertices(p23.generator("a"), 1)
    with pytest.raises(NotHyperbolicError):
        axes_intersection(p23.generator("a"), p23.generator("b"), 1)


def test_axis_vertices_are_consecutive(p23):
    rng = random.Random(8)
    for _ in range(30):
        u = random_cyclically_reduced(rng, p23, 2, 5)
        verts = axis_vertices(u, 2)
        for v, w in zip(verts, verts[1:]):
            assert vertex_distance(v, w) == 1


def test_axes_intersection_overlapping(p23):
    a, b = p23.generator("a"), p23.generator("b")
    # The axes of ab and ba share the segment from C(1,1) to C(1,a): four
    # edges, each endpoint displaced exactly 4 by both elements.
    assert axes_intersection(a * b, b * a, 4) == 4
    for v in (CosetVertex(1, p23.identity()), CosetVertex(1, a)):
        assert vertex_distance(v, act(a * b, v)) == 4
        assert vertex_distance(v, act(b * a, v)) == 4


def test_axes_intersection_identical(p23):
    a, b = p23.generator("a"), p23.generator("b")
    verts = axis_vertices(a * b, 2)
    assert axes_intersection(a * b, a * b, 2) == len(verts) - 1


def test_axes_intersection_disjoint(p23):
    a, b = p23.generator("a"), p23.generator("b")
    far = (b * a).power(3)
    conj = (a * b).conjugate(far)
    assert axes_intersection(a * b, conj, 2) is None


def test_action_is_isometry(p23):
    rng = random.Random(12)
    vertices, _ = materialized_ball(p23, 3)
    verts = sorted(vertices, key=lambda v: v.render())
    for _ in range(150):
        h = random_reduced(rng, p23, 0, 4)
        v, w = rng.choice(verts), rng.choice(verts)
        assert vertex_distance(act(h, v), act(h, w)) == vertex_distance(v, w)


def test_trivial_edge_stabilizers(p23):
    # If g fixes both endpoints of an edge, g is the identity: exhaustive
    # over small g and edges near the base vertex.
    small = []
    frontier = [p23.identity()]
    for _ in range(3):
        nxt = []
        for g in frontier:
            for i, factor in enumerate(p23.factors):
                for e in range(1, factor.order):
                    h = g * p23.factor_element(i, e)
                    if h.norm == g.norm + 1:
                        nxt.append(h)
        small.extend(nxt)
        frontier = nxt
    for g in small:  # identity excluded by construction
        for h in [p23.identity()] + small[:10]:
            ev = ElementVertex(h)
            for i in range(2):
                cv = CosetVertex(i, h)
                if act(g, ev) == ev and act(g, cv) == cv:
                    raise AssertionError(f"nonidentity {g} fixes an edge")


def test_coset_stabilizer_law(p23):
    rng = random.Random(21)
    for _ in range(200):
        g = random_reduced(rng, p23, 0, 5)
        r = random_reduced(rng, p23, 0, 4)
        for i in range(2):
            cv = CosetVertex(i, r)
            fixes = act(g, cv) == cv
            rel = cv.rep.inverse() * g * cv.rep
            in_factor = rel.is_identity or (rel.norm == 1 and rel.syllables[0][0] == i)
            assert fixes == in_factor


def test_hyperbolic_minimal_displacement(p23):
    rng = random.Random(30)
    for _ in range(30):
        u = random_cyclically_reduced(rng, p23, 2, 5)
        tl = classify(u).axis.translation_length_edges
        window = axis_vertices(u, 2)
        big_window = set(axis_vertices(u, 6))
        probes = set(window)
        for w in [random_reduced(rng, p23, 0, 3) for _ in range(5)]:
            probes.add(ElementVertex(w))
            probes.add(CosetVertex(rng.randrange(2), w))
        for v in probes:
            d = vertex_distance(v, act(u, v))
            assert d >= tl
            if d == tl:
                assert v in big_window
            else:
                assert v not in big_window


def test_lemma7_axis_geometry(p23, p222):
    rng = random.Random(44)
    for group in (p23, p222):
        for _ in range(25):
            a = random_cyclically_reduced(rng, group, 2, 4)
            g = random_noncommuting_conjugator(rng, group, a, max_norm=3)
            ag = a.conjugate(g)
            window = 2 * (a.norm + ag.cyclic_reduce().core.norm)
            inter = axes_intersection(a, ag, window)
            if inter is not None:
                assert inter < 4 * a.norm  # two syllables' worth per axis
            n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
            x = a.power(n1) * ag.power(n2)
            bound = 2 * ((n1 + n2 - 4) * a.norm + 2)
            core = x.cyclic_reduce().core
            assert 2 * core.norm >= bound  # algebraic route
            for v in (ElementVertex(group.identity()),
                      ElementVertex(a), CosetVertex(0, g)):
                assert vertex_distance(v, act(x, v)) >= bound


def test_axes_intersection_rejects_non_contiguous_windows(p23, monkeypatch):
    a, b = p23.generator("a"), p23.generator("b")
    u, v = a * b, b * a
    monkeypatch.setattr(tree, "axis_vertices", lambda w, n: [1, 2, 3] if w is u else [1, 3])
    with pytest.raises(VerificationError):
        axes_intersection(u, v, 2)


def _shared_head_matches_full_rendering(u, window):
    """The shared-head rendering of u's axis window against a full render
    of every vertex; returns whether the conjugator's last syllable merged
    with the first syllable of core^-1."""
    axis = classify(u).axis
    c = axis.conjugator.syllables
    verts = axis_vertices(u, window)
    window_verts = tree._axis_window(axis, window)
    conj_text, texts, rendered = tree._render_window(axis.conjugator, window_verts)
    assert conj_text == axis.conjugator.as_word()
    assert texts == [v.render() for v in verts]
    # Every vertex starts with the head, c minus its last syllable, so only
    # the syllables after it are rendered per vertex.
    head = max(len(c) - 1, 0)
    assert rendered == len(c) + sum(tree._vertex_rep(v).norm - head for v in verts)
    core_inv = axis.core.inverse().syllables
    return bool(c) and c[-1][0] == core_inv[0][0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(["p23", "s3z2", "p222"]),
       window=st.integers(0, 3))
def test_shared_head_rendering_matches_full_render(p23, s3z2, p222, data, which, window):
    # Random hyperbolic c * core * c^-1 in C2 * C3, S3 * Z2 (cases/example1)
    # and C2 * C2 * C2.
    group = {"p23": p23, "s3z2": s3z2, "p222": p222}[which]
    n = len(group.factors)
    # a cyclically reduced core of norm 2..6: consecutive factors differ,
    # and a last syllable in the first one's factor is dropped
    fs = [data.draw(st.integers(0, n - 1))]
    for _ in range(data.draw(st.integers(1, 5))):
        fs.append((fs[-1] + data.draw(st.integers(1, n - 1))) % n)
    if fs[-1] == fs[0]:
        fs.pop()
    core = group.element([(f, data.draw(st.integers(1, group.factors[f].order - 1)))
                          for f in fs])
    c = group.element(data.draw(raw_syllable_lists(group, 10)))
    u = c * core * c.inverse()
    assert isinstance(classify(u), Hyperbolic)
    _shared_head_matches_full_rendering(u, window)


def test_shared_head_rendering_covers_merging_conjugators(p23, s3z2):
    # Conjugators whose last syllable merges with the first of core^-1, as
    # on every axis in a product of two factors, and one whose split merged
    # a syllable into the end of the core (b a b^2 a b = b (a b^2 a b^2) b^2).
    merging = 0
    for group, text in ((p23, "(a b)^3 b a b^2 a (a b)^-3"),
                        (p23, "(a b^2)^5 a b^2 a b (a b^2)^-5"),
                        (p23, "b a b^2 a b"), (p23, "a b"),
                        (s3z2, "(a c b)^4 a c b c (a c b)^-4"), (s3z2, "c a c b c")):
        for window in range(4):
            merging += _shared_head_matches_full_rendering(parse_constant(text, group), window)
    assert merging >= 16
