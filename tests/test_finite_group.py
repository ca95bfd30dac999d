import itertools
import math
import random

import pytest

from freeprod import finite_group
from freeprod.errors import (
    DuplicateLabelError,
    ForeignElementError,
    GeneratorsDoNotGenerateError,
    NoIdentityError,
    NotASubgroupError,
    NotAssociativeError,
    NotLatinSquareError,
    OrderTooSmallError,
)
from freeprod.finite_group import (
    direct_product,
    from_cayley_table,
    make_cyclic,
    make_dihedral_reflections,
)

# Smallest non-associative Latin square with identity is order 5; no 3x3
# Latin square with an identity fails associativity (the only one is C3).
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_from_cayley_table_z2():
    g = from_cayley_table([[0, 1], [1, 0]], [("a", 1)])
    assert g.order == 2
    assert g.mul(1, 1) == 0
    assert g.inverses == (0, 1)


def test_from_cayley_table_rejects_repeated_row():
    with pytest.raises(NotLatinSquareError, match="column 0 is not a permutation"):
        from_cayley_table([[0, 1], [0, 1]], [("a", 1)])


def test_from_cayley_table_rejects_non_associative():
    with pytest.raises(NotAssociativeError):
        from_cayley_table(NONASSOC_LOOP, [("a", 1)])


def test_from_cayley_table_rejects_no_identity():
    # Latin, but no row reads 0,1,2 so there is no left identity.
    rows = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    with pytest.raises(NoIdentityError):
        from_cayley_table(rows, [("a", 1)])


def test_from_cayley_table_rejects_order_one():
    with pytest.raises(OrderTooSmallError):
        from_cayley_table([[0]], [("a", 0)])


def test_from_cayley_table_rejects_non_generating_set():
    z4 = make_cyclic(4)
    with pytest.raises(GeneratorsDoNotGenerateError):
        from_cayley_table(z4.table, [("a", 2)])


def test_identity_relabelled_to_zero():
    # C3 written with the identity at position 2.
    perm = [2, 0, 1]  # new id -> old id ... build by permuting make_cyclic(3)
    z3 = make_cyclic(3)
    inv = {v: k for k, v in enumerate(perm)}
    rows = [
        [inv[z3.table[perm[i]][perm[j]]] for j in range(3)] for i in range(3)
    ]
    assert rows[0][0] != 0  # identity not at 0 in the raw table
    gen_old = inv[1]
    g = from_cayley_table(rows, [("a", gen_old)])
    assert g.table[0] == (0, 1, 2)
    assert g.element_order(g.generators[0][1]) == 3


def constructed_groups(max_order):
    """Every group make_cyclic, make_dihedral_reflections and direct_product
    build up to max_order: all cyclic and dihedral orders, every product of
    two of those, and products nested on either side."""
    labels = (f"g{i}" for i in itertools.count())

    def fresh(g):
        return g.relabeled([next(labels) for _ in g.generators])

    base = [make_cyclic(n, next(labels)) for n in range(2, max_order + 1)]
    base += [make_dihedral_reflections(n, (next(labels), next(labels)))
             for n in range(2, max_order // 2 + 1)]
    products = [direct_product(fresh(a), fresh(b))
                for a in base for b in base if a.order * b.order <= max_order]
    nested = [direct_product(fresh(p), fresh(b)) for p in products for b in base
              if p.order * b.order <= max_order]
    nested += [direct_product(fresh(b), fresh(p)) for p in products for b in base
               if p.order * b.order <= max_order]
    return base + products + nested


def test_round_trip_identity_first_tables():
    # The constructors build tables and inverses in closed form; the full
    # validation of from_cayley_table must rebuild exactly the same group,
    # for every group they build up to order 40, nested products included.
    groups = constructed_groups(40)
    assert any(g.name.count("x") == 2 for g in groups)
    for g in groups:
        h = from_cayley_table(g.table, g.generators, g.name)
        assert h.table == g.table, g.name
        assert h.inverses == g.inverses, g.name
        assert h.generators == g.generators, g.name


def test_make_cyclic():
    assert make_cyclic(2).order == 2
    g3 = make_cyclic(3)
    assert g3.element_order(g3.generators[0][1]) == 3
    with pytest.raises(OrderTooSmallError):
        make_cyclic(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_make_dihedral_reflections(n):
    g = make_dihedral_reflections(n)
    assert g.order == 2 * n
    a = g.generators[0][1]
    b = g.generators[1][1]
    assert g.element_order(a) == 2
    assert g.element_order(b) == 2
    assert g.element_order(g.mul(a, b)) == n


def test_make_dihedral_reflections_matches_the_product_rule():
    # The rows are built in closed form; the reference multiplies cell by
    # cell, (r1,f1)*(r2,f2) = (r1 + (-1)^f1 r2, f1 + f2) with (r, f) = r + n f.
    for n in range(2, 65):
        def mul(x, y):
            r1, f1 = x % n, x // n
            r2, f2 = y % n, y // n
            rot = (r1 - r2) % n if f1 else (r1 + r2) % n
            return rot + n * (f1 ^ f2)

        reference = from_cayley_table(
            [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)],
            [("a", n), ("b", 2 * n - 1)],
        )
        g = make_dihedral_reflections(n)
        assert g.table == reference.table, n
        assert g.inverses == reference.inverses, n
        assert g.generators == reference.generators, n


def test_direct_product_matches_the_product_rule():
    # The rows are built from the factors' rows; the reference multiplies
    # cell by cell, (x1,x2)*(y1,y2) = (x1 y1, x2 y2) with (x1, x2) = x1*#B + x2.
    factors = [make_cyclic(2, "a"), make_cyclic(3, "b"), make_cyclic(4, "c"),
               make_dihedral_reflections(3, ("d", "e")), make_dihedral_reflections(4, ("f", "g")),
               direct_product(make_cyclic(2, "h"), make_cyclic(2, "i"))]
    for a in factors:
        for b in factors:
            if {lab for lab, _ in a.generators} & {lab for lab, _ in b.generators}:
                continue
            nb = b.order

            def mul(x, y):
                (x1, x2), (y1, y2) = divmod(x, nb), divmod(y, nb)
                return a.table[x1][y1] * nb + b.table[x2][y2]

            order = a.order * nb
            gens = [(lab, g * nb) for lab, g in a.generators] + list(b.generators)
            reference = from_cayley_table(
                [[mul(i, j) for j in range(order)] for i in range(order)], gens
            )
            g = direct_product(a, b)
            assert g.table == reference.table, (a.name, b.name)
            assert g.inverses == reference.inverses, (a.name, b.name)
            assert g.generators == reference.generators, (a.name, b.name)


def test_dihedral_two_is_klein_four():
    g = make_dihedral_reflections(2)
    assert g.order == 4
    for x in g.elements():
        for y in g.elements():
            assert g.mul(x, y) == g.mul(y, x)


def test_direct_product_orders():
    z2, z3 = make_cyclic(2, "a"), make_cyclic(3, "b")
    g = direct_product(z2, z3)
    assert g.order == 6
    ab = g.mul(g.generators[0][1], g.generators[1][1])
    assert g.element_order(ab) == 6

    k = direct_product(make_cyclic(2, "a"), make_cyclic(2, "b"))
    assert k.order == 4
    assert all(g2 == 0 or k.element_order(g2) == 2 for g2 in k.elements())

    c8 = direct_product(k, make_cyclic(2, "c"))
    assert c8.order == 8


def test_direct_product_rejects_label_clash():
    with pytest.raises(DuplicateLabelError):
        direct_product(make_cyclic(2, "a"), make_cyclic(2, "a"))


def test_element_order_basics():
    g = direct_product(make_cyclic(2, "a"), make_cyclic(3, "b"))
    assert g.element_order(0) == 1
    z2 = make_cyclic(2)
    assert z2.element_order(1) == 2
    with pytest.raises(ForeignElementError):
        z2.element_order(5)


def test_lagrange_for_all_constructed_groups():
    groups = [
        make_cyclic(5),
        make_dihedral_reflections(3),
        make_dihedral_reflections(4),
        direct_product(make_cyclic(2, "a"), make_cyclic(3, "b")),
    ]
    for g in groups:
        for x in g.elements():
            assert g.order % g.element_order(x) == 0


def test_conjugator_and_centralizer_match_brute_force():
    groups = [
        make_cyclic(5),
        make_dihedral_reflections(3),
        make_dihedral_reflections(4),
        direct_product(make_dihedral_reflections(3), make_cyclic(2, "c")),
    ]
    for g in groups:
        t, inv = g.table, g.inverses
        for x in g.elements():
            assert g.centralizer(x) == tuple(h for h in g.elements() if t[h][x] == t[x][h])
            for y in g.elements():
                conjugators = [h for h in g.elements() if t[t[h][x]][inv[h]] == y]
                assert g.conjugator(x, y) == (conjugators[0] if conjugators else None)
    with pytest.raises(ForeignElementError):
        make_cyclic(2).conjugator(0, 2)


def brute_closure(g, gens):
    """Independent closure oracle: grow the set until stable."""
    s = {0, *gens}
    while True:
        grown = {g.table[x][y] for x in s for y in s} | {g.inverses[x] for x in s}
        if grown <= s:
            return tuple(sorted(s))
        s |= grown


def test_generated_subgroup_dihedral3():
    g = make_dihedral_reflections(3)
    a, b = g.generators[0][1], g.generators[1][1]
    assert g.generated_subgroup([a]) == (0, a)
    ab = g.mul(a, b)
    assert g.generated_subgroup([ab]) == brute_closure(g, [ab])
    assert len(g.generated_subgroup([ab])) == 3
    assert g.generated_subgroup([a, b]) == tuple(range(6))


def test_generated_subgroup_is_closed():
    rng = random.Random(7)
    for g in (make_dihedral_reflections(4), make_cyclic(12)):
        for _ in range(25):
            gens = rng.sample(range(g.order), rng.randint(1, 3))
            sub = g.generated_subgroup(gens)
            assert sub == brute_closure(g, gens)
            assert g.is_subgroup(sub)


def test_conjugate_subgroup_example1():
    g = make_dihedral_reflections(3)
    a, b = g.generators[0][1], g.generators[1][1]
    ba = g.mul(b, a)
    assert g.conjugate_subgroup(g.generated_subgroup([b]), ba) == (0, a)


def test_conjugate_subgroup_identity_and_abelian():
    g = make_dihedral_reflections(3)
    sub = g.generated_subgroup([g.generators[1][1]])
    assert g.conjugate_subgroup(sub, 0) == sub

    k = direct_product(make_cyclic(2, "a"), make_cyclic(2, "d"))
    sa = k.generated_subgroup([k.generators[0][1]])
    for x in k.elements():
        assert k.conjugate_subgroup(sa, x) == sa


def test_conjugate_subgroup_preserves_structure():
    rng = random.Random(3)
    g = make_dihedral_reflections(4)
    for _ in range(30):
        gens = rng.sample(range(g.order), rng.randint(1, 2))
        sub = g.generated_subgroup(gens)
        x = rng.randrange(g.order)
        conj = g.conjugate_subgroup(sub, x)
        assert len(conj) == len(sub)
        assert g.is_subgroup(conj)


def test_conjugate_subgroup_rejects_non_subgroup():
    g = make_dihedral_reflections(3)
    with pytest.raises(NotASubgroupError):
        g.conjugate_subgroup((0, g.generators[0][1], g.generators[1][1]), 0)


def test_element_words_are_shortest():
    g = make_dihedral_reflections(3)
    words = g.element_words
    assert words[0] == ()
    # recompute by brute force BFS over all products
    for x in g.elements():
        acc = 0
        for lab in words[x]:
            gen = dict(g.generators)[lab]
            acc = g.mul(acc, gen)
        assert acc == x


def test_relabeled():
    g = make_cyclic(3).relabeled(["z"])
    assert g.generators == (("z", 1),)
    with pytest.raises(DuplicateLabelError):
        make_dihedral_reflections(3).relabeled(["x", "x"])


# -- associativity: Light's test against the full n^3 check -------------------


def associative_reference(rows):
    """Reference: check (x*y)*z == x*(y*z) over all n^3 triples."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    return False
    return True


def random_latin_square_with_identity(rng, n):
    """A random n x n Latin square whose row 0 and column 0 read 0..n-1
    (so 0 is a two-sided identity), filled cell by cell with backtracking,
    then with its symbols renamed by a random permutation."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            return True
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            rows[i][j] = v
            if fill(cell + 1):
                return True
        rows[i][j] = None
        return False

    found = fill(0)
    assert found
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {p: k for k, p in enumerate(perm)}
    return [[perm[rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def right_closure(rows, e, gens):
    """Everything reachable from e by right multiplication by gens: in a
    group the generated subgroup, and in a table that is not associative the
    set Light's test needs to be everything."""
    s = {e}
    while True:
        grown = s | {rows[x][g] for x in s for g in gens}
        if grown == s:
            return s
        s = grown


def test_light_test_agrees_with_the_full_check():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(4, 6)
        rows = random_latin_square_with_identity(rng, n)
        ids = list(range(n))
        gens = rng.sample(ids, rng.randint(1, 3))
        e = next(x for x in ids if rows[x] == ids)
        generating = len(right_closure(rows, e, gens)) == n
        associative = associative_reference(rows)
        labelled = [(f"g{k}", g) for k, g in enumerate(gens)]
        if not associative:
            with pytest.raises(NotAssociativeError):
                from_cayley_table(rows, labelled)
        elif not generating:
            with pytest.raises(GeneratorsDoNotGenerateError):
                from_cayley_table(rows, labelled)
        else:
            g = from_cayley_table(rows, labelled)
            assert g.order == n
        verdicts.add((associative, generating))
    # every combination occurs: (False, True) takes Light's test over the
    # generators, and (False, False) over the generators extended to a
    # generating set, before the closure is reported
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n, table", [
    (800, lambda x, y: (x + y) % 800),
    # each id joined only doubles the closure: 1, 2, 4, ..., 256
    (512, lambda x, y: x ^ y),
], ids=["C800", "C2^9"])
def test_tables_that_do_not_generate_check_few_middles(monkeypatch, n, table):
    # Generators that reach only the identity still have a table proved
    # associative before they are refused, over a set the least ids outside
    # the closure extend: in a group each one joined doubles the closure,
    # so at most 1 + log2(n) middles, not all n.
    seen = []
    real = finite_group._check_associative

    def spy(rows, middles):
        seen.append(list(middles))
        return real(rows, middles)

    monkeypatch.setattr(finite_group, "_check_associative", spy)
    rows = [[table(x, y) for y in range(n)] for x in range(n)]
    with pytest.raises(GeneratorsDoNotGenerateError):
        from_cayley_table(rows, [("a", 0)])
    assert len(seen) == 1
    assert len(seen[0]) <= 1 + math.ceil(math.log2(n))
