import random

import pytest

from freeprod.finite_group import make_cyclic, make_dihedral_reflections
from freeprod.free_product import FreeProduct
from freeprod.sampling import random_reduced


def element_sampler(rng, group, min_norm=0, max_norm=6):
    """Oracle: draw raw syllables, normalize them with element() and redraw
    until the norm is the drawn length."""
    n = len(group.factors)
    while True:
        length = rng.randint(min_norm, max_norm)
        sylls = []
        factor = rng.randrange(n)
        for _ in range(length):
            sylls.append((factor, rng.randrange(1, group.factors[factor].order)))
            if n > 1:
                factor = rng.choice([i for i in range(n) if i != factor])
        u = group.element(sylls)
        if u.norm == length:
            return u


THREE = FreeProduct([make_cyclic(2, "a"), make_dihedral_reflections(3, ("b", "d")),
                     make_cyclic(5, "c")])
ONE = FreeProduct([make_cyclic(4, "a")])


@pytest.mark.parametrize("name", ["p23", "example1", "three", "one"])
def test_random_reduced_matches_the_element_sampler(name, p23, s3z2):
    group = {"p23": p23, "example1": s3z2, "three": THREE, "one": ONE}[name]
    bounds = [(0, 6), (2, 5), (0, 12), (1, 1)] if name != "one" else [(0, 1), (0, 0), (1, 1)]
    for seed in range(150):
        new, old = random.Random(seed), random.Random(seed)
        for lo, hi in bounds * 3:
            u = random_reduced(new, group, lo, hi)
            assert u == element_sampler(old, group, lo, hi), (seed, lo, hi)
            assert lo <= u.norm <= hi
            assert new.getstate() == old.getstate(), (seed, lo, hi)
