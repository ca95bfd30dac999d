import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freeprod
from freeprod.errors import GroupError
from freeprod.finite_group import make_cyclic, make_dihedral_reflections
from freeprod.free_product import FreeProduct
from freeprod.sampling import (
    random_cyclically_reduced,
    random_noncommuting_conjugator,
    random_reduced,
    random_word_text,
)


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


def cyclic_sampler(rng, group, min_norm=2, max_norm=6):
    """Oracle: element_sampler until the first and last syllables lie in
    different factors."""
    while True:
        u = element_sampler(rng, group, min_norm, max_norm)
        s = u.syllables
        if len(s) >= 2 and s[0][0] != s[-1][0]:
            return u


def conjugator_sampler(rng, group, element, max_norm=4, attempts=1000):
    """Oracle: element_sampler until the conjugate of element does not
    commute with it, by the element operations."""
    for _ in range(attempts):
        g = element_sampler(rng, group, 0, max_norm)
        if not element.commutes_with(element.conjugate(g)):
            return g
    raise GroupError("no conjugator")


def word_sampler(rng, group, min_len=1, max_len=5):
    """Oracle: a randint length of choices among the labels."""
    return " ".join(rng.choice(group.generator_labels)
                    for _ in range(rng.randint(min_len, max_len)))


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


@pytest.mark.parametrize("name", ["p23", "example1", "three"])
def test_every_sampler_draws_what_randint_randrange_and_choice_draw(name, p23, s3z2):
    # Each sampler against its oracle, seed by seed: the same result and the
    # same generator state after every draw.  In a group of two factors the
    # factor after each syllable is a choice among one, which still draws.
    group = {"p23": p23, "example1": s3z2, "three": THREE}[name]
    for seed in range(100):
        new, old = random.Random(seed), random.Random(seed)
        for lo, hi in ((2, 6), (4, 4), (2, 9)):
            a = random_cyclically_reduced(new, group, lo, hi)
            assert a == cyclic_sampler(old, group, lo, hi), (seed, lo, hi)
            assert new.getstate() == old.getstate()
            for max_norm in (4, 1, 7):
                g = random_noncommuting_conjugator(new, group, a, max_norm)
                assert g == conjugator_sampler(old, group, a, max_norm), (seed, max_norm)
                assert new.getstate() == old.getstate()
        for lo, hi in ((1, 5), (0, 3), (4, 4), (1, 12)):
            assert random_word_text(new, group, lo, hi) == word_sampler(old, group, lo, hi)
            assert new.getstate() == old.getstate()


class _BoundedRandom(random.Random):
    """A generator whose getrandbits fails after a bounded number of calls,
    so a draw that would spin forever fails instead of hanging."""

    def __init__(self, seed, calls=10_000):
        self.calls = calls
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls -= 1
        if self.calls < 0:
            raise RuntimeError("getrandbits called too often")
        return super().getrandbits(k)


def test_an_empty_range_is_randints_error_before_any_draw(p23):
    # randint(lo, hi) with hi < lo raises before it draws; _randbelow(n)
    # with n <= 0 would never return (getrandbits(0) is 0, and 0 >= 0)
    rng = _BoundedRandom(5)
    state = rng.getstate()
    for lo, hi, draw in ((5, 2, lambda: random_reduced(rng, p23, 5, 2)),
                         (3, 2, lambda: random_reduced(rng, p23, 3, 2)),
                         (3, 1, lambda: random_word_text(rng, p23, 3, 1)),
                         (2, 1, lambda: random_word_text(rng, p23, 2, 1)),
                         (1, 0, lambda: random_reduced(rng, ONE, 1, 0))):
        with pytest.raises(ValueError) as caught:
            random.Random(0).randint(lo, hi)
        with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
            draw()
        assert rng.getstate() == state
    # the same generator still draws what random.Random draws
    assert random_reduced(rng, p23, 2, 5) == random_reduced(random.Random(5), p23, 2, 5)


def test_samplers_refuse_what_the_group_cannot_give(p22, p23):
    # One factor: every element has norm at most 1, so norm 2 is refused
    # before any draw instead of redrawn forever.
    rng = random.Random(0)
    state = rng.getstate()
    for draw in (lambda: random_reduced(rng, ONE, 2, 6),
                 lambda: random_cyclically_reduced(rng, ONE, 2, 6)):
        with pytest.raises(GroupError, match="^a free product of one factor has no element "
                                             "of norm 2 or more$"):
            draw()
        assert rng.getstate() == state
    # A norm below 2 is never cyclically reduced of infinite order: refused
    # before any draw, by a check that python -O keeps (it would redraw
    # forever)
    for low in (1, 0, -1):
        with pytest.raises(GroupError, match="^a cyclically reduced element of infinite order "
                                             f"has norm 2 or more, not {low}$"):
            random_cyclically_reduced(rng, p23, low, 1)
        assert rng.getstate() == state
    # C2 * C2: an element of infinite order lies in the abelian <a b>, as do
    # all its conjugates; refused before any draw.  Finite-order elements
    # still get a conjugator.
    ab = p22.generator("a") * p22.generator("b")
    for a in (ab, ab.power(3), ab.conjugate(p22.generator("a"))):
        with pytest.raises(GroupError, match=r"^in C2 \* C2 every element of infinite order"):
            random_noncommuting_conjugator(rng, p22, a)
        assert rng.getstate() == state
    a = p22.generator("a")
    g = random_noncommuting_conjugator(rng, p22, a)
    assert not a.commutes_with(a.conjugate(g))
    # no draw can succeed for the identity
    with pytest.raises(GroupError, match="^could not find a non-commuting conjugate in 5 draws$"):
        random_noncommuting_conjugator(rng, p23, p23.identity(), attempts=5)


def test_cyclically_reduced_refusal_survives_python_O():
    # The refusal above, in a child under python -O, with a timeout so that
    # a stripped check that redraws forever fails instead of hanging.
    src = str(Path(freeprod.__file__).resolve().parent.parent)
    code = ("import random\n"
            "from freeprod.errors import GroupError\n"
            "from freeprod.finite_group import make_cyclic\n"
            "from freeprod.free_product import FreeProduct\n"
            "from freeprod.sampling import random_cyclically_reduced\n"
            "p23 = FreeProduct([make_cyclic(2, 'a'), make_cyclic(3, 'b')])\n"
            "try:\n"
            "    random_cyclically_reduced(random.Random(0), p23, 0, 1)\n"
            "except GroupError as e:\n"
            "    print(e)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "a cyclically reduced element of infinite order has norm 2 or more, " \
                            "not 0\n"
