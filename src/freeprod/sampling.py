"""Seeded random generation of normal forms for verification runs.

All samplers take an explicit random.Random so every randomized check in
the test suite and the CLI is reproducible from its seed.
"""

from __future__ import annotations

import random

from .errors import GroupError
from .free_product import INFINITE, FPElement, FreeProduct


def random_reduced(
    rng: random.Random, group: FreeProduct, min_norm: int = 0, max_norm: int = 6
) -> FPElement:
    """Random element whose normal form has norm in [min_norm, max_norm].
    Every element of a one-factor free product has norm at most 1, so
    there a min_norm above 1 is a GroupError, raised before any draw."""
    n = len(group.factors)
    if n == 1:
        if min_norm > 1:
            raise GroupError(f"a free product of one factor has no element of norm {min_norm} "
                             "or more")
        # all syllables merge into one: redraw until the norm is the length
        while True:
            length = rng.randint(min_norm, max_norm)
            sylls = []
            factor = rng.randrange(n)  # always 0, but a draw of the seed
            for _ in range(length):
                sylls.append((factor, rng.randrange(1, group.factors[factor].order)))
            u = group.element(sylls)
            if u.norm == length:
                return u
    # Nonidentity syllables in alternating factors are a normal form as
    # drawn.  The factor after each syllable, the last one included, is drawn
    # from the others, which keeps each seed's sequence of draws (checked
    # against an element()-based sampler in tests/test_sampling.py).
    symbols, orders = group.codec.symbols, [g.order for g in group.factors]
    others = [[i for i in range(n) if i != f] for f in range(n)]
    length = rng.randint(min_norm, max_norm)
    ids = []
    factor = rng.randrange(n)
    for _ in range(length):
        ids.append(symbols[factor][rng.randrange(1, orders[factor])])
        factor = rng.choice(others[factor])
    return FPElement(group, "".join(ids))


def random_cyclically_reduced(
    rng: random.Random, group: FreeProduct, min_norm: int = 2, max_norm: int = 6
) -> FPElement:
    """Random cyclically reduced element of norm >= 2 (hence infinite order).
    An element of norm below 2 is never one, so a min_norm below 2 is a
    GroupError, raised before any draw."""
    if min_norm < 2:
        raise GroupError(f"a cyclically reduced element of infinite order has norm 2 or more, "
                         f"not {min_norm}")
    while True:
        u = random_reduced(rng, group, min_norm, max_norm)
        s, factor = u.ids, group.codec.factor
        if len(s) >= 2 and factor[s[0]] != factor[s[-1]]:
            return u


def random_noncommuting_conjugator(
    rng: random.Random,
    group: FreeProduct,
    element: FPElement,
    max_norm: int = 4,
    attempts: int = 1000,
) -> FPElement:
    """Random g such that element and g*element*g^-1 do not commute.

    In C2 * C2 the elements of infinite order are the nontrivial powers of
    a b, which form an abelian normal subgroup, so such an element is
    refused before any draw.  A GroupError is also raised when no draw of
    ``attempts`` succeeds.
    """
    if [f.order for f in group.factors] == [2, 2] and element.order() == INFINITE:
        raise GroupError("in C2 * C2 every element of infinite order commutes with all its "
                         "conjugates")
    for _ in range(attempts):
        g = random_reduced(rng, group, 0, max_norm)
        if not element.commutes_with(element.conjugate(g)):
            return g
    raise GroupError(f"could not find a non-commuting conjugate in {attempts} draws")


def random_word_text(
    rng: random.Random, group: FreeProduct, min_len: int = 1, max_len: int = 5
) -> str:
    """Random word over generator labels, e.g. for coefficient words."""
    labels = group.generator_labels
    return " ".join(rng.choice(labels) for _ in range(rng.randint(min_len, max_len)))
