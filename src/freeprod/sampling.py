"""Seeded random generation of normal forms for verification runs.

All samplers take an explicit random.Random so every randomized check in
the test suite and the CLI is reproducible from its seed.  Each draw is
the generator's ``_randbelow`` as randint, randrange and choice call it
(``lo + below(hi - lo + 1)``, ``1 + below(m - 1)``, ``seq[below(len(seq))]``,
a one-element seq included), so a seed gives what those methods gave
(checked in tests/test_sampling.py).  The private samplers return reduced
id strings (see free_product.Codec); the public ones wrap them.
"""

from __future__ import annotations

import random
from typing import Callable

from .errors import GroupError, MixedAmbientError
from .free_product import (
    FPElement,
    FreeProduct,
    _cyclic_split,
    _inverse_syllables,
    _product,
    _seam_merge,
)


def _length(rng: random.Random, lo: int, hi: int) -> tuple[Callable[[int], int], int]:
    """``rng._randbelow`` and a length drawn as ``rng.randint(lo, hi)``
    draws it.  An empty range is randint's own ValueError, raised before
    any draw: ``_randbelow(0)`` would never return."""
    if hi < lo:
        rng.randint(lo, hi)
    below = rng._randbelow
    return below, lo + below(hi - lo + 1)


def _reduced(rng: random.Random, group: FreeProduct, lo: int, hi: int) -> str:
    """The id string of a random element of norm in [lo, hi].

    Nonidentity syllables in alternating factors are a normal form as
    drawn: the length, the first factor, then each syllable and the factor
    after it (the last one included), drawn from the others.  In a
    one-factor group, where all syllables merge into one, the draw is
    repeated until the norm is the length; there a lo above 1 is a
    GroupError, raised before any draw."""
    symbols = group.codec.symbols
    n = len(symbols)
    if n == 1:
        if lo > 1:
            raise GroupError(f"a free product of one factor has no element of norm {lo} or more")
        row = symbols[0]
        while True:
            below, length = _length(rng, lo, hi)
            below(1)  # the factor: always 0, but a draw of the seed
            ids = [row[1 + below(len(row) - 1)] for _ in range(length)]
            if 0 <= length <= 1:
                return "".join(ids)
    below, length = _length(rng, lo, hi)
    factor = below(n)
    ids = []
    for _ in range(length):
        row = symbols[factor]
        ids.append(row[1 + below(len(row) - 1)])
        r = below(n - 1)  # an index into the other factors, in order
        factor = r + (r >= factor)
    return "".join(ids)


def _cyclically_reduced(rng: random.Random, group: FreeProduct, lo: int, hi: int) -> str:
    """The id string of a random cyclically reduced element of norm in
    [lo, hi], lo >= 2: elements are drawn until one is."""
    if lo < 2:
        raise GroupError(f"a cyclically reduced element of infinite order has norm 2 or more, "
                         f"not {lo}")
    factor = group.codec.factor
    while True:
        s = _reduced(rng, group, lo, hi)
        if len(s) >= 2 and factor[s[0]] != factor[s[-1]]:
            return s


def _conjugate(
    rng: random.Random, group: FreeProduct, a: str, max_norm: int = 4, attempts: int = 1000
) -> tuple[str, str]:
    """(g, g a g^-1) for the first of ``attempts`` drawn g whose conjugate
    of a does not commute with a, all id strings.

    In C2 * C2 the elements of infinite order are the nontrivial powers of
    a b, which form an abelian normal subgroup, so such an a is refused
    before any draw."""
    codec = group.codec
    if [g.order for g in group.factors] == [2, 2] and len(_cyclic_split(codec, a)[1]) >= 2:
        raise GroupError("in C2 * C2 every element of infinite order commutes with all its "
                         "conjugates")
    for _ in range(attempts):
        g = _reduced(rng, group, 0, max_norm)
        c = _seam_merge(codec, g, (a, _inverse_syllables(codec, g)))
        if _product(codec, a, c) != _product(codec, c, a):
            return g, c
    raise GroupError(f"could not find a non-commuting conjugate in {attempts} draws")


def random_reduced(
    rng: random.Random, group: FreeProduct, min_norm: int = 0, max_norm: int = 6
) -> FPElement:
    """Random element whose normal form has norm in [min_norm, max_norm].
    Every element of a one-factor free product has norm at most 1, so
    there a min_norm above 1 is a GroupError, raised before any draw."""
    return FPElement(group, _reduced(rng, group, min_norm, max_norm))


def random_cyclically_reduced(
    rng: random.Random, group: FreeProduct, min_norm: int = 2, max_norm: int = 6
) -> FPElement:
    """Random cyclically reduced element of norm >= 2 (hence infinite order).
    An element of norm below 2 is never one, so a min_norm below 2 is a
    GroupError, raised before any draw."""
    return FPElement(group, _cyclically_reduced(rng, group, min_norm, max_norm))


def random_noncommuting_conjugator(
    rng: random.Random,
    group: FreeProduct,
    element: FPElement,
    max_norm: int = 4,
    attempts: int = 1000,
) -> FPElement:
    """Random g such that element and g*element*g^-1 do not commute.

    In C2 * C2 an element of infinite order is refused before any draw (see
    _conjugate).  A GroupError is also raised when no draw of ``attempts``
    succeeds.
    """
    if element.group is not group:
        raise MixedAmbientError("elements live in different ambient groups")
    return FPElement(group, _conjugate(rng, group, element.ids, max_norm, attempts)[0])


def random_word_text(
    rng: random.Random, group: FreeProduct, min_len: int = 1, max_len: int = 5
) -> str:
    """Random word over generator labels, e.g. for coefficient words."""
    labels = group.generator_labels
    below, length = _length(rng, min_len, max_len)
    return " ".join([labels[below(len(labels))] for _ in range(length)])
