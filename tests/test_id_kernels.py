"""The id-string kernels against the tuple kernels (tuple_kernels.py).

Each group has a different alphabet: p23 has 3 syllable ids, example1
(S3 * Z2) 6, d150 (D150 * Z2) 300, so its normal forms hold code points
above 255, and z6z2's first factor is a direct product.  Pieces are drawn
against the product so far, so that every kind of seam occurs: no
cancellation, a one-syllable merge, partial cancellation followed by a
merge, full cancellation of the piece or of everything before it, and
empty pieces.
"""

from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import tuple_kernels as tk
from freeprod import free_product, specfiles
from freeprod.errors import PowerTooLargeError
from freeprod.finite_group import direct_product, make_cyclic
from freeprod.free_product import (
    FreeProduct,
    _centralizer,
    _conjugator,
    _cyclic_split,
    _inverse_syllables,
    _is_rotation,
    _power_norm,
    _product,
    _seam_merge,
    _split_power,
    power_syllables,
)

CASES = Path(__file__).resolve().parent.parent / "cases"


def _case(name: str) -> FreeProduct:
    return specfiles.parse_group_spec((CASES / name).read_text())


GROUPS = {
    "p23": _case("p23.grp"),
    "example1": _case("example1.grp"),
    "d150": _case("d150.grp"),
    "z6z2": FreeProduct([direct_product(make_cyclic(2, "a"), make_cyclic(3, "b")),
                         make_cyclic(2, "c")]),
}
groups = pytest.mark.parametrize("group", list(GROUPS.values()), ids=list(GROUPS))


def encoder(group):
    """The function from (factor, element) pairs to their id string."""
    symbols = group.codec.symbols
    return lambda sylls: "".join([symbols[f][e] for f, e in sylls])


def test_codec_numbers_every_syllable_once():
    for group in GROUPS.values():
        pairs = [(f, e) for f, g in enumerate(group.factors) for e in range(1, g.order)]
        ids = encoder(group)(pairs)
        assert sorted(map(ord, ids)) == list(range(len(pairs)))
        assert group.codec.decode(ids) == tuple(pairs)
    assert max(map(ord, encoder(GROUPS["d150"])([(0, 299)]))) > 255


@st.composite
def runs(draw, group, max_len, avoid=None, min_len=0):
    """A reduced syllable tuple of ``min_len`` to ``max_len`` syllables
    whose first syllable is not in factor ``avoid``."""
    n = len(group.factors)
    out = []
    for _ in range(draw(st.integers(min_len, max_len))):
        last = out[-1][0] if out else avoid
        choices = [f for f in range(n) if f != last]
        if not choices:
            break
        f = draw(st.sampled_from(choices))
        out.append((f, draw(st.integers(1, group.factors[f].order - 1))))
    return tuple(out)


@st.composite
def pieces_against(draw, group, out):
    """A reduced piece to merge onto ``out``: the inverse of out's last k
    syllables (k = 0 to all of them), then a run that may cancel or merge
    further; or a first syllable that merges with out's last one."""
    factors = group.factors
    if out and draw(st.booleans()):
        f, e = out[-1]
        merging = [x for x in range(1, factors[f].order) if factors[f].table[e][x]]
        if merging:
            head = ((f, draw(st.sampled_from(merging))),)
            return head + draw(runs(group, 3, avoid=f))
    k = draw(st.integers(0, len(out)))
    head = tk.inverse(factors, out[len(out) - k:])
    return head + draw(runs(group, 4, avoid=head[-1][0] if head else None))


@groups
@pytest.mark.parametrize("tail", [free_product.SEAM_TAIL, 1, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_seam_merge_product_and_inverse_match_the_tuple_kernels(group, tail, data):
    # a short SEAM_TAIL sets the output aside, and takes it back, at most seams
    with patch.object(free_product, "SEAM_TAIL", tail):
        check_seam_merge(group, data)


def check_seam_merge(group, data):
    codec, factors, ids = group.codec, group.factors, encoder(group)
    out = data.draw(runs(group, 10), label="out")
    pieces, value = [], out
    for _ in range(data.draw(st.integers(0, 4), label="pieces")):
        piece = data.draw(pieces_against(group, value), label="piece")
        pieces.append(piece)
        value = tk.product(factors, value, piece)
    encoded = [ids(p) for p in pieces]
    assert _seam_merge(codec, ids(out), encoded) == ids(value)
    assert _seam_merge(codec, "", [ids(out), *encoded]) == ids(value)
    for p in pieces:
        assert _product(codec, ids(out), ids(p)) == ids(tk.product(factors, out, p))
        assert _inverse_syllables(codec, ids(p)) == ids(tk.inverse(factors, p))


@st.composite
def conjugates(draw, group, max_conjugator=6):
    """u * core * u^-1 reduced, for a run u and a core of norm 0, 1 or >= 2
    (cyclically reduced or not)."""
    factors = group.factors
    u = draw(runs(group, max_conjugator))
    lo, hi = draw(st.sampled_from([(0, 0), (1, 1), (2, 6)]))
    core = draw(runs(group, hi, min_len=lo))
    return tk.product(factors, tk.product(factors, u, core), tk.inverse(factors, u))


@groups
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cyclic_split_and_power_match_the_tuple_kernels(group, data):
    codec, factors, ids = group.codec, group.factors, encoder(group)
    s = data.draw(conjugates(group), label="s")
    i, core = tk.cyclic_split(factors, s)
    assert _cyclic_split(codec, ids(s)) == (i, ids(core))
    # huge exponents: a factor power for a norm-1 core, the cap otherwise
    huge = st.sampled_from([10**15 + 1, -(10**15) - 1, 6 * 10**14])
    ks = data.draw(st.lists(st.one_of(st.integers(-8, 8), huge), min_size=1, max_size=4),
                   label="k")
    for k in ks:
        if k >= 1 and core:
            norm = tk.power_norm(factors, len(s), core, k)
            assert _power_norm(codec, len(s), ids(core), k) == norm
        try:
            expected = ids(tk.power(factors, s, k))
        except PowerTooLargeError:
            with pytest.raises(PowerTooLargeError):
                power_syllables(codec, ids(s), k)
        else:
            assert power_syllables(codec, ids(s), k) == expected


@st.composite
def merged_conjugates(draw, group, max_conjugator=4):
    """u * (x w y) * u^-1 reduced, for x, y in one factor with y x != 1 and
    a run w that neither starts nor ends in that factor: its cyclic split
    merges y x into the core's last syllable, unless u cancels into x."""
    factors = group.factors
    f = draw(st.sampled_from([f for f, g in enumerate(factors) if g.order > 2]))
    table, order = factors[f].table, factors[f].order
    x = draw(st.integers(1, order - 1))
    y = draw(st.integers(1, order - 1).filter(lambda y: table[y][x]))
    w = draw(runs(group, 5, avoid=f, min_len=1))
    if w[-1][0] == f:
        w = w[:-1]
    u = draw(runs(group, max_conjugator))
    core = ((f, x),) + w + ((f, y),)
    return tk.product(factors, tk.product(factors, u, core), tk.inverse(factors, u))


@groups
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_power_matches_power_and_its_split(group, data):
    # u^k and its split built from u's split, for cores of norm 0, 1 and
    # >= 2, merged or not, and k of either sign: equal to power_syllables,
    # to the split of that power and to the tuple kernels; and the
    # conjugacy test given the power's split decides as it does without
    codec, factors, ids = group.codec, group.factors, encoder(group)
    s = data.draw(st.one_of(conjugates(group), merged_conjugates(group)), label="s")
    split = _cyclic_split(codec, ids(s))
    exponents = st.integers(1, 60).flatmap(lambda k: st.sampled_from([k, -k]))
    ks = data.draw(st.lists(exponents, min_size=1, max_size=4), label="k")
    g, j = data.draw(runs(group, 3), label="g"), data.draw(st.integers(0, 10**6), label="j")
    other = data.draw(conjugates(group, 4), label="t")
    for k in ks:
        power = tk.power(factors, s, k)
        i, core = tk.cyclic_split(factors, power)
        got, got_split = _split_power(codec, ids(s), split, k)
        assert got == power_syllables(codec, ids(s), k) == ids(power)
        assert got_split == _cyclic_split(codec, got) == (i, ids(core))
        j %= max(len(core), 1)
        rotated = tk.product(factors, tk.product(factors, power[:i], core[j:] + core[:j]),
                             tk.inverse(factors, power[:i]))
        for t in (power, tk.product(factors, tk.product(factors, g, rotated),
                                    tk.inverse(factors, g)), other):
            expected = tk.conjugator(factors, power, t)
            expected = None if expected is None else ids(expected)
            with_split = _conjugator(codec, got, ids(t), got_split)
            assert with_split == _conjugator(codec, got, ids(t)) == expected


@groups
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conjugator_and_centralizer_match_the_tuple_kernels(group, data):
    codec, factors, ids = group.codec, group.factors, encoder(group)
    b = data.draw(conjugates(group, 4), label="b")
    g = data.draw(runs(group, 4), label="g")
    i, core = tk.cyclic_split(factors, b)
    k = data.draw(st.integers(0, max(len(core) - 1, 0)), label="rotation")
    rotated = tk.product(factors, tk.product(factors, b[:i], core[k:] + core[:k]),
                         tk.inverse(factors, b[:i]))
    targets = [
        b,
        tk.product(factors, tk.product(factors, g, b), tk.inverse(factors, g)),
        tk.product(factors, tk.product(factors, g, rotated), tk.inverse(factors, g)),
        data.draw(conjugates(group, 4), label="t"),
    ]
    for t in targets:
        expected = tk.conjugator(factors, b, t)
        got = _conjugator(codec, ids(b), ids(t))
        assert got == (None if expected is None else ids(expected))
        other = tk.cyclic_split(factors, t)[1]
        if len(core) >= 1 and len(other) == len(core):
            rotation = _is_rotation(ids(core), ids(other))
            assert rotation == tk.is_rotation(core, other)
    if b:
        bound = data.draw(st.integers(0, 12), label="bound")
        expected = [ids(z) for z in tk.centralizer(factors, b, bound)]
        assert _centralizer(codec, ids(b), _cyclic_split(codec, ids(b)), bound) == expected
