"""Canonical normal forms and algebra in a free product of finite groups.

An element is a reduced alternating sequence of syllables; a syllable is a
pair (factor_index, element_id) with a nonidentity element.  The reduced
sequence is the unique canonical representative, so syllable-sequence
equality is the equality oracle for the whole group.

Each FreeProduct numbers the syllables of all its factors 0..A-1 (see
Codec), and a normal form is stored as one immutable ``str`` whose code
points are those syllable ids.  Inverse, concatenation, slicing, equality
and hashing of normal forms then run in C; ``FPElement.syllables`` gives the
(factor, element) pairs as a tuple, built on demand.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from ._record import _Record, _set
from .errors import (
    BadFactorIndexError,
    DuplicateLabelError,
    GroupTooLargeError,
    MixedAmbientError,
    NotASubgroupError,
    OrderTooSmallError,
    PowerTooLargeError,
    TrivialSubgroupError,
    UnknownGeneratorError,
)
from .finite_group import FiniteGroup

#: Returned by FPElement.order() for elements of infinite order.
INFINITE = math.inf

#: A syllable is a plain (factor_index, element_id) pair.
Syllable = tuple[int, int]

#: Largest normal form, in syllables, that power_syllables builds; a larger
#: power raises PowerTooLargeError before anything is allocated.
MAX_POWER_SYLLABLES = 10**7


class Codec:
    """The syllable ids of one free product, built in O(A) for A ids.

    The nonidentity elements of factor 0 get ids 0.., then those of factor
    1, and so on; a syllable is the one-character string ``chr(id)``, and a
    normal form is the string of its syllables.  ``str`` holds 0x110000 ids
    (``bytes`` would stop at 256); more are refused.  For a syllable x:

    - ``factor[x]`` and ``element[x]`` are its factor index and element id;
    - ``symbols[f][e]`` is the syllable (f, e), and ``symbols[f][0]`` is
      ``""``, so a product read from ``tables[f]``, the factor's own Cayley
      table, is a syllable or nothing;
    - ``inverse`` is the ``str.translate`` table to each syllable's inverse.

    ``texts`` maps each syllable to its rendering, its factor element's
    text, rendered the first time it is looked up.
    """

    __slots__ = ("factors", "factor", "element", "symbols", "tables", "inverse", "texts")

    def __init__(self, factors: Sequence[FiniteGroup]):
        count = sum(g.order - 1 for g in factors)
        if count > 0x110000:
            raise GroupTooLargeError(
                f"{count:,} syllable ids, more than the {0x110000:,} a normal form can hold"
            )
        self.factors = factors
        self.factor: dict[str, int] = {}
        self.element: dict[str, int] = {}
        self.symbols: list[list[str]] = []
        self.tables = [g.table for g in factors]
        for f, g in enumerate(factors):
            first = len(self.factor)  # the id of (f, 1)
            row = [""] + [chr(first + e - 1) for e in range(1, g.order)]
            self.symbols.append(row)
            for e, x in enumerate(row[1:], 1):
                self.factor[x] = f
                self.element[x] = e
        self.inverse = str.maketrans({
            x: self.symbols[f][factors[f].inverses[self.element[x]]]
            for x, f in self.factor.items()
        })
        self.texts = _Texts(self)

    def decode(self, ids: str) -> tuple[Syllable, ...]:
        """The (factor, element) pairs of an id string."""
        factor, element = self.factor, self.element
        return tuple([(factor[x], element[x]) for x in ids])


class _Texts(dict):
    """Syllable -> text for one Codec; a missing text is rendered and kept.
    It holds the codec's maps, not the codec, so the two form no cycle and
    are freed as soon as their group is."""

    __slots__ = ("factors", "factor", "element")

    def __init__(self, codec: Codec):
        self.factors, self.factor, self.element = codec.factors, codec.factor, codec.element

    def __missing__(self, x: str) -> str:
        text = self[x] = self.factors[self.factor[x]].element_text(self.element[x])
        return text


#: Syllables per block of _render.  A form whose period divides it repeats
#: block by block; 840 = lcm(1, ..., 8), so every period up to 8 does.
RENDER_BLOCK = 840


def _render(codec: Codec, ids: str) -> str:
    """The texts of the syllables of ``ids``, joined by single spaces.

    ``ids`` is walked in blocks of RENDER_BLOCK syllables.  Where the block
    ending at i repeats at i (one str.startswith), its texts are looked up
    once, and its text serves every consecutive copy and the part of one
    more copy that agrees with it; every other stretch is one " ".join.
    A block boundary falls between syllables, and each syllable renders
    alone, so the text is the same as joining syllable by syllable.
    """
    texts = codec.texts
    n, size = len(ids), RENDER_BLOCK
    out = []
    start, i = 0, size  # ids[:start] is rendered into out
    while i + size <= n:
        block = ids[i - size:i]
        if not ids.startswith(block, i):
            i += size
            continue
        if start < i - size:
            out.append(" ".join(map(texts.__getitem__, ids[start:i - size])))
        block_texts = list(map(texts.__getitem__, block))
        copies, i = 2, i + size
        while ids.startswith(block, i):
            copies, i = copies + 1, i + size
        out.append(" ".join([" ".join(block_texts)] * copies))
        # the copy at i agrees with the block on its first r < size syllables
        r, hi = 0, size
        while hi - r > 1:
            mid = (r + hi) // 2
            if ids.startswith(block[:mid], i):
                r = mid
            else:
                hi = mid
        if r:
            out.append(" ".join(block_texts[:r]))
        start = i + r
        i = start + size
    if start < n:
        out.append(" ".join(map(texts.__getitem__, ids[start:])))
    return " ".join(out)


def _inverse_syllables(codec: Codec, s: str) -> str:
    return s.translate(codec.inverse)[::-1]


def _cancelled(s: str, q: str) -> int:
    """The largest k with s ending in q[len(q) - k:], given that k >= 1
    holds and k = len(q) does not: galloping, then bisection, over slice
    comparisons.  The property is monotone in k when q[len(q) - k:] is the
    inverse of the first k syllables of a reduced sequence."""
    h = len(q)
    lo, step = 1, 2
    while step < h and s.endswith(q[h - step:]):
        lo, step = step, 2 * step
    hi = min(step, h)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s.endswith(q[h - mid:]):
            lo = mid
        else:
            hi = mid
    return lo


#: Longest end of the output that _seam_merge copies to change it; the
#: rest waits, uncopied, until cancellation reaches it.
SEAM_TAIL = 512


def _seam_merge(codec: Codec, out: str, pieces: Iterable[str]) -> str:
    """The normal form of ``out`` followed by ``pieces``, all reduced id
    strings.

    Both sides of each seam are reduced, so cancellation happens only at
    the seam (the normal form theorem, Lyndon-Schupp, ch. IV, sec. 1): two
    syllables of different factors join; two of one factor whose product is
    not 1 merge into one; otherwise the k syllables of ``out`` that cancel
    against the piece's first k are found by slice comparisons with the
    piece's inverse (the whole piece first), and the syllables left on
    either side of them meet at a new seam.

    A string is changed by copying it, so an output longer than SEAM_TAIL
    is set aside as a view (string, end) before its end is changed or a
    piece is joined to it, and only its last SEAM_TAIL syllables are
    copied.  So each seam costs at most SEAM_TAIL plus the piece's length,
    and a merge of many pieces stays linear in its input.
    """
    factor, element, symbols, tables = codec.factor, codec.element, codec.symbols, codec.tables
    inverse = codec.inverse
    views: list[tuple[str, int]] = []  # the output before ``out``: s[:end] each
    for p in pieces:
        while p:
            if not out:
                if not views:
                    out = p
                    break
                s, end = views.pop()
                if end > SEAM_TAIL:
                    views.append((s, end - SEAM_TAIL))
                out = s[max(end - SEAM_TAIL, 0):end]
                continue
            x, y = out[-1], p[0]
            f = factor[x]
            if f != factor[y]:
                if len(out) > SEAM_TAIL:
                    views.append((out, len(out)))
                    out = p
                else:
                    out += p
                break
            if len(out) > SEAM_TAIL:
                views.append((out, len(out) - SEAM_TAIL))
                out = out[-SEAM_TAIL:]
            m = symbols[f][tables[f][element[x]][element[y]]]
            if m:
                out = out[:-1] + m + p[1:]
                break
            h = min(len(p), len(out))
            q = p[:h].translate(inverse)[::-1]  # q[h - k:] is the inverse of p[:k]
            k = h if out.endswith(q) else _cancelled(out, q)
            out, p = out[:-k], p[k:]
    if views:
        views.append((out, len(out)))
        return "".join([s[:end] for s, end in views])
    return out


def _product(codec: Codec, a: str, b: str) -> str:
    """Normal form of a * b for reduced id strings: plain concatenation
    unless the seam joins two syllables of one factor."""
    if a and b and codec.factor[a[-1]] == codec.factor[b[0]]:
        return _seam_merge(codec, a, (b,))
    return a + b


def _cyclic_split(codec: Codec, s: str) -> tuple[int, str]:
    """(i, core) with s = c * core * c^-1 for the conjugator c = s[:i] and a
    cyclically reduced core; see FPElement.cyclic_reduce.  The syllables
    that cancel are the longest prefix whose inverse ends s, found by slice
    comparisons; the next pair, when it shares a factor, merges into the
    core's last syllable."""
    n = len(s)
    if n < 2:
        return 0, s
    factor = codec.factor
    x, y = s[0], s[-1]
    f = factor[x]
    if f != factor[y]:
        return 0, s
    element, symbols, tables = codec.element, codec.symbols, codec.tables
    m = symbols[f][tables[f][element[y]][element[x]]]
    if m:
        return 1, s[1:-1] + m
    h = n // 2
    q = s[:h].translate(codec.inverse)[::-1]
    i = h if s.endswith(q) else _cancelled(s, q)
    j = n - i
    if j - i >= 2:
        x, y = s[i], s[j - 1]
        f = factor[x]
        if f == factor[y]:
            # The merged syllable ends the core; the next front syllable
            # lies in another factor, so the scan stops here.
            return i + 1, s[i + 1:j - 1] + symbols[f][tables[f][element[y]][element[x]]]
    return i, s[i:j]


def power_syllables(codec: Codec, s: str, k: int) -> str:
    """Normal form of u^k for a reduced id string u: its cyclic split,
    then _split_power.  The output size is checked against
    MAX_POWER_SYLLABLES before the result is built."""
    return _split_power(codec, s, _cyclic_split(codec, s), k)[0]


def _split_power(
    codec: Codec, s: str, split: tuple[int, str], k: int
) -> tuple[str, tuple[int, str]]:
    """u^k and its cyclic split, for a reduced id string u = s whose cyclic
    split (see _cyclic_split) is ``split`` = (i, core): u = c * core * c^-1
    with c = s[:i], so u^k = c * core^k * c^-1, and
    - core of norm 0, or k = 0: u^k is the identity, split (0, "");
    - core (f, e) of norm 1: u^k replaces the syllable s[i] by e^k, which is
      its core, and is the identity when e^k = 1;
    - core of norm >= 2, k >= 1: the core is cyclically reduced, so its
      copies do not cancel, and u^k splits as (i, core * k).  s is s[:i],
      the core and its last i syllables, or, when the split merged a
      syllable, s[:i], core[:-1] and its last i syllables, the core's last
      syllable being the product of the first of those and s[i - 1]; u^k
      is the same with core * k in place of the core;
    - k < 0: u^k is (u^-1)^-k.  u^-1 = s^-1 splits as (i, core^-1), read
      off s^-1 as its middle: s^-1[i:len(s) - i], followed, when the split
      merged a syllable, by that syllable's inverse (so core^-1 rotated by
      one syllable, with the merged syllable last, as _cyclic_split leaves
      it).
    So u^-1 is never split.  The output size is checked against
    MAX_POWER_SYLLABLES before the result is built."""
    i, core = split
    n = len(core)
    if n == 1:
        f = codec.factor[core]
        y = codec.factors[f].power(codec.element[core], k)
        if y:
            core = codec.symbols[f][y]
            return s[:i] + core + s[i + 1:], (i, core)
        return "", (0, "")
    if not n or not k:
        return "", (0, "")
    merged = n + 2 * i - len(s)  # 1 when the split merged a syllable, else 0
    if k < 0:
        s, k = _inverse_syllables(codec, s), -k
        core = s[i:len(s) - i] + (core[-1].translate(codec.inverse) if merged else "")
    size = len(s) + n * (k - 1)
    if size > MAX_POWER_SYLLABLES:
        raise PowerTooLargeError(
            f"power has {size} syllables, above the cap of {MAX_POWER_SYLLABLES}"
        )
    core *= k
    if not i:  # s is its own core
        return core, (0, core)
    return s[:i] + (core[:-1] if merged else core) + s[len(s) - i:], (i, core)


def _is_rotation(a: str, b: str) -> int | None:
    """The least k with b == a[k:] + a[:k] (a and b nonempty and equally
    long), or None: str.find of b in a + a, in C."""
    k = (a + a[:-1]).find(b)
    return None if k < 0 else k


def _conjugator(
    codec: Codec, b: str, t: str, split: tuple[int, str] | None = None
) -> str | None:
    """Normal form of some c with c * b * c^-1 = t, or None when b and t
    are not conjugate.

    The conjugacy theorem for free products (Lyndon-Schupp, Combinatorial
    Group Theory, ch. IV, sec. 1): with b = u * core_b * u^-1 and
    t = v * core_t * v^-1 their cyclic reductions, the cores must have one
    norm, and
    - norm 0: b = t = 1, and c = 1;
    - norm 1: the cores lie in one factor, where h * core_b * h^-1 = core_t
      for some h, and c = v * h * u^-1;
    - norm >= 2: core_t = core_b[k:] + core_b[:k] = p^-1 * core_b * p with
      p = core_b[:k], and c = v * p^-1 * u^-1.
    When b == t, c = 1 is returned at once, without the cyclic splits.
    ``split``, when given, is b's cyclic split, so that only t is split;
    cores of different norms end the test as soon as t is split.
    """
    if b == t:
        return ""
    j, core_t = _cyclic_split(codec, t)
    i, core_b = _cyclic_split(codec, b) if split is None else split
    n = len(core_b)
    if n != len(core_t):
        return None
    if n == 0:
        return ""
    if n == 1:
        f, element = codec.factor[core_b], codec.element
        h = (codec.factors[f].conjugator(element[core_b], element[core_t])
             if f == codec.factor[core_t] else None)
        if h is None:
            return None
        middle = codec.symbols[f][h]
    else:
        k = _is_rotation(core_b, core_t)
        if k is None:
            return None
        middle = _inverse_syllables(codec, core_b[:k])
    return _seam_merge(codec, t[:j], (middle, _inverse_syllables(codec, b[:i])))


def _centralizer(codec: Codec, b: str, split: tuple[int, str], bound: int) -> list[str]:
    """Normal forms of the elements of norm <= bound in C(b), the
    centralizer of b != 1, whose cyclic split is ``split``.

    With b = u * core * u^-1 its cyclic reduction, C(b) = u * C(core) * u^-1
    (Lyndon-Schupp, ch. IV, sec. 1; Magnus-Karrass-Solitar, sec. 4.1):
    - core (f, x) of norm 1: C(core) = C_A(x), the centralizer of x in its
      factor A, and each element is u + (f, z) + u^-1, already reduced;
    - core of norm >= 2: C(core) is generated by the primitive root rho of
      the core (core = rho^m with rho as short as possible), so C(b) is
      generated by r = u * rho * u^-1, and its elements are the powers
      r^k, whose norm grows with |k|.  r splits as (i, rho), so each r^k
      is built from that split (see _split_power), and r is not split.
    """
    i, core = split
    if len(core) == 1:
        if 2 * i + 1 > bound:
            return [""]
        f = codec.factor[core]
        symbols = codec.symbols[f]
        u, u_inv = b[:i], b[i + 1:]
        return [u + symbols[z] + u_inv if z else ""
                for z in codec.factors[f].centralizer(codec.element[core])]
    n = len(core)
    # the least rotation that fixes the core is the length of its root
    period = (core + core).find(core, 1)
    # b is u, then the core (its last syllable merged into the next one when
    # the cyclic reduction merged one), then the last len(u) syllables.
    # Dropping m - 1 copies of rho from just before those leaves r.
    end = len(b) - i
    r = b[: end - (n - period)] + b[end:]
    root = (i, core[:period])
    out = [""]
    k, rk = 1, r
    while len(rk) <= bound:
        out += [rk, _inverse_syllables(codec, rk)]
        k += 1
        rk = _split_power(codec, r, root, k)[0]
    return out


class FreeProduct:
    """Ambient group G = G_0 * ... * G_{n-1} with a generator namespace.

    Generator labels must be unique across all factors; each label denotes
    one element of one factor.  ``codec`` numbers the syllables of all
    factors (see Codec).
    """

    __slots__ = ("factors", "generator_map", "name", "codec", "__weakref__")

    def __init__(self, factors: Sequence[FiniteGroup], name: str | None = None):
        factors = tuple(factors)
        if not factors:
            raise BadFactorIndexError("a free product needs at least one factor")
        for g in factors:
            if g.order < 2:
                raise OrderTooSmallError(f"factor {g.name} is trivial")
        gen_map: dict[str, tuple[int, int]] = {}
        for i, g in enumerate(factors):
            for label, e in g.generators:
                if label in gen_map:
                    raise DuplicateLabelError(f"label {label!r} used by two factors")
                gen_map[label] = (i, e)
        self.factors = factors
        self.generator_map = gen_map
        self.name = name or " * ".join(g.name for g in factors)
        self.codec = Codec(factors)

    def __repr__(self) -> str:
        return f"FreeProduct({self.name!r})"

    @property
    def generator_labels(self) -> tuple[str, ...]:
        return tuple(self.generator_map)

    def identity(self) -> FPElement:
        return FPElement(self, "")

    def generator(self, label: str) -> FPElement:
        if label not in self.generator_map:
            raise UnknownGeneratorError(f"unknown generator {label!r} in {self.name}")
        i, e = self.generator_map[label]
        return FPElement(self, self.codec.symbols[i][e])

    def factor_element(self, factor: int, elem: int) -> FPElement:
        self._check_factor(factor)
        self.factors[factor].check_element(elem)
        return FPElement(self, self.codec.symbols[factor][elem])

    def element(self, pairs: Iterable[tuple[int, int]]) -> FPElement:
        """Normal form of a raw syllable sequence.

        Identity syllables are dropped and the rest are merged in one
        left-to-right pass, which gives the same result as merging adjacent
        same-factor syllables until nothing changes.
        """
        factors, symbols = self.factors, self.codec.symbols

        def pieces():
            for f, e in pairs:
                self._check_factor(f)
                factors[f].check_element(e)
                yield symbols[f][e]

        return FPElement(self, _seam_merge(self.codec, "", pieces()))

    def _check_factor(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < len(self.factors):
            raise BadFactorIndexError(f"factor {i!r} out of range")


class FPElement:
    """An element of a FreeProduct in canonical normal form.

    Immutable; construct through FreeProduct methods or the arithmetic
    operators.  ``ids`` is the normal form as a string of syllable ids (see
    Codec); ``syllables`` is the same as (factor, element) pairs.
    """

    __slots__ = ("group", "ids")

    def __init__(self, group: FreeProduct, ids: str):
        self.group = group
        self.ids = ids

    # -- equality is normal-form equality within one ambient group --------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FPElement):
            return NotImplemented
        return self.group is other.group and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    @property
    def syllables(self) -> tuple[Syllable, ...]:
        """The normal form as (factor_index, element_id) pairs, built on
        each access."""
        return self.group.codec.decode(self.ids)

    @property
    def norm(self) -> int:
        """Syllable length of the normal form; the identity has norm 0."""
        return len(self.ids)

    @property
    def is_identity(self) -> bool:
        return not self.ids

    def _require_same_group(self, other: FPElement) -> None:
        if not isinstance(other, FPElement) or other.group is not self.group:
            raise MixedAmbientError("elements live in different ambient groups")

    def __mul__(self, other: FPElement) -> FPElement:
        if not isinstance(other, FPElement):
            return NotImplemented
        self._require_same_group(other)
        return FPElement(self.group, _product(self.group.codec, self.ids, other.ids))

    def inverse(self) -> FPElement:
        return FPElement(self.group, _inverse_syllables(self.group.codec, self.ids))

    def __invert__(self) -> FPElement:
        return self.inverse()

    def power(self, k: int) -> FPElement:
        """k-th power from the cyclic reduction (see power_syllables);
        PowerTooLargeError when the result would exceed MAX_POWER_SYLLABLES."""
        return FPElement(self.group, power_syllables(self.group.codec, self.ids, k))

    def __pow__(self, k: int) -> FPElement:
        return self.power(k)

    def conjugate(self, g: FPElement) -> FPElement:
        """g * self * g^-1 (the value written self^g)."""
        self._require_same_group(g)
        return g * self * g.inverse()

    def commutes_with(self, other: FPElement) -> bool:
        return self * other == other * self

    def cyclic_reduce(self) -> CyclicReduction:
        """Split as conjugator * core * conjugator^-1 with the core
        cyclically reduced.

        Deterministic: while the first and last syllables share a factor,
        the first syllable is conjugated off the front (merging it into the
        tail).  Any conjugator differing by a power of the core would be
        equally valid; this one is pinned so results are reproducible.

        Linear time: the conjugator is the longest prefix whose inverse ends
        the normal form, found by slice comparisons, and the core is the
        middle, plus the merged syllable when the last pair merges.
        """
        i, core = _cyclic_split(self.group.codec, self.ids)
        return CyclicReduction(FPElement(self.group, self.ids[:i]), FPElement(self.group, core))

    def conjugator(self, other: FPElement) -> FPElement | None:
        """Some g with g * self * g^-1 = other, or None when there is none.

        Exact, by the conjugacy theorem for free products (Lyndon-Schupp,
        Combinatorial Group Theory, ch. IV, sec. 1): every element is
        conjugate to its cyclic core; cores of norm 1 are conjugate iff they
        lie in one factor and are conjugate there; cyclically reduced
        elements of norm >= 2 are conjugate iff one syllable sequence is a
        cyclic rotation of the other, which a linear-time string search of
        one core in the other core doubled decides.  g is built from the two
        cyclic reductions and the factor conjugator or rotation offset.
        """
        self._require_same_group(other)
        c = _conjugator(self.group.codec, self.ids, other.ids)
        return None if c is None else FPElement(self.group, c)

    def is_conjugate(self, other: FPElement) -> bool:
        """Whether other = g * self * g^-1 for some g in the ambient group:
        whether conjugator finds one."""
        return self.conjugator(other) is not None

    def order(self) -> int | float:
        """Order of the element; INFINITE when the cyclic core has norm >= 2."""
        return self.cyclic_reduce().order()

    # -- rendering ---------------------------------------------------------

    def as_word(self) -> str:
        """Generator-power word, e.g. ``a b^2 a``; the identity is ``1``.

        Reparses to the identical normal form (each label binds to one
        factor, so the rendering is unambiguous).  A run of equal labels
        never crosses a syllable boundary, so each syllable renders alone.
        A form longer than one block is rendered block by block (see
        _render); a shorter one holds no repeat and is one join.
        """
        ids = self.ids
        if not ids:
            return "1"
        if len(ids) > RENDER_BLOCK:
            return _render(self.group.codec, ids)
        return " ".join(map(self.group.codec.texts.__getitem__, ids))

    def __str__(self) -> str:
        return self.as_word()

    def __repr__(self) -> str:
        return f"<{self.as_word()}>"


class CyclicReduction(_Record):
    """Result of cyclic reduction: original = conjugator * core * conjugator^-1."""

    __slots__ = ("conjugator", "core")

    def __init__(self, conjugator: FPElement, core: FPElement):
        _set(self, "conjugator", conjugator)
        _set(self, "core", core)

    def rebuild(self) -> FPElement:
        return self.conjugator * self.core * self.conjugator.inverse()

    def order(self) -> int | float:
        """Order of the original, read from the core: 1 for norm 0, the
        order of the syllable in its factor for norm 1, else INFINITE."""
        core = self.core
        if core.norm == 0:
            return 1
        if core.norm == 1:
            codec = core.group.codec
            return core.group.factors[codec.factor[core.ids]].element_order(codec.element[core.ids])
        return INFINITE


class Part(NamedTuple):
    """One part of a subgroup decomposition or of a ball: the subgroup
    ``subgroup`` (element ids) of ``factors[factor]``, conjugated by the
    ambient element ``conjugator``.  A plain (factor, subgroup, conjugator)
    triple works wherever a Part is expected."""

    factor: int
    subgroup: tuple[int, ...]
    conjugator: FPElement

    @classmethod
    def of(
        cls, group: FreeProduct, factor: int, gens: Iterable[int], conj: FPElement | None = None
    ) -> Part:
        """The subgroup generated by ``gens`` in factor ``factor`` (range
        checked), conjugated by ``conj``, the identity by default."""
        group._check_factor(factor)
        sub = group.factors[factor].generated_subgroup(gens)
        return cls(factor, sub, conj if conj is not None else group.identity())


def _check_part(group: FreeProduct, part: Part) -> None:
    """Raise the first invariant ``part`` breaks: its factor is in range,
    its subgroup is closed and nontrivial, and its conjugator lies in
    ``group``."""
    factor, subgroup, conj = part
    group._check_factor(factor)
    if not group.factors[factor].is_subgroup(subgroup):
        raise NotASubgroupError(f"{sorted(set(subgroup))} is not a subgroup of factor {factor}")
    if len(set(subgroup)) < 2:
        raise TrivialSubgroupError("subgroup is trivial")
    if not isinstance(conj, FPElement) or conj.group is not group:
        raise MixedAmbientError("conjugator not in the ambient group")


def _part_syllables(group: FreeProduct, parts: Sequence[Part]) -> list[list[str]]:
    """Check each part (see _check_part) and return, per part, the normal
    forms (id strings) of its nonidentity elements
    conjugator * h * conjugator^-1."""
    part_elems: list[list[str]] = []
    for part in parts:
        _check_part(group, part)
        factor, subgroup, conj = part
        cinv = conj.inverse()
        part_elems.append([
            (conj * group.factor_element(factor, h) * cinv).ids
            for h in sorted(set(subgroup)) if h != 0
        ])
    return part_elems


def enumerate_ball(
    group: FreeProduct,
    parts: Sequence[Part],
    depth: int,
) -> list[FPElement]:
    """All products of up to ``depth`` nontrivial part elements.

    Each part is a Part (factor index, subgroup id set, conjugator); its
    elements are conjugator * h * conjugator^-1 for nonidentity h.
    Consecutive elements of a product must come from different parts.
    Results are normal forms, deduplicated (first occurrence wins) and
    returned in length-lexicographic order of the (part, element) index
    sequences, so the output is correct even when the parts fail to
    generate an actual free product.
    """
    return [FPElement(group, v) for v in _ball_elements(group, parts, depth)]


def _ball_elements(
    group: FreeProduct,
    parts: Sequence[Part],
    depth: int,
) -> Iterator[str]:
    """The normal forms (id strings) of ``enumerate_ball(group, parts,
    depth)`` in its order, each formed when the iteration reaches it.

    A product joins the next level only when it is a new element.  That
    keeps the order: a value v formed again was first formed, earlier, as a
    product w * s ending in an element s of some part p.  Its extensions by
    the other parts were formed from that first entry, earlier, and v * t
    for t in p is w * (s t), a product of no more part elements than w * s,
    formed at an earlier level.  So the levels hold each element at most
    once, and building B_d forms at most |B_d| products per nonidentity
    part element, however much the parts overlap."""
    part_elems = _part_syllables(group, parts)
    codec = group.codec
    yield ""
    seen = {""}
    level: list[tuple[int, str]] = [(-1, "")]
    for d in range(depth):
        extend = d + 1 < depth  # the last level is not extended: do not keep it
        nxt: list[tuple[int, str]] = []
        for last, value in level:
            for pi, elems in enumerate(part_elems):
                if pi == last:
                    continue
                for t in elems:
                    v = _product(codec, value, t)
                    size = len(seen)
                    seen.add(v)  # one set lookup of v, not two
                    if len(seen) > size:
                        if extend:
                            nxt.append((pi, v))
                        yield v
        level = nxt


class Ball(Sequence):
    """The elements of ``enumerate_ball(group, parts, depth)`` as a lazy
    sequence: membership is decided without building the ball.

    Iterating, indexing or taking the length builds the ball once, with
    enumerate_ball, in its order.  Until then ``element in ball`` meets in
    the middle.  The depth-d ball is B_d = B_a * B_b as a set, for
    a = ceil(d/2) and b = floor(d/2): a product of up to a part elements
    times a product of up to b is a product of up to d, because two
    adjacent factors from one part multiply to an element of that part or
    to 1 (each part is a conjugated subgroup), and merging them never adds
    a factor.  So t is in B_d iff t * v^-1 is in B_a for some v in B_b.
    B_b is closed under inversion (reverse a product and invert each
    factor), so v^-1 runs over B_b as v does.  The test computes t * w for
    every w in the smaller half B_b and looks it up in a set of the larger
    half's normal forms; both halves are built once per Ball.  Once the ball
    itself is built, membership is a set lookup.  The answer is exact either
    way.

    The parts are validated when the Ball is made, so every element it
    holds lies in ``group``.  A ball always holds the identity, so it is
    never empty, and testing its truth does not build it.
    """

    __slots__ = (
        "group", "parts", "depth", "membership_queries", "enumerated",
        "_elements", "_index", "_halves",
    )

    def __init__(
        self,
        group: FreeProduct,
        parts: Sequence[Part],
        depth: int,
    ):
        self.parts = [Part(factor, tuple(subgroup), conj) for factor, subgroup, conj in parts]
        _part_syllables(group, self.parts)
        self.group = group
        self.depth = depth
        #: How many membership questions the ball has been asked.
        self.membership_queries = 0
        #: Whether the elements have been iterated or indexed.  len() alone
        #: builds them but leaves this False, so sizing the ball (as a tracer
        #: or a progress report would) does not change what a report says
        #: the search did.
        self.enumerated = False
        self._elements: list[FPElement] | None = None
        self._index: set[str] | None = None
        self._halves: tuple[set, list] | None = None  # (B_a normal forms, B_b's)

    def __repr__(self) -> str:
        return f"Ball({self.group.name!r}, depth={self.depth})"

    def _built(self) -> list[FPElement]:
        if self._elements is None:
            self._elements = enumerate_ball(self.group, self.parts, self.depth)
            self._halves = None
        return self._elements

    def __len__(self) -> int:
        return len(self._built())

    def __getitem__(self, index):
        self.enumerated = True
        return self._built()[index]

    def __iter__(self):
        self.enumerated = True
        return iter(self._built())

    def __bool__(self) -> bool:
        return True

    def __contains__(self, element: object) -> bool:
        if not isinstance(element, FPElement) or element.group is not self.group:
            return False
        self.membership_queries += 1
        t = element.ids
        if self._elements is not None:
            if self._index is None:
                self._index = {u.ids for u in self._elements}
            return t in self._index
        if self._halves is None:
            larger = list(_ball_elements(self.group, self.parts, (self.depth + 1) // 2))
            smaller = (
                larger if self.depth % 2 == 0
                else list(_ball_elements(self.group, self.parts, self.depth // 2))
            )
            self._halves = (set(larger), smaller)
        larger_set, smaller = self._halves
        codec = self.group.codec
        return any(_product(codec, t, w) in larger_set for w in smaller)
