"""Canonical normal forms and algebra in a free product of finite groups.

An element is a reduced alternating sequence of syllables; a syllable is a
pair (factor_index, element_id) with a nonidentity element.  The reduced
sequence is the unique canonical representative, so syllable-sequence
equality is the equality oracle for the whole group.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadFactorIndexError,
    DuplicateLabelError,
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


def _inverse_syllables(factors, s: Sequence[Syllable]) -> tuple[Syllable, ...]:
    return tuple([(f, factors[f].inverses[e]) for f, e in reversed(s)])


def _seam_merge(factors, out: list, pieces: Iterable[Sequence[Syllable]]) -> list:
    """Append the reduced syllable tuples ``pieces``, in order, to the
    reduced list ``out`` and return it.

    Both sides are reduced, so cancellation happens only at the seam (the
    normal form theorem, Lyndon-Schupp, ch. IV, sec. 1).
    """
    for sylls in pieces:
        i, n = 0, len(sylls)
        while out and i < n:
            f, e = sylls[i]
            lf, le = out[-1]
            if lf != f:
                break
            m = factors[f].table[le][e]
            i += 1
            if m:
                out[-1] = (f, m)
                break
            out.pop()
        out.extend(sylls[i:] if i else sylls)
    return out


def _product(factors, a: tuple[Syllable, ...], b: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    """Normal form of a * b for reduced syllable tuples: plain concatenation
    unless the seam joins two syllables of one factor."""
    if a and b and a[-1][0] == b[0][0]:
        return tuple(_seam_merge(factors, list(a), (b,)))
    return a + b


def _cyclic_split(factors, s: tuple[Syllable, ...]) -> tuple[int, tuple[Syllable, ...]]:
    """(i, core) with s = c * core * c^-1 for the conjugator c = s[:i] and a
    cyclically reduced core; see FPElement.cyclic_reduce."""
    i, j = 0, len(s)
    tail: tuple[Syllable, ...] = ()
    while j - i >= 2 and s[i][0] == s[j - 1][0]:
        f, e = s[i]
        m = factors[f].table[s[j - 1][1]][e]
        i += 1
        j -= 1
        if m:
            # The merged syllable ends the core; the next front syllable
            # lies in another factor, so the scan stops here.
            tail = ((f, m),)
            break
    return i, s[i:j] + tail


def power_syllables(factors, sylls: Sequence[Syllable], k: int) -> tuple[Syllable, ...]:
    """Normal form of u^k for a reduced syllable sequence u.

    With u = c * core * c^-1 its cyclic reduction (c = u[:i]), u^k is
    c * core^k * c^-1, and for k < 0 it is (u^-1)^-k:
    - core of norm 0: u is the identity, and so is u^k;
    - core (f, e) of norm 1: the core is the syllable u[i], and u^k replaces
      it by e^k, found by square-and-multiply in the factor;
    - core of norm >= 2: the core is cyclically reduced, so its copies do not
      cancel and u^k = u[:i] + core * (k - 1) + u[i:] (u[i:] is one core
      followed by c^-1, merged at the seam when the scan merged a syllable).
    The output size is checked against MAX_POWER_SYLLABLES before the result
    is built.
    """
    s = tuple(sylls)
    if k < 0:
        s, k = _inverse_syllables(factors, s), -k
    if not s or k == 0:
        return ()
    i, core = _cyclic_split(factors, s)
    if len(core) == 1:
        # No merged syllable: s = s[:i] + core + s[i + 1:], all reduced.
        (f, e), = core
        y = factors[f].power(e, k)
        return s[:i] + ((f, y),) + s[i + 1:] if y else ()
    size = _power_norm(factors, len(s), core, k)
    if size > MAX_POWER_SYLLABLES:
        raise PowerTooLargeError(
            f"power has {size} syllables, above the cap of {MAX_POWER_SYLLABLES}"
        )
    return s[:i] + core * (k - 1) + s[i:]


def _power_norm(factors, norm: int, core: Sequence[Syllable], k: int) -> int:
    """Norm of u^k, k >= 1, for u of the given norm with cyclic core
    ``core``, without building u^k: a one-syllable core (f, e) becomes
    e^k, and u^k has u's norm, or 0 when e^k = 1; copies of a core of norm
    >= 2 never cancel, so each of the k - 1 extra ones adds its norm."""
    if len(core) == 1:
        (f, e), = core
        return norm if factors[f].power(e, k) else 0
    return norm + len(core) * (k - 1)


def _failure(b: Sequence[Syllable]) -> list[int]:
    """Knuth-Morris-Pratt failure table: fail[i] is the length of the
    longest proper prefix of b[:i + 1] that is also its suffix."""
    fail = [0] * len(b)
    k = 0
    for i in range(1, len(b)):
        while k and b[i] != b[k]:
            k = fail[k - 1]
        if b[i] == b[k]:
            k += 1
        fail[i] = k
    return fail


def _is_rotation(a: tuple[Syllable, ...], b: tuple[Syllable, ...]) -> int | None:
    """The least k with b == a[k:] + a[:k] (a and b nonempty and equally
    long), or None: a Knuth-Morris-Pratt search for b in a + a, linear
    time."""
    n = len(b)
    fail = _failure(b)
    k = 0
    for i, x in enumerate(a + a[:-1]):
        while k and x != b[k]:
            k = fail[k - 1]
        if x == b[k]:
            k += 1
            if k == n:
                return i - n + 1
    return None


def _conjugator(
    factors, b: tuple[Syllable, ...], t: tuple[Syllable, ...]
) -> tuple[Syllable, ...] | None:
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
    """
    if b == t:
        return ()
    i, core_b = _cyclic_split(factors, b)
    j, core_t = _cyclic_split(factors, t)
    n = len(core_b)
    if n != len(core_t):
        return None
    if n == 0:
        return ()
    if n == 1:
        (f, x), (g, y) = core_b[0], core_t[0]
        h = factors[f].conjugator(x, y) if f == g else None
        if h is None:
            return None
        middle = ((f, h),) if h else ()
    else:
        k = _is_rotation(core_b, core_t)
        if k is None:
            return None
        middle = _inverse_syllables(factors, core_b[:k])
    return tuple(
        _seam_merge(factors, list(t[:j]), (middle, _inverse_syllables(factors, b[:i])))
    )


def _centralizer(factors, b: tuple[Syllable, ...], bound: int) -> list[tuple[Syllable, ...]]:
    """Normal forms of the elements of norm <= bound in C(b), the
    centralizer of b != 1.

    With b = u * core * u^-1 its cyclic reduction, C(b) = u * C(core) * u^-1
    (Lyndon-Schupp, ch. IV, sec. 1; Magnus-Karrass-Solitar, sec. 4.1):
    - core (f, x) of norm 1: C(core) = C_A(x), the centralizer of x in its
      factor A, and each element is u + (f, z) + u^-1, already reduced;
    - core of norm >= 2: C(core) is generated by the primitive root rho of
      the core (core = rho^m with rho as short as possible), so C(b) is
      generated by r = u * rho * u^-1, and its elements are the powers
      r^k, whose norm grows with |k|.
    """
    i, core = _cyclic_split(factors, b)
    if len(core) == 1:
        (f, x), = core
        if 2 * i + 1 > bound:
            return [()]
        u, u_inv = b[:i], b[i + 1:]
        return [u + ((f, z),) + u_inv if z else () for z in factors[f].centralizer(x)]
    n = len(core)
    period = n - _failure(core)[-1]
    if n % period:
        period = n
    # b is u, then the core (its last syllable merged into the next one when
    # the cyclic reduction merged one), then the last len(u) syllables.
    # Dropping m - 1 copies of rho from just before those leaves r.
    end = len(b) - i
    r = b[: end - (n - period)] + b[end:]
    out = [()]
    k, rk = 1, r
    while len(rk) <= bound:
        out += [rk, _inverse_syllables(factors, rk)]
        k += 1
        rk = power_syllables(factors, r, k)
    return out


class FreeProduct:
    """Ambient group G = G_0 * ... * G_{n-1} with a generator namespace.

    Generator labels must be unique across all factors; each label denotes
    one element of one factor.
    """

    __slots__ = ("factors", "generator_map", "name", "__weakref__")

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

    def __repr__(self) -> str:
        return f"FreeProduct({self.name!r})"

    @property
    def generator_labels(self) -> tuple[str, ...]:
        return tuple(self.generator_map)

    def identity(self) -> FPElement:
        return FPElement(self, ())

    def generator(self, label: str) -> FPElement:
        if label not in self.generator_map:
            raise UnknownGeneratorError(f"unknown generator {label!r} in {self.name}")
        i, e = self.generator_map[label]
        return FPElement(self, ((i, e),))

    def factor_element(self, factor: int, elem: int) -> FPElement:
        self._check_factor(factor)
        self.factors[factor].check_element(elem)
        return FPElement(self, ((factor, elem),)) if elem else FPElement(self, ())

    def element(self, pairs: Iterable[tuple[int, int]]) -> FPElement:
        """Normal form of a raw syllable sequence.

        Identity syllables are dropped and the rest are merged in one
        left-to-right pass, which gives the same result as merging adjacent
        same-factor syllables until nothing changes.
        """
        factors = self.factors

        def pieces():
            for f, e in pairs:
                self._check_factor(f)
                factors[f].check_element(e)
                if e:
                    yield ((f, e),)

        return FPElement(self, tuple(_seam_merge(factors, [], pieces())))

    def _check_factor(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < len(self.factors):
            raise BadFactorIndexError(f"factor {i!r} out of range")


class FPElement:
    """An element of a FreeProduct in canonical normal form.

    Immutable; construct through FreeProduct methods or the arithmetic
    operators, never by mutating ``syllables``.
    """

    __slots__ = ("group", "syllables")

    def __init__(self, group: FreeProduct, syllables: tuple[tuple[int, int], ...]):
        self.group = group
        self.syllables = syllables

    # -- equality is normal-form equality within one ambient group --------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FPElement):
            return NotImplemented
        return self.group is other.group and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    @property
    def norm(self) -> int:
        """Syllable length of the normal form; the identity has norm 0."""
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def _require_same_group(self, other: FPElement) -> None:
        if not isinstance(other, FPElement) or other.group is not self.group:
            raise MixedAmbientError("elements live in different ambient groups")

    def __mul__(self, other: FPElement) -> FPElement:
        if not isinstance(other, FPElement):
            return NotImplemented
        self._require_same_group(other)
        return FPElement(self.group, _product(self.group.factors, self.syllables, other.syllables))

    def inverse(self) -> FPElement:
        return FPElement(self.group, _inverse_syllables(self.group.factors, self.syllables))

    def __invert__(self) -> FPElement:
        return self.inverse()

    def power(self, k: int) -> FPElement:
        """k-th power from the cyclic reduction (see power_syllables);
        PowerTooLargeError when the result would exceed MAX_POWER_SYLLABLES."""
        return FPElement(self.group, power_syllables(self.group.factors, self.syllables, k))

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

        Linear time: two indices close in from both ends.  The conjugator is
        the prefix they pass, and the core is the middle, plus the merged
        syllable when the last merge leaves one.
        """
        i, core = _cyclic_split(self.group.factors, self.syllables)
        return CyclicReduction(
            FPElement(self.group, self.syllables[:i]), FPElement(self.group, core)
        )

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
        c = _conjugator(self.group.factors, self.syllables, other.syllables)
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
        """
        if not self.syllables:
            return "1"
        texts = [g.element_texts for g in self.group.factors]
        return " ".join([texts[f][e] for f, e in self.syllables])

    def __str__(self) -> str:
        return self.as_word()

    def __repr__(self) -> str:
        return f"<{self.as_word()}>"


@dataclass(frozen=True)
class CyclicReduction:
    """Result of cyclic reduction: original = conjugator * core * conjugator^-1."""

    conjugator: FPElement
    core: FPElement

    def rebuild(self) -> FPElement:
        return self.conjugator * self.core * self.conjugator.inverse()

    def order(self) -> int | float:
        """Order of the original, read from the core: 1 for norm 0, the
        order of the syllable in its factor for norm 1, else INFINITE."""
        core = self.core
        if core.norm == 0:
            return 1
        if core.norm == 1:
            f, e = core.syllables[0]
            return core.group.factors[f].element_order(e)
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


def _part_syllables(group: FreeProduct, parts: Sequence[Part]) -> list[list[tuple[Syllable, ...]]]:
    """Check each part (see _check_part) and return, per part, the normal
    forms of its nonidentity elements conjugator * h * conjugator^-1."""
    part_elems: list[list[tuple[Syllable, ...]]] = []
    for part in parts:
        _check_part(group, part)
        factor, subgroup, conj = part
        cinv = conj.inverse()
        part_elems.append([
            (conj * group.factor_element(factor, h) * cinv).syllables
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
) -> Iterator[tuple[Syllable, ...]]:
    """The normal forms of ``enumerate_ball(group, parts, depth)`` in its
    order, each formed when the iteration reaches it.

    A product joins the next level only when it is a new element.  That
    keeps the order: a value v formed again was first formed, earlier, as a
    product w * s ending in an element s of some part p.  Its extensions by
    the other parts were formed from that first entry, earlier, and v * t
    for t in p is w * (s t), a product of no more part elements than w * s,
    formed at an earlier level.  So the levels hold each element at most
    once, and building B_d forms at most |B_d| products per nonidentity
    part element, however much the parts overlap."""
    part_elems = _part_syllables(group, parts)
    factors = group.factors
    yield ()
    seen = {()}
    level: list[tuple[int, tuple[Syllable, ...]]] = [(-1, ())]
    for d in range(depth):
        extend = d + 1 < depth  # the last level is not extended: do not keep it
        nxt: list[tuple[int, tuple[Syllable, ...]]] = []
        for last, value in level:
            for pi, elems in enumerate(part_elems):
                if pi == last:
                    continue
                for t in elems:
                    v = _product(factors, value, t)
                    size = len(seen)
                    seen.add(v)  # one hash of v, not two: tuples do not cache it
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
        self._index: set[tuple[Syllable, ...]] | None = None
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
        t = element.syllables
        if self._elements is not None:
            if self._index is None:
                self._index = {u.syllables for u in self._elements}
            return t in self._index
        if self._halves is None:
            larger = list(_ball_elements(self.group, self.parts, (self.depth + 1) // 2))
            smaller = (
                larger if self.depth % 2 == 0
                else list(_ball_elements(self.group, self.parts, self.depth // 2))
            )
            self._halves = (set(larger), smaller)
        larger_set, smaller = self._halves
        factors = self.group.factors
        return any(_product(factors, t, w) in larger_set for w in smaller)
