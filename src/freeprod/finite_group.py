"""Finite groups as Cayley tables.

Elements are integer ids in [0, order); id 0 is always the identity
(constructors relabel to enforce this).  A table given as rows
(``from_cayley_table``) is validated eagerly: Latin square, identity,
inverses, associativity and generator closure are all checked at
construction time.  Associativity is checked by Light's test over the
generators, O(order^2 * generators); only a table whose generators do not
generate it pays the full O(order^3) check.  ``make_cyclic``,
``make_dihedral_reflections`` and ``direct_product`` build their tables and
inverses in closed form, so only their labels are checked.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

from ._record import _Record, _set
from .errors import (
    DuplicateLabelError,
    ForeignElementError,
    GeneratorsDoNotGenerateError,
    InvalidLabelError,
    NoIdentityError,
    NotAssociativeError,
    NotASubgroupError,
    NotLatinSquareError,
    OrderTooSmallError,
)

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_VARIABLE_RE = re.compile(r"x[0-9]+")


def _check_label(label: str) -> None:
    if not _LABEL_RE.fullmatch(label):
        raise InvalidLabelError(f"bad generator label {label!r}")
    if _VARIABLE_RE.fullmatch(label):
        raise InvalidLabelError(f"label {label!r} is reserved for variables")


class FiniteGroup(_Record):
    """A finite group given by its Cayley table.

    table[x][y] is the id of x*y.  Identity is id 0.  Instances are
    immutable and compared by identity: elements of two structurally equal
    groups are still foreign to each other.
    """

    _fields = ("name", "table", "inverses", "generators")  # a __dict__ for element_words

    def __init__(
        self,
        name: str,
        table: tuple[tuple[int, ...], ...],
        inverses: tuple[int, ...],
        generators: tuple[tuple[str, int], ...],
    ):
        _set(self, "name", name)
        _set(self, "table", table)
        _set(self, "inverses", inverses)
        _set(self, "generators", generators)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, x: int) -> int:
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise ForeignElementError(f"{x!r} is not an element id of {self.name}")
        return x

    def mul(self, x: int, y: int) -> int:
        self.check_element(x)
        self.check_element(y)
        return self.table[x][y]

    def inv(self, x: int) -> int:
        self.check_element(x)
        return self.inverses[x]

    def power(self, x: int, k: int) -> int:
        self.check_element(x)
        if k < 0:
            x, k = self.inverses[x], -k
        out, base = 0, x
        while k:
            if k & 1:
                out = self.table[out][base]
            base = self.table[base][base]
            k >>= 1
        return out

    def element_order(self, x: int) -> int:
        """Least k >= 1 with x^k = identity."""
        self.check_element(x)
        k, y = 1, x
        while y != 0:
            y = self.table[y][x]
            k += 1
        return k

    def generated_subgroup(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Closure of gens under multiplication, as a sorted id tuple.

        Always contains the identity.  Inverses come for free in a finite
        group (x^-1 is a positive power of x).
        """
        seed = [self.check_element(g) for g in gens]
        return tuple(sorted(_closure(self.table, seed)))

    def is_subgroup(self, ids: Iterable[int]) -> bool:
        s = set(ids)
        if 0 not in s:
            return False
        for x in s:
            self.check_element(x)
            if self.inverses[x] not in s:
                return False
            for y in s:
                if self.table[x][y] not in s:
                    return False
        return True

    def conjugator(self, x: int, y: int) -> int | None:
        """The least g with g*x*g^-1 = y, or None when x and y are not
        conjugate."""
        self.check_element(x)
        self.check_element(y)
        t, inv = self.table, self.inverses
        return next((g for g in range(self.order) if t[t[g][x]][inv[g]] == y), None)

    def centralizer(self, x: int) -> tuple[int, ...]:
        """{g : g*x = x*g}, sorted."""
        self.check_element(x)
        t = self.table
        return tuple(g for g in range(self.order) if t[g][x] == t[x][g])

    def conjugate_subgroup(self, subgroup: Iterable[int], g: int) -> tuple[int, ...]:
        """{g*h*g^-1 : h in subgroup}, sorted; requires an actual subgroup."""
        sub = tuple(subgroup)
        if not self.is_subgroup(sub):
            raise NotASubgroupError(f"{sorted(sub)} is not a subgroup of {self.name}")
        self.check_element(g)
        gi = self.inverses[g]
        return tuple(sorted(self.table[self.table[g][h]][gi] for h in sub))

    @cached_property
    def element_words(self) -> tuple[tuple[str, ...], ...]:
        """Shortest generator word for every element (BFS, deterministic)."""
        words: dict[int, tuple[str, ...]] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for label, g in self.generators:
                    y = self.table[x][g]
                    if y not in words:
                        words[y] = words[x] + (label,)
                        nxt.append(y)
            frontier = nxt
        return tuple(words[x] for x in range(self.order))

    def element_text(self, x: int) -> str:
        """element_words[x] rendered with each run of equal labels as a
        power, e.g. ``a b^2``; the identity is ``1``."""
        runs = [(label, len(list(run))) for label, run in groupby(self.element_words[x])]
        return " ".join(l if n == 1 else f"{l}^{n}" for l, n in runs) or "1"

    def relabeled(self, labels: Sequence[str]) -> FiniteGroup:
        """Same group with generator labels replaced, in declaration order."""
        if len(labels) != len(self.generators):
            raise InvalidLabelError(
                f"{self.name} has {len(self.generators)} generators, got {len(labels)} labels"
            )
        gens = [(lab, g) for lab, (_, g) in zip(labels, self.generators)]
        return _group(self.name, self.table, self.inverses, gens)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _validate_table(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(rows)
    if n < 2:
        raise OrderTooSmallError("group order must be at least 2")
    table = tuple(tuple(row) for row in rows)
    ids = list(range(n))
    for i, row in enumerate(table):
        if len(row) != n or sorted(row) != ids:
            raise NotLatinSquareError(f"row {i} is not a permutation of 0..{n - 1}")
    for j, col in enumerate(zip(*table)):
        if sorted(col) != ids:
            raise NotLatinSquareError(f"column {j} is not a permutation of 0..{n - 1}")
    return table


def _find_identity(table: tuple[tuple[int, ...], ...]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NoIdentityError("table has no two-sided identity")


def _closure(table: Sequence[Sequence[int]], gens: Iterable[int]) -> set[int]:
    """Ids reached from the identity by right multiplication by gens."""
    gens = sorted(set(gens))
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _check_associative(table: tuple[tuple[int, ...], ...], middles: Iterable[int]) -> None:
    """Raise NotAssociativeError unless (x*y)*z == x*(y*z) for every x, z
    and every y in middles."""
    for y in middles:
        col = [row[y] for row in table]
        yz = table[y]
        for x, row in enumerate(table):
            left = table[col[x]]
            right = tuple(map(row.__getitem__, yz))
            if left != right:
                z = next(z for z in range(len(table)) if left[z] != right[z])
                raise NotAssociativeError(
                    f"({x}*{y})*{z} != {x}*({y}*{z}) after identity relabelling"
                )


def _relabel_identity_first(
    table: tuple[tuple[int, ...], ...], e: int
) -> tuple[tuple[int, ...], ...]:
    # Swap ids 0 <-> e; the transposition is its own inverse.
    n = len(table)
    p = list(range(n))
    p[0], p[e] = e, 0
    return tuple(tuple(p[table[p[i]][p[j]]] for j in range(n)) for i in range(n))


def _group(
    name: str,
    table: tuple[tuple[int, ...], ...],
    inverses: tuple[int, ...],
    generators: Sequence[tuple[str, int]],
) -> FiniteGroup:
    """The group on ``table``, which the caller has shown to be a group
    with identity 0, these inverses, and generated by ``generators``; only
    the labels, which come from outside, are checked here."""
    labels = [lab for lab, _ in generators]
    for lab in labels:
        _check_label(lab)
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"duplicate labels in {labels}")
    return FiniteGroup(name, table, inverses, tuple(generators))


def from_cayley_table(
    rows: Sequence[Sequence[int]],
    generators: Sequence[tuple[str, int]],
    name: str = "G",
) -> FiniteGroup:
    """Build a validated group from an explicit table.

    The identity is relabelled to id 0 if necessary; generator ids refer to
    the *input* table and are remapped along with it.
    """
    table = _validate_table(rows)
    n = len(table)
    e = _find_identity(table)
    remap = list(range(n))
    if e != 0:
        remap[0], remap[e] = e, 0
        table = _relabel_identity_first(table, e)

    # Light's associativity test (Clifford-Preston, The Algebraic Theory of
    # Semigroups I, sec. 1.2): the y with (x*y)*z = x*(y*z) for all x, z form
    # a submagma holding the identity, so checking y over generators whose
    # closure is the whole table proves associativity.  Generator ids are
    # validated below; here only the valid ones count.  Without a generating
    # set, every y is checked, so a non-associative table is reported as such.
    gens = [remap[g] for _, g in generators if isinstance(g, int) and 0 <= g < n]
    closure = _closure(table, gens)
    _check_associative(table, sorted(set(gens)) if len(closure) == n else range(n))

    # Latin + identity + associativity already force two-sided inverses.
    inverses = tuple(row.index(0) for row in table)

    for i, (_, g) in enumerate(generators):
        if not isinstance(g, int) or not 0 <= g < n:
            raise ForeignElementError(f"generator {i} (counting from 0) has bad id {g!r}")
    if len(closure) != n:
        raise GeneratorsDoNotGenerateError(
            f"generators reach only {len(closure)} of {n} elements"
        )
    return _group(name, table, inverses, [(lab, remap[g]) for lab, g in generators])


def make_cyclic(n: int, label: str = "a", name: str | None = None) -> FiniteGroup:
    """Cyclic group of order n >= 2 with one generator of order n."""
    if n < 2:
        raise OrderTooSmallError(f"cyclic group needs order >= 2, got {n}")
    # row i is 0..n-1 rotated left by i; the inverse of x is -x mod n
    ids = tuple(range(n))
    table = tuple(ids[i:] + ids[:i] for i in range(n))
    return _group(name or f"C{n}", table, tuple(-x % n for x in ids), [(label, 1)])


def make_dihedral_reflections(
    n: int, labels: tuple[str, str] = ("a", "b"), name: str | None = None
) -> FiniteGroup:
    """Dihedral group of order 2n generated by two reflections a, b.

    Both generators have order 2 and their product has order n (n = 2 gives
    the Klein four group).  Element (rot, ref) is encoded as rot + n*ref.
    """
    if n < 2:
        raise OrderTooSmallError(f"dihedral group needs n >= 2, got {n}")

    # (r1,0)*(r2,f) = (r1+r2, f) and (r1,1)*(r2,f) = (r1-r2, 1-f): each half
    # of a row is n consecutive entries of a doubled run of rotations or
    # reflections, ascending from r1 for a rotation and descending from r1
    # for a reflection (up[r] = down[n-1-r] = r).
    up_rot, up_ref = tuple(range(n)) * 2, tuple(range(n, 2 * n)) * 2
    down_rot, down_ref = up_rot[::-1], up_ref[::-1]
    table = tuple(up_rot[r:r + n] + up_ref[r:r + n] for r in range(n))
    table += tuple(down_ref[n - 1 - r:2 * n - 1 - r] + down_rot[n - 1 - r:2 * n - 1 - r]
                   for r in range(n))
    # a rotation r is inverted by -r mod n; a reflection is its own inverse
    inverses = tuple(-r % n for r in range(n)) + up_ref[:n]
    # a = reflection (0,1); b = (n-1,1) so that a*b is the basic rotation.
    gens = [(labels[0], n), (labels[1], 2 * n - 1)]
    return _group(name or f"D{n}", table, inverses, gens)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product A x B; element (x, y) is encoded as x*#B + y.

    Generators are A's paired with B's identity and vice versa, labels
    preserved (they must not clash).
    """
    nb = b.order
    # (x1, x2) * (y1, y2) = (x1 y1, x2 y2): row x1*#B + x2 is A's row x1,
    # scaled by #B, with B's row x2 added to each entry.
    rows = []
    for a_row in a.table:
        scaled = [p * nb for p in a_row]
        rows += [tuple([p + q for p in scaled for q in b_row]) for b_row in b.table]
    inverses = tuple(x * nb + y for x in a.inverses for y in b.inverses)
    gens = [(lab, g * nb) for lab, g in a.generators]
    gens += [(lab, g) for lab, g in b.generators]
    return _group(name or f"{a.name}x{b.name}", tuple(rows), inverses, gens)
