"""Necessary-condition checks on a decomposition of a subgroup.

A subgroup of a free product is presented as a free rank plus a list of
parts, each a free_product.Part (factor index, subgroup of that factor,
conjugator), the type balls are built from.  validate checks every part
with free_product._check_part, the check Ball and enumerate_ball make.
The checks are necessary for the subgroup to be verbally closed, never
sufficient, so a passing verdict is always reported as inconclusive:

  condition 1: the free rank is zero;
  condition 2: no two same-factor parts admit a common "cyclic witness"
      f with f^k1 nontrivial in one subgroup and f^k2 nontrivial in a
      conjugate of the other;
  condition 3: the k1 = k2 = 1 slice of condition 2 (pairwise trivial
      intersections H_1 and g H_2 g^-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GroupError
from .free_product import FreeProduct, Part, _check_part

CONDITION1 = "condition1"
CONDITION2 = "condition2"


@dataclass(frozen=True)
class KuroshData:
    """A subgroup given by free rank + parts."""

    ambient: FreeProduct
    free_rank: int
    parts: tuple[Part, ...]


@dataclass(frozen=True)
class Violation:
    """A failed necessary condition with a re-verifiable witness.

    For condition 2 the witness means: witness_f^k1 is a nontrivial element
    of part j1's subgroup, and witness_f^k2 is a nontrivial element of
    witness_g * (part j2's subgroup) * witness_g^-1, all inside factor
    ``factor``.  Condition 3 findings are reported as the k1 = k2 = 1 case.
    """

    kind: str
    factor: int | None = None
    part_indices: tuple[int, int] | None = None
    witness_f: int | None = None
    witness_g: int | None = None
    k1: int | None = None
    k2: int | None = None
    free_rank: int | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of check_all; passing is always inconclusive because the
    conditions are necessary, not sufficient.  pairs counts the ordered
    same-factor pairs condition 2 scanned, and table_entries the
    conjugates g h g^-1 it computed for their first-conjugator tables,
    |G| |H_2| per pair."""

    violations: tuple[Violation, ...]
    pairs: int = 0
    table_entries: int = 0

    @property
    def passes_necessary(self) -> bool:
        return not self.violations

    @property
    def inconclusive(self) -> bool:
        return self.passes_necessary


def validate(data: KuroshData) -> list[GroupError]:
    """Collect every invariant violation (empty list means ok); for each
    part, the first one it breaks (see free_product._check_part), as
    ``part j: ...``."""
    errors: list[GroupError] = []
    if data.free_rank < 0:
        errors.append(GroupError("free_rank must be nonnegative"))
    if not data.parts and data.free_rank == 0:
        errors.append(GroupError("decomposition has no parts and no free part"))
    for j, part in enumerate(data.parts):
        try:
            _check_part(data.ambient, part)
        except GroupError as exc:
            errors.append(type(exc)(f"part {j}: {exc}"))
    return errors


def _require_valid(data: KuroshData) -> None:
    errors = validate(data)
    if errors:
        raise errors[0]


def check_condition1(data: KuroshData) -> Violation | None:
    _require_valid(data)
    return _condition1(data)


def _condition1(data: KuroshData) -> Violation | None:
    return Violation(kind=CONDITION1, free_rank=data.free_rank) if data.free_rank else None


def _first_conjugator(group, sub: Sequence[int]) -> list[int]:
    """first[x] = the least g with x in g sub g^-1, or group.order when
    there is none; O(|G| |sub|).  Walking g downwards leaves the least
    g written last."""
    table, inverses = group.table, group.inverses
    first = [group.order] * group.order
    for g in range(group.order - 1, -1, -1):
        row, gi = table[g], inverses[g]
        for h in sub:
            first[table[row[h]][gi]] = g
    return first


def _pair_witness(group, sub1: Sequence[int], sub2: Sequence[int]):
    """Condition 2's witness for one pair: the first (f, g, k1, k2) in scan
    order (f, then g, ascending) with f^k1 in sub1 \\ {1} and f^k2 in
    g sub2 g^-1 \\ {1}; None when the pair is clean.  One walk over f's
    nonidentity powers finds k1, the first power in sub1, and g, the least
    _first_conjugator entry over them; k2 is the first power x with
    g^-1 x g in sub2.  Each f costs O(ord f) once the table is built."""
    table, n = group.table, group.order
    first = _first_conjugator(group, sub2)
    set1 = set(sub1)
    for f in range(1, n):
        k1 = k = 0
        g, x = n, f
        while x:
            k += 1
            if not k1 and x in set1:
                k1 = k
            if first[x] < g:
                g = first[x]
            x = table[x][f]
        if k1 and g < n:
            gi, set2 = group.inverses[g], set(sub2)
            x, k2 = f, 1
            while x and table[table[gi][x]][g] not in set2:
                x, k2 = table[x][f], k2 + 1
            return f, g, k1, k2
    return None


def _meet_witness(group, sub1: Sequence[int], sub2: Sequence[int]):
    """Condition 3's witness for one pair: (f, g, 1, 1) for the first g
    with sub1 meeting g sub2 g^-1 in more than 1, and f the least element
    of that meet other than 1, found as the x in sub1 with g^-1 x g in
    sub2; None when every meet is trivial."""
    first = _first_conjugator(group, sub2)
    g = min(first[x] for x in sub1 if x)
    if g == group.order:
        return None
    table, gi, set2 = group.table, group.inverses[g], set(sub2)
    return min(x for x in sub1 if x and table[table[gi][x]][g] in set2), g, 1, 1


def _same_factor_pairs(data: KuroshData):
    """Each ordered pair of distinct part positions in one factor, as
    (factor group, j1, part j1, j2, part j2), in position order."""
    parts = [Part(*p) for p in data.parts]  # plain triples allowed
    for j1, p1 in enumerate(parts):
        for j2, p2 in enumerate(parts):
            if j1 != j2 and p1.factor == p2.factor:
                yield data.ambient.factors[p1.factor], j1, p1, j2, p2


def _pair_violations(data: KuroshData, witness) -> list[Violation]:
    """One violation per ordered same-factor pair of distinct part
    positions for which witness(factor group, H1, H2) finds (f, g, k1, k2)."""
    return [
        Violation(CONDITION2, p1.factor, (j1, j2), *found)
        for group, j1, p1, j2, p2 in _same_factor_pairs(data)
        if (found := witness(group, p1.subgroup, p2.subgroup))
    ]


def check_condition2(data: KuroshData) -> list[Violation]:
    """One violation (first witness in scan order) per ordered same-factor
    pair of distinct part positions that admits a common cyclic witness."""
    _require_valid(data)
    return _pair_violations(data, _pair_witness)


def check_condition3(data: KuroshData) -> list[Violation]:
    """Trivial-intersection check: for every ordered same-factor pair and
    every g in the factor, part1 meets g part2 g^-1 trivially.  Violations
    are the k1 = k2 = 1 slice of condition 2, over the same pairs and
    through the same loop: the first g (in element order) with a
    nontrivial meet, and its least nontrivial element as f."""
    _require_valid(data)
    return _pair_violations(data, _meet_witness)


def check_all(data: KuroshData) -> Verdict:
    """Run conditions 1 and 2 (condition 3 is a special case of 2); validates once."""
    _require_valid(data)
    violations: list[Violation] = []
    v1 = _condition1(data)
    if v1:
        violations.append(v1)
    violations.extend(_pair_violations(data, _pair_witness))
    pairs = [(group, p2) for group, _, _, _, p2 in _same_factor_pairs(data)]
    return Verdict(
        tuple(violations),
        pairs=len(pairs),
        table_entries=sum(group.order * len(p2.subgroup) for group, p2 in pairs),
    )
