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


def _powers(group, f: int) -> list[int]:
    # powers[k] = f^k for k = 0 .. order(f); index 0 unused by the scans.
    out = [0]
    x = f
    while True:
        out.append(x)
        if x == 0:
            return out
        x = group.table[x][f]


def _first_power_in(powers: Sequence[int], target: set[int]) -> int | None:
    for k in range(1, len(powers)):
        if powers[k] != 0 and powers[k] in target:
            return k
    return None


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


def _conjugate(group, sub: Sequence[int], g: int) -> set[int]:
    table, gi = group.table, group.inverses[g]
    return {table[table[g][h]][gi] for h in sub}


def _pair_witness(group, sub1: Sequence[int], sub2: Sequence[int]):
    """First (f, g, k1, k2) in scan order (f, then g, ascending) with f^k1
    in sub1 \\ {1} and f^k2 in g sub2 g^-1 \\ {1}; None when the pair is
    clean.  The least such g for f is the least _first_conjugator entry
    over f's nonidentity powers, so each f costs O(ord f) once the table
    is built."""
    first = _first_conjugator(group, sub2)
    set1 = set(sub1)
    for f in range(1, group.order):
        powers = _powers(group, f)
        k1 = _first_power_in(powers, set1)
        if k1 is None:
            continue
        g = min(map(first.__getitem__, powers[1:-1]))
        if g < group.order:
            return f, g, k1, _first_power_in(powers, _conjugate(group, sub2, g))
    return None


def _same_factor_pairs(data: KuroshData):
    """Each ordered pair of distinct part positions in one factor, as
    (factor group, j1, part j1, j2, part j2), in position order."""
    parts = [Part(*p) for p in data.parts]  # plain triples allowed
    for j1, p1 in enumerate(parts):
        for j2, p2 in enumerate(parts):
            if j1 != j2 and p1.factor == p2.factor:
                yield data.ambient.factors[p1.factor], j1, p1, j2, p2


def check_condition2(data: KuroshData) -> list[Violation]:
    """One violation (first witness in scan order) per ordered same-factor
    pair of distinct part positions that admits a common cyclic witness."""
    _require_valid(data)
    return _condition2(data)


def _condition2(data: KuroshData) -> list[Violation]:
    out: list[Violation] = []
    for group, j1, p1, j2, p2 in _same_factor_pairs(data):
        found = _pair_witness(group, p1.subgroup, p2.subgroup)
        if found:
            f, g, k1, k2 = found
            out.append(
                Violation(
                    kind=CONDITION2,
                    factor=p1.factor,
                    part_indices=(j1, j2),
                    witness_f=f,
                    witness_g=g,
                    k1=k1,
                    k2=k2,
                )
            )
    return out


def check_condition3(data: KuroshData) -> list[Violation]:
    """Trivial-intersection check: for every ordered same-factor pair and
    every g in the factor, part1 meets g part2 g^-1 trivially.  Violations
    are the k1 = k2 = 1 slice of condition 2, over the same pairs: the
    first g (in element order) with a nontrivial meet, and its least
    nontrivial element as f."""
    _require_valid(data)
    out: list[Violation] = []
    for group, j1, p1, j2, p2 in _same_factor_pairs(data):
        first = _first_conjugator(group, p2.subgroup)
        g = min(first[x] for x in p1.subgroup if x != 0)
        if g < group.order:
            meet = set(p1.subgroup) & _conjugate(group, p2.subgroup, g)
            out.append(
                Violation(
                    kind=CONDITION2,
                    factor=p1.factor,
                    part_indices=(j1, j2),
                    witness_f=min(meet - {0}),
                    witness_g=g,
                    k1=1,
                    k2=1,
                )
            )
    return out


def check_all(data: KuroshData) -> Verdict:
    """Run conditions 1 and 2 (condition 3 is a special case of 2); validates once."""
    _require_valid(data)
    violations: list[Violation] = []
    v1 = _condition1(data)
    if v1:
        violations.append(v1)
    violations.extend(_condition2(data))
    pairs = [(group, p2) for group, _, _, _, p2 in _same_factor_pairs(data)]
    return Verdict(
        tuple(violations),
        pairs=len(pairs),
        table_entries=sum(group.order * len(p2.subgroup) for group, p2 in pairs),
    )
