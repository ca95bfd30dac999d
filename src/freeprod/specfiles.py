"""Plain-text spec files for groups, subgroup decompositions and balls.

Group spec grammar (line oriented, '#' starts a comment, each line once):

    factors: <descriptor> ; <descriptor> ; ...
    labels:  <l1,l2> ; <l> ; ...

A descriptor is ``cyclic <n>``, ``dihedral <n>``, ``product [<d>, <d>]``
(components may nest) or ``table rows=<r0>:<r1>:... gens=<id,id>`` with
comma-separated row entries.  The labels line carries one comma-separated
label list per factor, arity matching the factor's generator count.  The
tables of one spec may hold MAX_SPEC_CELLS cells in all; a descriptor over
that is refused before its table is built.

Subgroup spec (the same rules, but ``part:`` lines may repeat):

    free_rank: <n>
    part: factor=<i> gens=<word>,<word> conj=<word>

Ball spec (``solve --ball``): ';'-separated parts, each either the
key=value form of a ``part:`` line or ``<word>,<word>[@<conj word>]``.

One parser turns the parts of both grammars into free_product.Part values.
It range-checks a named factor first; each gens word must then evaluate
into that factor, or in the ``@`` form into the factor of the first word
that is not the identity.  conj is any ambient word ('1' or omitted for
the identity).
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator

from .checker import KuroshData
from .errors import (
    DuplicateLabelError,
    ForeignElementError,
    GroupTooLargeError,
    InvalidLabelError,
    SpecSyntaxError,
)
from .finite_group import (
    FiniteGroup,
    direct_product,
    from_cayley_table,
    make_cyclic,
    make_dihedral_reflections,
)
from .free_product import FreeProduct, Part
from .words import parse_constant


def _spec_lines(text: str):
    """(key, rest, line) for each line, '#' comments and blank lines
    dropped; every key but 'part' may appear once."""
    seen = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in seen:
            raise SpecSyntaxError(f"repeated line {line!r}")
        if key != "part":
            seen.add(key)
        yield key, rest.strip(), line


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside brackets."""
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf).strip())
    return parts


# Table cells one group spec may build, summed over all its tables, a
# product's components included.  The largest table of any case or
# benchmark workload has 90,000 (D150).  A table of order n >= 2 takes
# n^2 >= 2n cells, so a spec within the cap has at most 2^20 syllable ids,
# which a normal form can hold.
MAX_SPEC_CELLS = 1 << 21


def _order(digits: str) -> int:
    # int() refuses more than 4,300 digits; such an order is over the cap, so
    # the cap stands in for it
    return int(digits) if len(digits) <= 4300 else MAX_SPEC_CELLS


def _charge(budget: list[int], order: int, text: str) -> None:
    """Take a table's order^2 cells from budget[0] before its rows are
    built, or refuse the spec."""
    budget[0] -= order * order
    if budget[0] < 0:
        raise GroupTooLargeError(
            f"factor {text!r} exceeds the {MAX_SPEC_CELLS:,} table cells a group spec may build"
        )


def _build_descriptor(text: str, labels: Iterator[str], budget: list[int]) -> FiniteGroup:
    """The factor a descriptor names; each generator it makes takes the
    next label of ``labels``.
    Every table it builds is charged to ``budget`` (see MAX_SPEC_CELLS)."""
    text = text.strip()
    m = re.fullmatch(r"cyclic\s+(\d+)", text)
    if m:
        n = _order(m.group(1))
        _charge(budget, n, text)
        return make_cyclic(n, next(labels))
    m = re.fullmatch(r"dihedral\s+(\d+)", text)
    if m:
        n = _order(m.group(1))
        _charge(budget, 2 * n, text)
        return make_dihedral_reflections(n, (next(labels), next(labels)))
    m = re.fullmatch(r"product\s*\[(.*)\]", text, re.S)
    if m:
        comps = _split_top(m.group(1), ",")
        if len(comps) < 2:
            raise SpecSyntaxError(f"product needs at least two components: {text!r}")
        group = _build_descriptor(comps[0], labels, budget)
        for comp in comps[1:]:
            other = _build_descriptor(comp, labels, budget)
            _charge(budget, group.order * other.order, text)
            group = direct_product(group, other)
        return group
    m = re.fullmatch(r"table\s+rows=(\S+)\s+gens=(\S+)", text)
    if m:
        _charge(budget, m.group(1).count(":") + 1, text)
        try:
            rows = [
                [int(x) for x in row.split(",")] for row in m.group(1).split(":")
            ]
            gen_ids = [int(x) for x in m.group(2).split(",")]
        except ValueError as exc:
            raise SpecSyntaxError(f"bad table descriptor: {text!r}") from exc
        gens = [(next(labels), g) for g in gen_ids]
        return from_cayley_table(rows, gens)
    raise SpecSyntaxError(f"unknown factor descriptor {text!r}")


def parse_group_spec(text: str) -> FreeProduct:
    """Build a FreeProduct from group spec text."""
    factors_line = labels_line = None
    for key, rest, line in _spec_lines(text):
        if key == "factors":
            factors_line = rest
        elif key == "labels":
            labels_line = rest
        else:
            raise SpecSyntaxError(f"unknown line {line!r} in group spec")
    if factors_line is None or labels_line is None:
        raise SpecSyntaxError("group spec needs 'factors:' and 'labels:' lines")

    descriptors = _split_top(factors_line, ";")
    label_lists = [
        [lab.strip() for lab in chunk.split(",") if lab.strip()]
        for chunk in labels_line.split(";")
    ]
    if len(descriptors) != len(label_lists):
        raise SpecSyntaxError(
            f"{len(descriptors)} factors but {len(label_lists)} label lists"
        )
    factors = []
    made_up = (f"tmp{i}" for i in itertools.count(1))
    budget = [MAX_SPEC_CELLS]
    for desc, labels in zip(descriptors, label_lists):
        # Each factor is built once, on its own labels, made-up ones after
        # those run out.  A bad label refused while building is built over
        # on made-up labels, so that a wrong count is still reported first,
        # and relabeled() reports the label.
        left = budget[0]
        try:
            group = _build_descriptor(desc, itertools.chain(labels, made_up), budget)
        except (InvalidLabelError, DuplicateLabelError):
            budget[0] = left
            group = _build_descriptor(desc, made_up, budget)
        if len(labels) != len(group.generators):
            raise SpecSyntaxError(
                f"factor {desc!r} has {len(group.generators)} generators, "
                f"got labels {labels}"
            )
        if [label for label, _ in group.generators] != labels:
            group = group.relabeled(labels)
        factors.append(group)
    return FreeProduct(factors)


_PART_RE = re.compile(r"factor=(\d+)\s+gens=(\S+)(?:\s+conj=(\S+))?")


def _part(ambient: FreeProduct, factor: int | None, gens: str, conj: str | None) -> Part:
    """The Part generated by the comma-separated words ``gens``, conjugated
    by the word ``conj`` (the identity when empty or None).  Each generator
    must evaluate into factor ``factor``, range-checked first; with None,
    into the factor of the first one that is not the identity."""
    if factor is not None:
        ambient._check_factor(factor)
    ids = []
    for word in gens.split(","):
        sylls = parse_constant(word, ambient).syllables
        if factor is None and sylls:
            factor = sylls[0][0]
        if len(sylls) > 1 or (sylls and sylls[0][0] != factor):
            raise ForeignElementError(f"word {word!r} does not evaluate into factor {factor}")
        ids.append(sylls[0][1] if sylls else 0)
    if factor is None:
        raise SpecSyntaxError(f"part generators {gens!r} are all the identity")
    return Part.of(ambient, factor, ids, parse_constant(conj, ambient) if conj else None)


def parse_subgroup_spec(text: str, ambient: FreeProduct) -> KuroshData:
    """Build KuroshData from subgroup spec text over the given ambient."""
    free_rank = 0
    parts: list[Part] = []
    for key, rest, line in _spec_lines(text):
        if key == "free_rank":
            try:
                free_rank = int(rest)
            except ValueError as exc:
                raise SpecSyntaxError(f"bad free_rank {rest!r}") from exc
        elif key == "part":
            m = _PART_RE.fullmatch(rest)
            if not m:
                raise SpecSyntaxError(f"bad part line {line!r}")
            parts.append(_part(ambient, int(m.group(1)), m.group(2), m.group(3)))
        else:
            raise SpecSyntaxError(f"unknown line {line!r} in subgroup spec")
    return KuroshData(ambient, free_rank, tuple(parts))


def parse_ball_spec(text: str, ambient: FreeProduct) -> list[Part]:
    """Parts for enumerate_ball from a ';'-separated list.

    Each part is either ``<gens>[@<conj word>]`` with comma-separated
    generator words that all land in one factor, or the key=value form used
    in subgroup spec files.
    """
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if "=" in chunk:
            m = _PART_RE.fullmatch(chunk)
            if not m:
                raise SpecSyntaxError(f"bad ball part {chunk!r}")
            parts.append(_part(ambient, int(m.group(1)), m.group(2), m.group(3)))
        elif chunk:
            gens, _, conj = chunk.partition("@")
            parts.append(_part(ambient, None, gens, conj))
    if not parts:
        raise SpecSyntaxError("ball spec is empty")
    return parts
