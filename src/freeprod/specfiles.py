"""Plain-text spec files for groups, subgroup decompositions and balls.

Group spec grammar (line oriented, '#' starts a comment):

    factors: <descriptor> ; <descriptor> ; ...
    labels:  <l1,l2> ; <l> ; ...

A descriptor is ``cyclic <n>``, ``dihedral <n>``, ``product [<d>, <d>]``
(components may nest) or ``table rows=<r0>:<r1>:... gens=<id,id>`` with
comma-separated row entries.  The labels line carries one comma-separated
label list per factor, arity matching the factor's generator count.

Subgroup spec:

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

import re

from .checker import KuroshData
from .errors import ForeignElementError, SpecSyntaxError
from .finite_group import (
    FiniteGroup,
    direct_product,
    from_cayley_table,
    make_cyclic,
    make_dihedral_reflections,
)
from .free_product import FreeProduct, Part
from .words import parse_constant


def _strip_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


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


_AUTO = 0


def _fresh_label() -> str:
    global _AUTO
    _AUTO += 1
    return f"tmp{_AUTO}"


def _build_descriptor(text: str) -> FiniteGroup:
    text = text.strip()
    m = re.fullmatch(r"cyclic\s+(\d+)", text)
    if m:
        return make_cyclic(int(m.group(1)), _fresh_label())
    m = re.fullmatch(r"dihedral\s+(\d+)", text)
    if m:
        return make_dihedral_reflections(int(m.group(1)), (_fresh_label(), _fresh_label()))
    m = re.fullmatch(r"product\s*\[(.*)\]", text, re.S)
    if m:
        comps = _split_top(m.group(1), ",")
        if len(comps) < 2:
            raise SpecSyntaxError(f"product needs at least two components: {text!r}")
        group = _build_descriptor(comps[0])
        for comp in comps[1:]:
            group = direct_product(group, _build_descriptor(comp))
        return group
    m = re.fullmatch(r"table\s+rows=(\S+)\s+gens=(\S+)", text)
    if m:
        try:
            rows = [
                [int(x) for x in row.split(",")] for row in m.group(1).split(":")
            ]
            gen_ids = [int(x) for x in m.group(2).split(",")]
        except ValueError as exc:
            raise SpecSyntaxError(f"bad table descriptor: {text!r}") from exc
        gens = [(_fresh_label(), g) for g in gen_ids]
        return from_cayley_table(rows, gens)
    raise SpecSyntaxError(f"unknown factor descriptor {text!r}")


def parse_group_spec(text: str) -> FreeProduct:
    """Build a FreeProduct from group spec text."""
    factors_line = labels_line = None
    for line in _strip_lines(text):
        key, _, rest = line.partition(":")
        key = key.strip()
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
    for desc, labels in zip(descriptors, label_lists):
        group = _build_descriptor(desc)
        if len(labels) != len(group.generators):
            raise SpecSyntaxError(
                f"factor {desc!r} has {len(group.generators)} generators, "
                f"got labels {labels}"
            )
        factors.append(group.relabeled(labels))
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
    for line in _strip_lines(text):
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
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
