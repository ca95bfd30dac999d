"""The tree a free product acts on, and the geometry of that action.

Vertices are of two kinds: an element vertex for every group element g, and
a coset vertex for every coset g*G_i of a factor.  An element vertex g is
adjacent to the coset vertex of g*G_i for every factor i, which makes the
graph a bipartite tree; the group acts by left multiplication.  Distances
are measured in edges; one syllable of normal form corresponds to two
edges (element vertex to element vertex through one coset vertex).

The tree is never materialized: vertices are computed lazily from normal
forms, and axes are produced as finite windows of consecutive vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    BadFactorIndexError,
    MixedAmbientError,
    NotHyperbolicError,
    VerificationError,
)
from .free_product import FPElement, FreeProduct, _render


@dataclass(frozen=True)
class ElementVertex:
    element: FPElement

    def render(self) -> str:
        return f"E:{self.element.as_word()}"


@dataclass(frozen=True)
class CosetVertex:
    """The coset rep*G_factor; the stored rep is canonical, i.e. its normal
    form has no trailing syllable in the given factor."""

    factor: int
    rep: FPElement

    def __post_init__(self) -> None:
        group = self.rep.group
        if not 0 <= self.factor < len(group.factors):
            raise BadFactorIndexError(f"factor index {self.factor} out of range")
        ids = self.rep.ids
        if ids and group.codec.factor[ids[-1]] == self.factor:
            object.__setattr__(self, "rep", FPElement(group, ids[:-1]))

    def render(self) -> str:
        return f"C{self.factor}:{self.rep.as_word()}"


TreeVertex = Union[ElementVertex, CosetVertex]


def _vertex_rep(v: TreeVertex) -> FPElement:
    """The element of an element vertex, the canonical rep of a coset one."""
    return v.element if isinstance(v, ElementVertex) else v.rep


def _vertex_group(v: TreeVertex) -> FreeProduct:
    return _vertex_rep(v).group


def act(h: FPElement, v: TreeVertex) -> TreeVertex:
    """Left action on vertices; preserves adjacency and vertex kind."""
    if h.group is not _vertex_group(v):
        raise MixedAmbientError("element and vertex live in different ambient groups")
    if isinstance(v, ElementVertex):
        return ElementVertex(h * v.element)
    return CosetVertex(v.factor, h * v.rep)


def vertex_distance(v: TreeVertex, w: TreeVertex) -> int:
    """Tree metric in edge units.

    With u = rep(v)^-1 rep(w) (see _vertex_rep), two distinct vertices lie
    2 |u| edges apart plus one per coset vertex among them, less 2 at each
    coset end whose factor holds u's syllable at that end (that syllable
    stays inside the coset).  So distances between element vertices are
    even and mixed distances odd.
    """
    if _vertex_group(v) is not _vertex_group(w):
        raise MixedAmbientError("vertices live in different ambient groups")
    if v == w:
        return 0
    u = _vertex_rep(v).inverse() * _vertex_rep(w)
    ids, factor = u.ids, u.group.codec.factor
    distance = 2 * u.norm
    for end, i in ((v, 0), (w, -1)):
        if isinstance(end, CosetVertex):
            distance += -1 if ids and factor[ids[i]] == end.factor else 1
    return distance


@dataclass(frozen=True)
class AxisInfo:
    """Invariant line of a hyperbolic element = conjugator * core * conj^-1;
    the element translates its axis by 2 * |core| edges."""

    conjugator: FPElement
    core: FPElement

    @property
    def translation_length_edges(self) -> int:
        return 2 * self.core.norm


@dataclass(frozen=True)
class Elliptic:
    fixed_vertex: TreeVertex


@dataclass(frozen=True)
class Hyperbolic:
    axis: AxisInfo


Classification = Union[Elliptic, Hyperbolic]


def classify(u: FPElement) -> Classification:
    """Fixed vertex or invariant line.

    Identity fixes everything (the reported vertex is the base element
    vertex); a conjugate c*d*c^-1 of a factor element fixes the coset
    vertex c*G_i; everything else is hyperbolic.  Elliptic if and only if
    the element has finite order.
    """
    red = u.cyclic_reduce()
    core = red.core
    if core.norm == 0:
        return Elliptic(ElementVertex(u.group.identity()))
    if core.norm == 1:
        return Elliptic(CosetVertex(u.group.codec.factor[core.ids], red.conjugator))
    return Hyperbolic(AxisInfo(red.conjugator, core))


def _require_hyperbolic(u: FPElement) -> AxisInfo:
    cls = classify(u)
    if isinstance(cls, Elliptic):
        raise NotHyperbolicError(f"{u.as_word()} fixes a vertex and has no axis")
    return cls.axis


def axis_vertices(u: FPElement, window: int) -> list[TreeVertex]:
    """Consecutive vertices of the axis covering ``window`` translation
    periods on both sides of the base point.

    For core d_1 ... d_m the element vertices are c * core^k * (d_1..d_j)
    for k in [-window, window], interleaved with the coset vertices joining
    consecutive ones.  Every listed vertex is moved exactly the translation
    length by u.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    return _axis_window(_require_hyperbolic(u), window)


def _axis_window(axis: AxisInfo, window: int) -> list[TreeVertex]:
    """axis_vertices for an element already classified as hyperbolic."""
    c, core = axis.conjugator, axis.core
    group = c.group
    factor = group.codec.factor
    out: list[TreeVertex] = []
    base = c * core.power(-window)
    for _ in range(-window, window + 1):
        current = base
        for x in core.ids:
            out.append(ElementVertex(current))
            out.append(CosetVertex(factor[x], current))
            current = current * FPElement(group, x)
        base = current
    return out


def _render_window(
    conjugator: FPElement, vertices: list[TreeVertex]
) -> tuple[str, list[str], int]:
    """(conjugator.as_word(), [v.render() for v in vertices], syllables
    rendered) for a window of the axis of c * core * c^-1, with c the
    conjugator.

    Every vertex of such a window starts with the head c minus its last
    syllable: c * core^k * (d_1..d_j) extends c for k >= 0, and for k < 0
    the last syllable of c merges with the first of core^-1 without
    cancelling (the split is reduced).  The head is rendered once, block
    by block as as_word renders (see free_product._render), and each
    vertex as the head's text plus its remaining syllables; that the vertex
    starts with the head is checked per vertex, and a vertex that does not
    is rendered in full.
    """
    codec = conjugator.group.codec
    texts = codec.texts
    head = conjugator.ids[:-1]
    n = len(head)
    head_text = _render(codec, head)
    rendered = conjugator.norm
    if n:
        conj_text = f"{head_text} {texts[conjugator.ids[-1]]}"
    else:
        conj_text = conjugator.as_word()  # at most one syllable
    out = []
    for v in vertices:
        ids = _vertex_rep(v).ids
        if n and ids.startswith(head):
            tag = "E:" if isinstance(v, ElementVertex) else f"C{v.factor}:"
            rest = ids[n:]
            out.append("".join([tag, head_text, *[" " + texts[x] for x in rest]]))
            rendered += len(rest)
        else:
            out.append(v.render())
            rendered += len(ids)
    return conj_text, out, rendered


def axes_intersection(u: FPElement, v: FPElement, window: int) -> int | None:
    """Edge length of the common segment of the two axis windows.

    Returns 0 for a single shared vertex and None when the windows are
    disjoint.  The result is window-relative: it equals the true
    intersection once the window is large enough to contain it.
    """
    averts = axis_vertices(u, window)
    bverts = set(axis_vertices(v, window))
    positions = [i for i, vert in enumerate(averts) if vert in bverts]
    if not positions:
        return None
    # Two geodesics in a tree meet in a path, so positions are contiguous.
    if positions != list(range(positions[0], positions[-1] + 1)):
        raise VerificationError("axis windows meet in a non-contiguous set")
    return positions[-1] - positions[0]
