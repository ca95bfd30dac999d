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
from .free_product import FPElement, FreeProduct


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
        sylls = self.rep.syllables
        if sylls and sylls[-1][0] == self.factor:
            object.__setattr__(self, "rep", FPElement(group, sylls[:-1]))

    def render(self) -> str:
        return f"C{self.factor}:{self.rep.as_word()}"


TreeVertex = Union[ElementVertex, CosetVertex]


def _vertex_group(v: TreeVertex) -> FreeProduct:
    return v.element.group if isinstance(v, ElementVertex) else v.rep.group


def act(h: FPElement, v: TreeVertex) -> TreeVertex:
    """Left action on vertices; preserves adjacency and vertex kind."""
    if h.group is not _vertex_group(v):
        raise MixedAmbientError("element and vertex live in different ambient groups")
    if isinstance(v, ElementVertex):
        return ElementVertex(h * v.element)
    return CosetVertex(v.factor, h * v.rep)


def vertex_distance(v: TreeVertex, w: TreeVertex) -> int:
    """Tree metric in edge units.

    Distances between element vertices are even (2 * syllable norm of the
    quotient), mixed distances odd; everything reduces to the normal form
    of the relative position.
    """
    if _vertex_group(v) is not _vertex_group(w):
        raise MixedAmbientError("vertices live in different ambient groups")
    if isinstance(v, CosetVertex) and isinstance(w, ElementVertex):
        v, w = w, v
    if isinstance(v, ElementVertex):
        if isinstance(w, ElementVertex):
            return 2 * (v.element.inverse() * w.element).norm
        u = v.element.inverse() * w.rep
        k = u.norm
        if u.syllables and u.syllables[-1][0] == w.factor:
            k -= 1
        return 2 * k + 1
    if v == w:
        return 0
    u = v.rep.inverse() * w.rep
    k = u.norm
    if u.syllables and u.syllables[0][0] == v.factor:
        k -= 1
    if u.syllables and u.syllables[-1][0] == w.factor:
        k -= 1
    return 2 * k + 2


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
        factor = core.syllables[0][0]
        return Elliptic(CosetVertex(factor, red.conjugator))
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
    axis = _require_hyperbolic(u)
    group = u.group
    c, core = axis.conjugator, axis.core
    out: list[TreeVertex] = []
    base = c * core.power(-window)
    for _ in range(-window, window + 1):
        current = base
        for f, e in core.syllables:
            out.append(ElementVertex(current))
            out.append(CosetVertex(f, current))
            current = current * FPElement(group, ((f, e),))
        base = current
    return out


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
