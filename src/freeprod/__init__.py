"""Exact computation in free products of finite groups.

Normal forms and syllable norms, necessary-condition checks on subgroup
decompositions, explicit equation constructions with bounded solving, and
the geometry of the action on the associated tree.
"""

from .checker import (
    KuroshData,
    Verdict,
    Violation,
    check_all,
    check_condition1,
    check_condition2,
    check_condition3,
    validate,
)
from .errors import GroupError
from .finite_group import (
    FiniteGroup,
    direct_product,
    from_cayley_table,
    make_cyclic,
    make_dihedral_reflections,
)
from .free_product import (
    INFINITE,
    Ball,
    CyclicReduction,
    FPElement,
    FreeProduct,
    Part,
    enumerate_ball,
)
from .tree import (
    AxisInfo,
    CosetVertex,
    ElementVertex,
    Elliptic,
    Hyperbolic,
    act,
    axes_intersection,
    axis_vertices,
    classify,
    vertex_distance,
)
from .words import (
    Equation,
    Lemma4Construction,
    Lemma5Construction,
    MixedWord,
    Substitution,
    build_lemma4,
    build_lemma5,
    evaluate,
    parse_constant,
    parse_equation,
    parse_word,
    solve_bounded,
    theorem2_report,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteGroup",
    "FreeProduct",
    "FPElement",
    "CyclicReduction",
    "INFINITE",
    "GroupError",
    "KuroshData",
    "Part",
    "Verdict",
    "Violation",
    "MixedWord",
    "Equation",
    "Substitution",
    "Lemma4Construction",
    "Lemma5Construction",
    "AxisInfo",
    "ElementVertex",
    "CosetVertex",
    "Elliptic",
    "Hyperbolic",
    "from_cayley_table",
    "make_cyclic",
    "make_dihedral_reflections",
    "direct_product",
    "enumerate_ball",
    "Ball",
    "validate",
    "check_all",
    "check_condition1",
    "check_condition2",
    "check_condition3",
    "parse_word",
    "parse_constant",
    "parse_equation",
    "evaluate",
    "solve_bounded",
    "build_lemma4",
    "build_lemma5",
    "theorem2_report",
    "act",
    "vertex_distance",
    "classify",
    "axis_vertices",
    "axes_intersection",
]


def __getattr__(name):
    # ``freeprod.cli`` without an explicit import, imported on first use so
    # that ``python -m freeprod.cli`` does not find it imported already.
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
