"""The value semantics of freeprod's immutable records.

Every record class is built positionally, by keyword and from its
defaults; equal fields give equal records with equal hashes, records of two
classes never compare equal, the repr is ``Class(field=value!r, ...)``
unless the class writes its own, and fields can be neither assigned nor
deleted.  FiniteGroup alone compares by identity.
"""

import copy
import pickle

import pytest

from freeprod.checker import KuroshData, Verdict, Violation
from freeprod.errors import BadFactorIndexError, MixedAmbientError
from freeprod.finite_group import FiniteGroup, make_cyclic
from freeprod.free_product import CyclicReduction, FreeProduct, Part
from freeprod.tree import AxisInfo, CosetVertex, ElementVertex, Elliptic, Hyperbolic
from freeprod.words import (
    Const,
    Equation,
    Lemma4Construction,
    Lemma5Construction,
    MixedWord,
    Pow,
    Substitution,
    Theorem2CaseResult,
    Theorem2Report,
    Var,
    build_lemma4,
)

C2 = make_cyclic(2, "a")
G = FreeProduct([C2, make_cyclic(3, "b")])
A, B = G.generator("a"), G.generator("b")
E = G.identity()
AB = A * B
X1 = MixedWord(G, [Var(1)])
EQ = Equation(X1, A)
SUB = Substitution(((1, A),))
CASE = Theorem2CaseResult((1, 1, 0), (-4, 4, -4), 27, 9, ())

# class, fields in order, positional values, the defaults of the trailing
# fields, the exact repr of cls(*values)
RECORDS = [
    (KuroshData, ("ambient", "free_rank", "parts"), (G, 0, (Part(0, (0, 1), E),)), {},
     "KuroshData(ambient=FreeProduct('C2 * C3'), free_rank=0, "
     "parts=(Part(factor=0, subgroup=(0, 1), conjugator=<1>),))"),
    (Violation,
     ("kind", "factor", "part_indices", "witness_f", "witness_g", "k1", "k2", "free_rank"),
     ("condition2", 1, (0, 1), 2, 1, 1, 2, None),
     {"factor": None, "part_indices": None, "witness_f": None, "witness_g": None,
      "k1": None, "k2": None, "free_rank": None},
     "Violation(kind='condition2', factor=1, part_indices=(0, 1), witness_f=2, "
     "witness_g=1, k1=1, k2=2, free_rank=None)"),
    (Verdict, ("violations", "pairs", "table_entries"), ((), 3, 12),
     {"pairs": 0, "table_entries": 0},
     "Verdict(violations=(), pairs=3, table_entries=12)"),
    (FiniteGroup, ("name", "table", "inverses", "generators"),
     ("C2", ((0, 1), (1, 0)), (0, 1), (("a", 1),)), {},
     "FiniteGroup('C2', order=2)"),
    (CyclicReduction, ("conjugator", "core"), (A, B), {},
     "CyclicReduction(conjugator=<a>, core=<b>)"),
    (ElementVertex, ("element",), (AB,), {}, "ElementVertex(element=<a b>)"),
    (CosetVertex, ("factor", "rep"), (0, B), {}, "CosetVertex(factor=0, rep=<b>)"),
    (AxisInfo, ("conjugator", "core"), (A, B), {}, "AxisInfo(conjugator=<a>, core=<b>)"),
    (Elliptic, ("fixed_vertex",), (ElementVertex(E),), {},
     "Elliptic(fixed_vertex=ElementVertex(element=<1>))"),
    (Hyperbolic, ("axis",), (AxisInfo(E, AB),), {},
     "Hyperbolic(axis=AxisInfo(conjugator=<1>, core=<a b>))"),
    (Var, ("index", "sign"), (2, -1), {"sign": 1}, "Var(index=2, sign=-1)"),
    (Const, ("value",), (A,), {}, "Const(value=<a>)"),
    (Pow, ("body", "k"), ((Var(1), Const(B)), 3), {},
     "Pow(body=(Var(index=1, sign=1), Const(value=<b>)), k=3)"),
    (Equation, ("lhs", "rhs"), (X1, A), {}, "Equation(lhs=MixedWord(x1), rhs=<a>)"),
    (Substitution, ("assignment",), (((1, A), (2, AB)),), {},
     "Substitution(x1=a, x2=a b)"),
    (Lemma4Construction, ("f", "prime", "exponents", "solution"),
     (AB, 5, (1, 2), ("\x00", "\x02")), {},
     "Lemma4Construction(f=<a b>, prime=5, exponents=(1, 2), solution=('\\x00', '\\x02'))"),
    (Lemma5Construction, ("equation", "N", "g_solution", "f_word", "f", "g"),
     (EQ, 7, SUB, X1, B, A), {},
     "Lemma5Construction(equation=Equation(lhs=MixedWord(x1), rhs=<a>), N=7, "
     "g_solution=Substitution(x1=a), f_word=MixedWord(x1), f=<b>, g=<a>)"),
    (Theorem2CaseResult,
     ("epsilons", "exponent_coeffs", "evaluations", "bindings", "mismatches",
      "sign_variant_coeffs", "sign_variant_consistent", "merges", "rows"),
     ((1, 1, 0), (-4, 4, -4), 27, 9, ((1, 0, 0),), (-4, 0, 4), False, 5, 6),
     {"sign_variant_coeffs": None, "sign_variant_consistent": None, "merges": 0, "rows": 0},
     "Theorem2CaseResult(epsilons=(1, 1, 0), exponent_coeffs=(-4, 4, -4), evaluations=27, "
     "bindings=9, mismatches=((1, 0, 0),), sign_variant_coeffs=(-4, 0, 4), "
     "sign_variant_consistent=False, merges=5, rows=6)"),
    (Theorem2Report,
     ("k_range", "total_evaluations", "case_results", "target_hits", "embedding_image_matches"),
     (1, 27, (CASE,), (), True), {},
     "Theorem2Report(k_range=1, total_evaluations=27, case_results=(Theorem2CaseResult("
     "epsilons=(1, 1, 0), exponent_coeffs=(-4, 4, -4), evaluations=27, bindings=9, "
     "mismatches=(), sign_variant_coeffs=None, sign_variant_consistent=None, merges=0, "
     "rows=0),), target_hits=(), embedding_image_matches=True)"),
]
IDS = [r[0].__name__ for r in RECORDS]


def test_every_record_class_is_listed():
    assert len({r[0] for r in RECORDS}) == 19


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_construction_positional_keyword_and_default(cls, fields, values, defaults, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for rec in (by_position, by_keyword):
        assert tuple(getattr(rec, f) for f in fields) == values
    required = len(fields) - len(defaults)
    assert tuple(fields[required:]) == tuple(defaults)
    minimal = cls(*values[:required])
    assert {f: getattr(minimal, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:required], no_such_field=1)
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, values, defaults, text):
    first, second = cls(*values), cls(*values)
    if cls is FiniteGroup:
        assert first != second and first == first
        assert hash(first) == id(first)
        return
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != values and first != object()
    if cls in (CosetVertex, Equation):
        return  # these two read their fields' groups
    for i in range(len(fields)):
        assert cls(*values[:i], object(), *values[i + 1 :]) != first


@pytest.mark.parametrize(
    "one, other",
    [(AxisInfo(A, B), CyclicReduction(A, B)),
     (Elliptic(ElementVertex(A)), Hyperbolic(ElementVertex(A))),
     (AxisInfo(E, AB), CyclicReduction(E, AB))],
)
def test_records_of_two_classes_are_never_equal(one, other):
    assert one != other and other != one
    assert not one == other and not other == one


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_repr_is_exact(cls, fields, values, defaults, text):
    assert repr(cls(*values)) == text


def test_repr_of_a_c2_finite_group():
    assert repr(C2) == "FiniteGroup('C2', order=2)"
    assert (C2.name, C2.table, C2.inverses, C2.generators) == (
        "C2", ((0, 1), (1, 0)), (0, 1), (("a", 1),))


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, values, defaults, text):
    rec = cls(*values)
    for f, v in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(rec, f, v)
        with pytest.raises(AttributeError):
            delattr(rec, f)
        assert getattr(rec, f) is v
    with pytest.raises(AttributeError):
        rec.no_such_field = 1


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_copy_keeps_the_fields(cls, fields, values, defaults, text):
    rec = cls(*values)
    twin = copy.copy(rec)
    assert twin is not rec and type(twin) is cls
    assert all(getattr(twin, f) is getattr(rec, f) for f in fields)
    assert (twin == rec) is (cls is not FiniteGroup)


def test_records_of_plain_values_survive_pickling():
    for rec in (Var(2, -1), Violation("condition1", free_rank=2), CASE):
        assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=IDS)
def test_records_are_not_sequences(cls, fields, values, defaults, text):
    # unlike a NamedTuple: no iteration, no length, no unpacking
    assert not hasattr(cls, "__iter__") and not hasattr(cls, "__len__")


def test_coset_vertex_drops_a_trailing_syllable_of_its_own_factor():
    v = CosetVertex(1, AB)
    assert v.rep == A and v == CosetVertex(1, A)
    assert CosetVertex(0, AB).rep == AB
    assert CosetVertex(0, A).rep == E
    with pytest.raises(BadFactorIndexError, match="factor index 2 out of range"):
        CosetVertex(2, A)
    with pytest.raises(BadFactorIndexError, match="factor index -1 out of range"):
        CosetVertex(-1, A)


def test_equation_refuses_sides_in_two_ambients():
    other = FreeProduct([make_cyclic(2, "a"), make_cyclic(3, "b")])
    with pytest.raises(MixedAmbientError, match="equation sides in different ambient groups"):
        Equation(X1, other.generator("a"))


def test_finite_group_equality_is_identity():
    twin = make_cyclic(2, "a")
    assert twin != C2 and C2 == C2
    assert hash(C2) == id(C2)
    assert len({C2, twin}) == 2


def test_lemma4_construction_builds_equation_and_substitution_once():
    lem = build_lemma4(G, "a b")
    assert lem.equation is lem.equation
    assert lem.g_solution is lem.g_solution
    assert repr(lem.equation) == "Equation(lhs=MixedWord(x1 x1 x1 x1 x1 x2 x2 x2 x2 x2), rhs=<a b>)"
    assert repr(lem.g_solution) == "Substitution(x1=a, x2=b^2)"
    # the cached values are neither fields nor part of equality
    fresh = build_lemma4(G, "a b")
    assert fresh == lem and hash(fresh) == hash(lem)
    assert repr(fresh) == repr(lem)
