"""Words with variables, equation evaluation and bounded solving.

The word grammar (exact):

    word := term+
    term := atom ('^' (int | atom))?
    atom := VARNAME | GENLABEL | '1' | '(' word ')' | '[' word ',' word ']'

VARNAME matches x[0-9]+; int is a signed decimal.  A MixedWord is a
sequence of items: variable letters (Var), constant letters (Const) and
powers (Pow).  ``u^k`` with |k| >= 2 stays one item Pow(u, k), so the word
and the cost of evaluating it do not grow with k; ``u^1`` is u and ``u^-1``
is u inverted item by item, so ``x2^-1`` is the letter Var(2, -1).  ``h^g``
denotes the conjugate g*h*g^-1, desugared into items.  ``[u, v]`` denotes
the commutator u*v*u^-1*v^-1 and stays one item, the group
Pow(u v u^-1 v^-1, 1), so equal commutators are equal items; a power of it
is a power of its body and its inverse is Pow(body, -1).  ``1`` is the
identity (it contributes no items).
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from itertools import groupby
from itertools import product as _cartesian
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from ._record import _Record, _set
from .errors import (
    EmptyCandidatesError,
    EmptyWordError,
    GroupError,
    MixedAmbientError,
    PowerTooLargeError,
    UnboundVariableError,
    UnknownGeneratorError,
    VerificationError,
    WordSyntaxError,
)
from .free_product import (
    INFINITE,
    MAX_POWER_SYLLABLES,
    Ball,
    CyclicReduction,
    FPElement,
    FreeProduct,
    _ball_elements,
    _centralizer,
    _conjugator,
    _cyclic_split,
    _inverse_syllables,
    _product,
    _seam_merge,
    _split_power,
    power_syllables,
)

_VARIABLE_RE = re.compile(r"x([0-9]+)")


class Var(_Record):
    __slots__ = ("index", "sign")

    def __init__(self, index: int, sign: int = 1):
        _set(self, "index", index)
        _set(self, "sign", sign)


class Const(_Record):
    __slots__ = ("value",)

    def __init__(self, value: FPElement):
        _set(self, "value", value)


class Pow(_Record):
    """body^k as one item; its inverse is Pow(body, -k).  With k = 1 it is a
    group, such as a commutator: one item whose body is evaluated in place."""

    __slots__ = ("body", "k")

    def __init__(self, body: tuple[Item, ...], k: int):
        _set(self, "body", body)
        _set(self, "k", k)


Item = Var | Const | Pow


class MixedWord:
    """A word over variables x1, x2, ... and constants of one ambient group.

    ``letters`` is the tuple of top-level items; a power is one Pow item
    however large its exponent.
    """

    __slots__ = ("group", "letters")

    def __init__(self, group: FreeProduct, letters: Iterable[Item]):
        letters = tuple(letters)
        _check_ambient(letters, group)
        self.group = group
        self.letters = letters

    def free_variables(self) -> tuple[int, ...]:
        return tuple(sorted(_variables(self.letters)))

    def concat(self, other: MixedWord) -> MixedWord:
        if other.group is not self.group:
            raise MixedAmbientError("words over different ambient groups")
        return MixedWord(self.group, self.letters + other.letters)

    def inverse(self) -> MixedWord:
        return MixedWord(self.group, _invert(self.letters))

    def repeat(self, k: int) -> MixedWord:
        return MixedWord(self.group, _power(self.letters, k))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedWord):
            return NotImplemented
        return self.group is other.group and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return _render(self.letters)

    def __repr__(self) -> str:
        return f"MixedWord({self})"


def _render(items: Sequence[Item]) -> str:
    bits = []
    for l in items:
        if isinstance(l, Var):
            bits.append(f"x{l.index}" + ("" if l.sign > 0 else "^-1"))
        elif isinstance(l, Const):
            v = l.value.as_word()
            bits.append(v if " " not in v else f"({v})")
        elif l.k == 1:
            bits.append(f"({_render(l.body)})")
        else:
            bits.append(f"({_render(l.body)})^{l.k}")
    return " ".join(bits) or "1"


def _check_ambient(items: Sequence[Item], group: FreeProduct) -> None:
    for l in items:
        if isinstance(l, Const) and l.value.group is not group:
            raise MixedAmbientError("constant from a different ambient group")
        if isinstance(l, Pow):
            _check_ambient(l.body, group)


def _variables(items: Sequence[Item]) -> set[int]:
    out: set[int] = set()
    for l in items:
        if isinstance(l, Var):
            out.add(l.index)
        elif isinstance(l, Pow):
            out |= _variables(l.body)
    return out


def _invert(items: Sequence[Item]) -> tuple[Item, ...]:
    out: list[Item] = []
    for l in reversed(items):
        if isinstance(l, Var):
            out.append(Var(l.index, -l.sign))
        elif isinstance(l, Const):
            out.append(Const(l.value.inverse()))
        else:
            out.append(Pow(l.body, -l.k))
    return tuple(out)


def _power(items: tuple[Item, ...], k: int) -> tuple[Item, ...]:
    if k == 1:
        return items
    if k == -1:
        return _invert(items)
    if k == 0 or not items:
        return ()
    if len(items) == 1 and type(items[0]) is Pow and items[0].k == 1:
        return (Pow(items[0].body, k),)  # a power of a group powers its body
    return (Pow(items, k),)


def _expand(items: Sequence[Item]) -> tuple[Item, ...]:
    """The items with each Pow written out as copies of its body."""
    out: list[Item] = []
    for l in items:
        if isinstance(l, Pow):
            body = _expand(l.body)
            if l.k < 0:
                body = _invert(body)
            size = len(body) * abs(l.k)
            if size > MAX_POWER_SYLLABLES:
                raise PowerTooLargeError(
                    f"expanding a power gives {size} letters, above the cap of "
                    f"{MAX_POWER_SYLLABLES}"
                )
            out.extend(body * abs(l.k))
        else:
            out.append(l)
    return tuple(out)


class Equation(_Record):
    """lhs(x1, ..., xn) = rhs with rhs a constant group element."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: MixedWord, rhs: FPElement):
        if rhs.group is not lhs.group:
            raise MixedAmbientError("equation sides in different ambient groups")
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Substitution(_Record):
    """Assignment of group elements to variable indices."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[tuple[int, FPElement], ...]):
        _set(self, "assignment", assignment)

    @classmethod
    def of(cls, mapping: Mapping[int, FPElement]) -> Substitution:
        return cls(tuple(sorted(mapping.items())))

    def __getitem__(self, index: int) -> FPElement:
        for i, v in self.assignment:
            if i == index:
                return v
        raise KeyError(index)

    def __repr__(self) -> str:
        inner = ", ".join(f"x{i}={v.as_word()}" for i, v in self.assignment)
        return f"Substitution({inner})"


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>[0-9]+)|(?P<sym>[\^()\[\],-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordSyntaxError(f"bad character {text[pos:].strip()[0]!r} in word")
            break
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


class _WordParser:
    """Recursive-descent parser for word text.  Given ``variables`` (label
    -> index), it reads each generator label as that variable and refuses
    every other identifier, x1 included, as an unknown generator."""

    def __init__(self, text: str, group: FreeProduct, variables: dict[str, int] | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.group = group
        self.variables = variables

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of word")
        self.pos += 1
        return tok

    def expect(self, sym: str) -> None:
        tok = self.take()
        if tok != ("sym", sym):
            raise WordSyntaxError(f"expected {sym!r}, got {tok[1]!r}")

    def parse(self) -> tuple[Item, ...]:
        # The parser recurses once per nesting level.
        try:
            letters = self.word()
        except RecursionError:
            raise WordSyntaxError("word is nested too deeply") from None
        if self.peek() is not None:
            raise WordSyntaxError(f"trailing input near {self.peek()[1]!r}")
        return letters

    def word(self) -> tuple[Item, ...]:
        out: list[Item] = []
        first = True
        while True:
            tok = self.peek()
            if tok is None or tok == ("sym", ")") or tok == ("sym", "]") or tok == ("sym", ","):
                if first:
                    raise WordSyntaxError("empty word")
                return tuple(out)
            out.extend(self.term())
            first = False

    def term(self) -> tuple[Item, ...]:
        base = self.atom()
        if self.peek() == ("sym", "^"):
            self.take()
            tok = self.peek()
            if tok is None:
                raise WordSyntaxError("dangling '^'")
            if tok == ("sym", "-"):
                self.take()
                kind, text = self.take()
                if kind != "num":
                    raise WordSyntaxError("expected an integer after '^-'")
                return _power(base, -int(text))
            if tok[0] == "num":
                self.take()
                return _power(base, int(tok[1]))
            conj = self.atom()
            return conj + base + _invert(conj)
        return base

    def atom(self) -> tuple[Item, ...]:
        kind, text = self.take()
        if kind == "ident":
            if self.variables is not None:
                if text not in self.variables:
                    raise UnknownGeneratorError(f"unknown generator {text!r}")
                return (Var(self.variables[text]),)
            m = _VARIABLE_RE.fullmatch(text)
            if m:
                return (Var(int(m.group(1))),)
            if text not in self.group.generator_map:
                raise UnknownGeneratorError(f"unknown generator {text!r}")
            return (Const(self.group.generator(text)),)
        if kind == "num":
            if text == "1":
                return ()
            raise WordSyntaxError(f"unexpected number {text!r}; only 1 denotes the identity")
        if text == "(":
            inner = self.word()
            self.expect(")")
            return inner
        if text == "[":
            u = self.word()
            self.expect(",")
            v = self.word()
            self.expect("]")
            body = u + v + _invert(u) + _invert(v)
            return (Pow(body, 1),) if body else ()
        raise WordSyntaxError(f"unexpected {text!r}")


def parse_word(text: str, group: FreeProduct) -> MixedWord:
    """Parse word text into a MixedWord; powers stay Pow items.

    The parser recurses once per nesting level, so a word nested deeper
    than the interpreter's recursion limit is a WordSyntaxError.
    """
    return MixedWord(group, _WordParser(text, group).parse())


def parse_constant(text: str, group: FreeProduct) -> FPElement:
    """Parse a variable-free word and return its normal form."""
    word = parse_word(text, group)
    if word.free_variables():
        raise WordSyntaxError(f"word {text!r} must not contain variables")
    return evaluate(word, {})


def parse_equation(text: str, group: FreeProduct) -> Equation:
    """Parse ``<word> = <constant word>`` into an Equation."""
    if text.count("=") != 1:
        raise WordSyntaxError("an equation needs exactly one '='")
    lhs_text, rhs_text = text.split("=")
    return Equation(parse_word(lhs_text, group), parse_constant(rhs_text, group))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(word: MixedWord, substitution) -> FPElement:
    """Substitute and reduce; the substitution must cover all free variables,
    and each of its values must be an element of the word's group.

    A Pow item's body is evaluated once and powered by power_syllables, so
    the cost does not grow with the exponent.
    """
    if isinstance(substitution, Substitution):
        substitution = substitution.assignment
    assignment = {}
    for i, value in dict(substitution).items():
        if not isinstance(value, FPElement) or value.group is not word.group:
            raise MixedAmbientError(f"value for x{i} has wrong ambient")
        assignment[i] = value.ids
    return FPElement(word.group, _evaluate_syllables(word.letters, word.group, assignment, {}))


def _evaluate_syllables(items: Sequence[Item], group: FreeProduct, assignment, inverses) -> str:
    """The value of ``items`` as a reduced id string, each variable's
    value given as a reduced id string: its flat references (see
    _flat_refs), filled (see _fill) and joined in one seam merge."""
    codec = group.codec
    return _seam_merge(codec, "", _fill(_flat_refs(items, codec), codec, assignment, inverses))


def _flat_refs(items: Sequence[Item], codec, sign: int = 1) -> list:
    """The references whose values, joined in one seam merge, give the
    value of ``items`` (of its inverse for ``sign`` = -1): (index, sign)
    for each variable, the id string of each constant, and a group or its
    inverse (a Pow with k = +-1) spliced in, its body walked in reverse
    with every sign flipped when the sign is -1, so that a constant there
    is inverted.  Any other Pow stays one entry, Pow(its body's
    references, k), its exponent negated under an inversion.  A word is
    flattened once and filled once per substitution."""
    out: list = []
    for item in items if sign > 0 else reversed(items):
        kind = type(item)
        if kind is Var:
            out.append((item.index, item.sign * sign))
        elif kind is Const:
            out.append(item.value.ids if sign > 0 else _inverse_syllables(codec, item.value.ids))
        elif item.k == 1 or item.k == -1:
            out += _flat_refs(item.body, codec, sign * item.k)
        else:
            out.append(Pow(tuple(_flat_refs(item.body, codec)), sign * item.k))
    return out


def _fill(refs: Sequence, codec, assignment, inverses: dict) -> list:
    """The values of flat references (see _flat_refs), for an assignment
    of reduced id strings to variable indices: a variable's value, or its
    inverse, computed once per value and kept in ``inverses``; a constant
    as it is; a kept Pow's body filled and merged (one piece is not
    merged), then raised by power_syllables."""
    pieces = []
    for r in refs:
        kind = type(r)
        if kind is tuple:
            try:
                s = assignment[r[0]]
            except KeyError:
                raise UnboundVariableError(f"x{r[0]} is unbound") from None
            if r[1] < 0:
                inv = inverses.get(s)
                if inv is None:
                    inv = inverses[s] = _inverse_syllables(codec, s)
                s = inv
            pieces.append(s)
        elif kind is str:
            pieces.append(r)
        else:
            body = _fill(r.body, codec, assignment, inverses)
            body = body[0] if len(body) == 1 else _seam_merge(codec, "", body)
            pieces.append(power_syllables(codec, body, r.k))
    return pieces


def _run_value(codec, refs: Sequence, values, inverses: dict) -> str:
    """The value of a run, a product of letters given by its flat
    references (see _flat_refs), as a reduced id string: a variable's value
    read as ``values[index]``, or its inverse, computed once per value and
    kept in ``inverses``; a constant as it is; the pieces folded by
    _product, so a seam that joins two factors is a concatenation."""
    out = ""
    for r in refs:
        if type(r) is str:
            s = r
        else:
            s = values[r[0]]
            if r[1] < 0:
                inv = inverses.get(s)
                if inv is None:
                    inv = inverses[s] = _inverse_syllables(codec, s)
                s = inv
        out = _product(codec, out, s) if out else s
    return out


# ---------------------------------------------------------------------------
# partial evaluation: a word compiled once, with one variable y left free


def _compile(steps) -> list[tuple]:
    """Each step, a tuple of references (index, k), as (gather, powers):
    gather(vals) is the tuple of its input values, gathered in C by an
    itemgetter from two inputs up, and powers holds (position, k) for each
    input with k != 1."""
    ops = []
    for step in steps:
        inputs = [i for i, _ in step]
        if len(inputs) >= 2:
            gather = itemgetter(*inputs)
        elif inputs:  # an itemgetter of one index returns the value, not a tuple
            gather = lambda vals, i=inputs[0]: (vals[i],)  # noqa: E731
        else:
            gather = lambda vals: ()  # noqa: E731
        ops.append((gather, tuple((j, k) for j, (_, k) in enumerate(step) if k != 1)))
    return ops


def _merge(codec, args: tuple, powers: tuple) -> str:
    """The value of one step from its input values ``args``: one seam
    merge of them, the inputs in ``powers`` first raised to their k (an
    inversion for k = -1, with no power_syllables call); one input, raised
    or not, is the value itself, with no merge.  This is the one kernel
    for a product of references: every compiled step, the _Program's and
    the split solvers', is run by it."""
    if powers:
        args = list(args)
        for j, k in powers:
            s = args[j]
            args[j] = _inverse_syllables(codec, s) if k == -1 else power_syllables(codec, s, k)
    return args[0] if len(args) == 1 else _seam_merge(codec, "", args)


def _execute(codec, vals: list, ops) -> list:
    """Append the value of each compiled step to ``vals`` and return it."""
    for gather, powers in ops:
        vals.append(_merge(codec, gather(vals), powers))
    return vals


class _Program:
    """A word compiled for evaluation with one variable y left free: a
    straight-line program over reduced id strings, whose values sit
    in one list of three parts.

    - y's values: y, y^-1, the constant sub-words and the pure steps, which
      depend on y alone (such as y^3).  ``y_values`` computes them once per
      value of y.
    - The runs, the maximal runs of letters (Var and Const items) free of y
      that hold another variable, at every nesting level, each kept once up
      to inversion (a lone letter with sign 1), and the bound steps, what
      lies between them (such as a run's inverse or power).  ``bind``
      computes both once per binding of the other variables, each run
      folded from its flat references, kept in ``run_refs`` (see
      _flat_refs and _run_value).
    - The steps: one seam merge per distinct sub-word that holds y and
      another variable.  ``run`` evaluates them for one value of y and one
      binding; a _Memo runs them once per distinct tuple of input values
      instead.

    Equal sub-words are one value, so a commutator used twice is merged
    once; a group or its inverse (a Pow with k = +-1) that holds y and is
    used once is spliced into its parent's merge instead, the body
    inverted when k = -1; a sub-word free of y is one reference with k = 1.
    Every step is a tuple of references (index, k) to earlier values, each
    applying the exponent of its Pow (see _merge), and (u^j)^k is u^(jk).
    A step is the product of its references, so by associativity ``run``
    gives exactly the normal form ``evaluate`` gives for the same values.
    The pure steps, the bound steps and the steps are compiled once (see
    _compile) into ``pure_ops``, ``bound_ops`` and ``step_ops``, which
    ``y_values``, ``bound_values``, ``run`` and a _Memo execute.

    The program also owns the split that solve_bounded's split solvers
    read.  When the word is one step whose references all have k = 1, its
    references to y and y^-1 cut it into W0 y^s1 W1 [y^s2 W2 ...]: ``signs``
    holds s1, s2, ... and ``pieces`` the references of W0, W1, ..., each
    bound step of one reference read through.  ``split_values`` lays out
    the values the pieces refer to, computing the bound steps only when a
    piece still refers to one (``deep``), and ``split_width`` is its length.
    Otherwise ``signs`` is empty.
    """

    __slots__ = ("group", "consts", "pure", "runs", "run_refs", "bound", "steps", "result",
                 "needs_inverse", "head", "pure_ops", "bound_ops", "step_ops", "signs", "pieces",
                 "deep", "split_width")

    def __init__(self, items: Sequence[Item], group: FreeProduct, y: int):
        self.group = group
        # Nodes are hash-consed by (kind, data): "y" (ids 0 and 1), "const"
        # (id strings), "run" (letters), "bound" and "step" (references).
        nodes: list[tuple[str, object]] = [("y", 1), ("y", -1)]
        pure = [True, True]
        ids: dict[tuple[str, object], int] = {}
        uses: dict[tuple[Item, ...], int] = {}

        def node(kind: str, data, is_pure: bool = False) -> int:
            key = (kind, data)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(nodes)
                nodes.append(key)
                pure.append(is_pure)
            return i

        def holds(item: Item) -> bool:
            if type(item) is Var:
                return item.index == y
            return type(item) is Pow and y in _variables(item.body)

        def count(body: Sequence[Item]) -> None:
            for item in body:
                if type(item) is Pow and holds(item):
                    uses[item.body] = uses.get(item.body, 0) + 1
                    if uses[item.body] == 1:
                        count(item.body)

        def inline(body: Sequence[Item]):
            for item in body:
                if type(item) is Pow and abs(item.k) == 1 and holds(item) and uses[item.body] == 1:
                    yield from inline(_power(item.body, item.k))
                else:
                    yield item

        def free(body: Sequence[Item]) -> list[tuple[int, int]]:
            """References whose product is ``body``, a sub-word free of y:
            its runs, each kept once up to inversion, the powers between
            them, and its parts free of variables, folded into constants."""
            if not _variables(body):
                sylls = _evaluate_syllables(body, group, {}, {})
                return [(node("const", sylls, True), 1)] if sylls else []
            out: list[tuple[int, int]] = []
            for is_pow, items in groupby(body, lambda item: type(item) is Pow):
                for part in [(item,) for item in items] if is_pow else [tuple(items)]:
                    if not _variables(part):
                        out += free(part)
                    elif is_pow:  # (u^j)^k is u^(jk)
                        found, k = free(part[0].body), part[0].k
                        out.append((found[0][0], found[0][1] * k) if len(found) == 1
                                   else (node("bound", tuple(found)), k))
                    elif ("run", part) not in ids and (
                        ("run", _invert(part)) in ids or len(part) == 1 and part[0].sign < 0
                    ):
                        out.append((node("run", _invert(part)), -1))
                    else:
                        out.append((node("run", part), 1))
            return out

        def refs(body: Sequence[Item]) -> list[tuple[int, int]]:
            out: list[tuple[int, int]] = []
            for held, items in groupby(inline(body), holds):
                if not held:  # a stretch free of y: one reference with k = 1
                    found = free(tuple(items))
                    if len(found) == 1 and found[0][1] == 1:
                        out += found
                    elif found:
                        out.append((node("bound", tuple(found)), 1))
                    continue
                for item in items:
                    if type(item) is Var:
                        out.append((0 if item.sign > 0 else 1, 1))
                        continue
                    i, j = value(item.body)
                    k = j * item.k
                    if pure[i] and k != 1:
                        # a power of a value that depends on y alone: a pure step
                        i, k = node("step", ((i, k),), True), 1
                    out.append((i, k))
            return out

        def value(body: Sequence[Item]) -> tuple[int, int]:
            found = refs(body)
            if len(found) == 1:
                return found[0]
            found = tuple(found)
            return node("step", found, all(pure[i] for i, _ in found)), 1

        count(items)
        root, k = value(tuple(items))
        if nodes[root][0] != "step" or k != 1:
            root = node("step", ((root, k),), pure[root])

        const_ids, pure_ids, run_ids, bound_ids, step_ids = (
            [i for i, (kd, _) in enumerate(nodes) if (kd, pure[i]) == part] for part in
            (("const", True), ("step", True), ("run", False), ("bound", False), ("step", False)))
        order = [0, 1, *const_ids, *pure_ids, *run_ids, *bound_ids, *step_ids]
        index = {i: n for n, i in enumerate(order)}
        self.consts, self.runs = ([nodes[i][1] for i in part] for part in (const_ids, run_ids))
        self.run_refs = [_flat_refs(run, group.codec) for run in self.runs]
        self.pure, self.bound, self.steps = (
            [tuple((index[j], k) for j, k in nodes[i][1]) for i in part]
            for part in (pure_ids, bound_ids, step_ids))
        self.result = index[root]
        self.needs_inverse = any(j == 1 for i in pure_ids + step_ids for j, _ in nodes[i][1])
        # y's part of the value list, as the bound steps read it
        self.head = ["", "", *self.consts, *[""] * len(pure_ids)]
        self.pure_ops, self.bound_ops, self.step_ops = map(_compile,
                                                           (self.pure, self.bound, self.steps))
        self.signs, pieces = [], [[]]
        if len(pure_ids) + len(step_ids) == 1 and all(k == 1 for _, k in nodes[root][1]):
            for i, _ in nodes[root][1]:
                if i < 2:
                    self.signs.append(1 - 2 * i)
                    pieces.append([])
                else:
                    kind, data = nodes[i]
                    pieces[-1].append(data[0] if kind == "bound" and len(data) == 1 else (i, 1))
        self.pieces = [[(index[i], k) for i, k in piece] for piece in pieces]
        self.deep = any(nodes[i][0] == "bound" for piece in pieces for i, _ in piece)
        # no piece refers to a pure step, so split_values leaves them out
        self.split_width = 2 + len(self.consts) + len(self.runs) + (
            len(self.bound) if self.deep else 0)

    def y_values(self, y: str) -> list:
        """y's part of the value list, for the reduced id string ``y`` of y."""
        codec = self.group.codec
        inverse = _inverse_syllables(codec, y) if self.needs_inverse else ""
        return _execute(codec, [y, inverse, *self.consts], self.pure_ops)

    def bound_values(self, runs: Sequence[str]) -> list:
        """The runs' part of the value list, from the runs' values: the
        runs, then the bound steps."""
        head = self.head
        return _execute(self.group.codec, [*head, *runs], self.bound_ops)[len(head):]

    def split_values(self, rhs: str, runs: Sequence[str]) -> list:
        """The values the split's ``pieces`` refer to, from the right side
        ``rhs`` and the runs' values: rhs in y^-1's place (y's is empty),
        so that it is one more reference, then the constants, the runs and,
        when ``deep``, the bound steps."""
        return ["", rhs, *self.consts, *(self.bound_values(runs) if self.deep else runs)]

    def bind(self, assignment) -> list:
        """The runs' part of the value list, for a binding of every
        variable but y to reduced id strings: each run's value (see
        _run_value), then the bound steps."""
        codec, inverses = self.group.codec, {}
        try:
            runs = [_run_value(codec, refs, assignment, inverses) for refs in self.run_refs]
        except KeyError as exc:
            raise UnboundVariableError(f"x{exc.args[0]} is unbound") from None
        return self.bound_values(runs)

    def run(self, y_values: list, bound: list) -> str:
        """The word's value, as a reduced id string, from ``y_values`` and
        ``bound``."""
        return _execute(self.group.codec, y_values + bound, self.step_ops)[self.result]


class _Memo:
    """Memo for one _Program run over many bindings, keyed by the values
    themselves (id strings hash once and compare in C): ``steps`` holds one
    dict per step, from the tuple of its input values (as its gather
    returns it) to its value, ``merges`` counts the steps merged, and
    ``rows`` maps the values of y and the runs' part to a row (so
    ``len(rows)`` counts the rows decided)."""

    __slots__ = ("program", "steps", "merges", "rows")

    def __init__(self, program: _Program):
        self.program = program
        self.steps: list[dict[tuple, str]] = [{} for _ in program.step_ops]
        self.merges = 0
        self.rows: dict[tuple, list[str]] = {}

    def row(self, y_lists: Sequence[list], bound: list) -> list:
        """The word's values, one per entry of ``y_lists`` (each a y part
        from ``y_values``), for the runs' part ``bound`` (see bind).  The row
        is decided once per distinct tuple of the values of y and of ``bound``,
        and looked up after that, and each step is merged once per distinct
        tuple of its input values; the list returned is the memo's own."""
        key = (tuple([y[0] for y in y_lists]), *bound)
        out = self.rows.get(key)
        if out is None:
            program = self.program
            codec, result = program.group.codec, program.result
            ops = list(zip(self.steps, program.step_ops))
            out = self.rows[key] = []
            for y in y_lists:
                vals = y + bound
                for known, (gather, powers) in ops:
                    args = gather(vals)
                    m = known.get(args)
                    if m is None:
                        m = known[args] = _merge(codec, args, powers)
                        self.merges += 1
                    vals.append(m)
                out.append(vals[result])
        return out


# ---------------------------------------------------------------------------
# bounded exhaustive solving


def solve_bounded(
    eq: Equation,
    candidates: Mapping[int, Sequence[FPElement]],
    mode: str = "first",
    counters: dict | None = None,
):
    """Exhaustive search over the Cartesian product of candidate lists.

    Tuples are tried in lexicographic order of candidate indices (last
    variable varying fastest), so the first solution is deterministic.
    Returns a Substitution or None in mode "first", the full list of
    solutions in mode "all"; an empty result certifies that no candidate
    tuple satisfies the equation.  Every returned solution is re-evaluated
    from scratch: the whole left side, from the equation's letters and the
    solution's own values only (never the _Program or a solver's
    intermediate results), as one seam merge compared with rhs; a mismatch
    raises VerificationError.  The letters are flattened once per search
    (see _flat_refs), so each re-check fills that list from the solution's
    values and merges it once.  The inverse of each value is computed once
    per search and shared by the re-checks of every solution that uses
    it.  Given a dict
    ``counters``, it is filled with the work counts ``outer_tuples`` (the
    tuples of the other variables covered) and ``outer_values`` (the
    distinct keys decided; ``outer_tuples`` when not fused), and
    ``image``, the image walk's run and depth (see below) or None.

    The left side is compiled first, once, into a _Program with the last
    variable y free.  When it is one step whose references all have
    exponent 1, every power that holds y was a group or its inverse used
    once and is spliced in, so the step is the left side itself: its
    references to y and y^-1 split it, and its other references (to
    constants, runs and bound steps) are the pieces between them; the
    _Program computes this split (its ``signs`` and ``pieces``).  y
    occurring once, or twice with opposite signs (a power's body counted
    |k| times), compiles to such a step; y^2 or a power of a sub-word that
    holds y does not.

    Single occurrence: when y occurs once, the left side is W0 y^s W1 with
    W0, W1 free of y, and the equation holds iff y^s = W0^-1 rhs W1^-1.
    Each outer tuple evaluates that one value, and its solutions are the
    candidates for y whose normal form equals it (or its inverse when
    s < 0), taken in candidate order; every other candidate provably fails,
    so the certificate stays exhaustive.  When y's candidates are a Ball,
    the value is looked up by exact Ball membership, which does not build
    the ball; a ball holds each element once, so at most one candidate
    matches.

    Centralizer coset: when y occurs exactly twice, with opposite signs,
    the left side is P y^s B y^-s Q with P, B, Q free of y, and the
    equation holds iff y^s B y^-s = T with T = P^-1 rhs Q^-1.  For s = 1
    that is y B y^-1 = T; for s = -1 it is y T y^-1 = B, the same with B
    and T swapped.  By the conjugacy theorem for free products it has a
    solution iff B and T are conjugate (free_product._conjugator decides
    this exactly and returns some c with c B c^-1 = T), and then its solutions
    are exactly the coset c C(B) of the centralizer of B, since
    y B y^-1 = c B c^-1 iff c^-1 y commutes with B.  In a free product
    C(B) is known (Lyndon-Schupp, ch. IV, sec. 1; Magnus-Karrass-Solitar,
    sec. 4.1): the whole group when B = 1, u C_A(b) u^-1 when B = u b u^-1
    with b in a factor A, and <r> when B's cyclic core has norm >= 2, with
    r = u rho u^-1 for the core's primitive root rho and conjugator u.
    Each outer tuple therefore looks up only the coset's elements of norm
    at most the largest candidate norm (larger ones match no candidate) in
    a map from normal forms to candidate positions, built once, and visits
    the hits in candidate order.  An outer tuple whose B and T are not
    conjugate has no solution and is skipped.  Every candidate outside the
    coset provably fails, so the certificate stays exhaustive, and both
    modes return the same solutions in the same order as the plain search.
    T = P^-1 rhs Q^-1 is one product of references, and a power of a run
    in P or Q is inverted by negating its exponent, not by inverting its
    long value.  Each split solver compiles its products once per search,
    T (and T's inverse for s < 0) or B, T and each inverse that B and T
    share, and _merge runs them once per key, so a shared inverse is
    computed once per key.  In the coset solver each value that B or T
    raises to a power |k| >= 2 is cyclically split once per key, and its
    powers are built from that split (free_product._split_power), each
    with its own split; when B is such a power, _conjugator and
    _centralizer take its split, so B is never split, and a key whose
    cores have different norms ends as soon as T is split.  For
    F^39 x3 F^26 x3^-1 that is two splits per key, of F and of T.

    Any other shape tries every inner candidate with the _Program, which
    keeps powers as powers: its sub-words that depend on y alone are
    evaluated once per candidate, its runs free of y once per outer tuple,
    and the rest once per (outer tuple, candidate).

    Fusion: each solver decides an outer tuple from its key, the values
    of the _Program's runs, and computes what else it needs from the key
    alone (see _Program.bound_values): for F^39 x3 F^26 x3^-1 with
    F = x1 x2, F is the only run, B = F^26 and T = F^-39 rhs.  A key is
    read from the tuple: each run's references are laid out once per
    search by the position of each variable in the tuple, and each tuple
    folds them with _product (see _run_value), a variable as its value's
    id string, inverted once per value for sign -1, a constant as it is;
    so x1 x2 is one _product, a seam merge only when the seam joins two
    syllables of one factor.  The assignment of id strings that record()
    re-checks is built only for a tuple with hits, once.  With fewer
    runs than outer variables, keys repeat: only a new key is decided, and
    every hit is still re-verified by record() for each tuple that reaches
    it, so the solutions and their order are as without fusion.  When the
    only run is a product of the outer variables, each once with either
    sign, over Balls with one set of parts, its values are the ball of the
    summed depth, as B_a B_b = B_(a+b) and B_a^-1 = B_a (see Ball).  One
    value of that image is decided after each tuple until some value has
    hits; if the image runs out first, no tuple has a solution and the
    walk ends, covering every tuple.  So at most two values are decided
    per tuple walked, and an unsolvable search decides each value of the
    image once.  Building the image forms at most one product per element
    and part element (see _ball_elements), also when the parts overlap.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"mode must be 'first' or 'all', not {mode!r}")
    variables = eq.lhs.free_variables()
    for v in variables:
        if v not in candidates:
            raise UnboundVariableError(f"no candidates for x{v}")
        if not candidates[v]:
            raise EmptyCandidatesError(f"empty candidate list for x{v}")
    group = eq.lhs.group
    for v in variables:
        cands = candidates[v]
        if isinstance(cands, Ball):  # its elements all lie in cands.group
            wrong = cands.group is not group
        else:
            wrong = any(not isinstance(c, FPElement) or c.group is not group for c in cands)
        if wrong:
            raise MixedAmbientError(f"candidate for x{v} has wrong ambient")

    codec = group.codec
    rhs = eq.rhs.ids
    # The re-check's own flat references, from the equation's letters alone
    lhs_refs = _flat_refs(eq.lhs.letters, codec)
    inverses: dict[str, str] = {}  # each value's inverse, once per search
    results: list[Substitution] = []

    def record(pairs: tuple[tuple[int, FPElement], ...], assignment: dict) -> None:
        """Re-check and keep the solution ``pairs``, whose values as id
        strings ``assignment`` holds."""
        sub = Substitution(pairs)
        pieces = _fill(lhs_refs, codec, assignment, inverses)
        if _seam_merge(codec, "", pieces) != rhs:
            raise VerificationError(f"search returned a non-solution {sub!r}")
        results.append(sub)

    if not variables:
        if _seam_merge(codec, "", _fill(lhs_refs, codec, {}, inverses)) == rhs:
            record((), {})
        if counters is not None:
            counters.update(outer_tuples=0, outer_values=0, image=None)
        return (results[0] if results else None) if mode == "first" else results

    # The last variable y varies fastest.  The left side is compiled once
    # with y free, and its shape picks the solver, whose decide(key) gives
    # the candidates for y that solve the equation, in order, from the
    # runs' normal forms for an outer tuple.
    inner = variables[-1]
    outer = variables[:-1]
    inner_cands = candidates[inner]
    program = _Program(eq.lhs.letters, group, inner)
    runs, signs, pieces = program.runs, program.signs, program.pieces
    # rhs is a reference in the split's values, so T = W0^-1 rhs W1^-1 is
    # one product of references, compiled once and run once per key
    target = [(i, -k) for i, k in reversed(pieces[0])] + [(1, 1)]
    target += [(i, -k) for i, k in reversed(pieces[-1])]
    if len(signs) == 1:
        # A scan of a plain sequence keeps candidate order and duplicates,
        # which an index built per call would cost more than.
        in_ball = isinstance(inner_cands, Ball)
        # y = T^-1 for s < 0: one more step, T's inverse
        ops = _compile([target] if signs[0] > 0 else [target, ((program.split_width, -1),)])

        def decide(key: tuple) -> Sequence[FPElement]:
            t = _execute(codec, program.split_values(rhs, key), ops)[-1]
            if in_ball:
                u = FPElement(group, t)
                return [u] if u in inner_cands else []
            return [c for c in inner_cands if c.ids == t]

    elif len(signs) == 2 and signs[0] == -signs[1]:
        # Each value that B or T raises to a power |k| >= 2 is split once
        # per key, and its powers are built from that split; a value that B
        # and T both invert is inverted once per key.  Each is a value of
        # its own, appended after the split's values: the powers, then the
        # inverses, then B (unless it is one of the values already, read
        # where it is) and T.  For s = -1, B and T swap.
        width = program.split_width
        exponents: dict[int, list[int]] = {}
        for i, k in dict.fromkeys(pieces[1] + target):
            if abs(k) >= 2:
                exponents.setdefault(i, []).append(k)
        bases = list(exponents.items())
        raised = [(i, k) for i, ks in bases for k in ks]
        shared = sorted({i for i, k in pieces[1] if k == -1} & {i for i, k in target if k == -1})
        moved = {r: (width + j, 1) for j, r in enumerate(raised + [(i, -1) for i in shared])}
        b_refs, t_refs = [[moved.get(r, r) for r in refs]
                          for refs in (pieces[1], target)][::signs[0]]
        lone = len(b_refs) == 1 and b_refs[0][1] == 1
        ops = _compile([((i, -1),) for i in shared] + ([] if lone else [b_refs]) + [t_refs])
        at = b_refs[0][0] if lone else width + len(moved)
        # when B is one of the powers, its split comes with it
        known = at - width if width <= at < width + len(raised) else None
        listed = list(inner_cands)  # a hit is read from here, not from a Ball
        positions: dict[str, list[int]] = {}
        for i, c in enumerate(listed):
            positions.setdefault(c.ids, []).append(i)
        max_norm = max(map(len, positions))

        def decide(key: tuple) -> Sequence[FPElement]:
            vals = program.split_values(rhs, key)
            splits = []
            for i, ks in bases:
                s = vals[i]
                split = _cyclic_split(codec, s)
                for k in ks:
                    power, power_split = _split_power(codec, s, split, k)
                    vals.append(power)
                    splits.append(power_split)
            t = _execute(codec, vals, ops)[-1]
            b = vals[at]
            split = _cyclic_split(codec, b) if known is None else splits[known]
            c = _conjugator(codec, b, t, split)
            if c is None:
                return ()
            if not b:
                return listed
            hits = sorted(
                i
                for z in _centralizer(codec, b, split, max_norm + len(c))
                for i in positions.get(_product(codec, c, z), ())
            )
            return [listed[i] for i in hits]

    else:
        inner_values = [(c, program.y_values(c.ids)) for c in inner_cands]

        def decide(key: tuple) -> Sequence[FPElement]:
            bound = program.bound_values(key)
            return [c for c, y_values in inner_values if program.run(y_values, bound) == rhs]

    fused = len(runs) < len(outer)
    outer_cands = [candidates[v] for v in outer]
    decided: dict[tuple, Sequence[FPElement]] = {}
    # The image walk (see the docstring) needs one run that holds each outer
    # variable once and nothing else, over Balls with one set of parts.
    image = walked = None
    letters = sorted(getattr(l, "index", -1) for l in runs[0]) if len(runs) == 1 else ()
    if fused and letters == list(outer) and all(
        isinstance(c, Ball) and c.parts == outer_cands[0].parts for c in outer_cands
    ):
        depth = sum(c.depth for c in outer_cands)
        image = _ball_elements(group, outer_cands[0].parts, depth)
        walked = {"run": _render(runs[0]), "depth": depth}
    # Each run's references, a variable's read by its position in a tuple;
    # the tuples of candidates and of their id strings are walked in step.
    at_position = {v: i for i, v in enumerate(outer)}
    key_refs = [[r if type(r) is str else (at_position[r[0]], r[1]) for r in refs]
                for refs in program.run_refs]
    outer_ids = [[c.ids for c in cands] for cands in outer_cands]
    tuples = 0
    for combo, ids in zip(_cartesian(*outer_cands), _cartesian(*outer_ids)):
        tuples += 1
        key = tuple([_run_value(codec, refs, ids, inverses) for refs in key_refs])
        hits = decided.get(key)
        if hits is None:
            hits = decide(key)
            if fused:
                decided[key] = hits
        if hits:  # variables are sorted, so (inner, c) comes last
            pairs = tuple(zip(outer, combo))
            assignment = dict(zip(outer, ids))
            for c in hits:
                assignment[inner] = c.ids
                record(pairs + ((inner, c),), assignment)
                if mode == "first":
                    break
        if results and mode == "first":
            break
        if image is not None and not hits:
            u = next(image, None)
            if u is None:  # every value decided, none with a hit
                tuples = math.prod(map(len, outer_cands))
                break
            if (u,) not in decided:  # a value decided before has no hits
                hits = decided[u,] = decide((u,))
        if hits:
            image = None
    if counters is not None:
        counters.update(outer_tuples=tuples, outer_values=len(decided) if fused else tuples,
                        image=walked)
    return (results[0] if results else None) if mode == "first" else results


# ---------------------------------------------------------------------------
# constructions


@lru_cache(maxsize=16)  # one key per group: its largest factor order
def _next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    p = n + 1
    while True:
        if p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1)):
            return p
        p += 1


def _lemma4_letters(group: FreeProduct, f_word: str) -> list[str]:
    """The letters of the coefficient word ``f_word``, each a syllable id
    (or "" for a generator that is the identity), powers written out."""
    word = parse_word(f_word, group)
    if word.free_variables():
        raise WordSyntaxError("coefficient word must not contain variables")
    return [l.value.ids for l in _expand(word.letters) if isinstance(l, Const)]


class Lemma4Construction(_Record):
    """Power equation x1^p ... xm^p = f with its canonical solution.

    p is the least prime exceeding every factor order; the j-th letter s_j
    of f gets the exponent k_j, the inverse of p modulo the order of s_j in
    its factor, and x_j = s_j^k_j solves the equation.  ``solution`` holds
    the x_j as id strings; the equation and the substitution are built
    when first asked for.
    """

    _fields = ("f", "prime", "exponents", "solution")  # a __dict__ for the cached properties

    def __init__(
        self, f: FPElement, prime: int, exponents: tuple[int, ...], solution: tuple[str, ...]
    ):
        _set(self, "f", f)
        _set(self, "prime", prime)
        _set(self, "exponents", exponents)
        _set(self, "solution", solution)

    @cached_property
    def equation(self) -> Equation:
        lhs = [Var(j) for j in range(1, len(self.solution) + 1) for _ in range(self.prime)]
        return Equation(MixedWord(self.f.group, lhs), self.f)

    @cached_property
    def g_solution(self) -> Substitution:
        group = self.f.group
        return Substitution.of({j: FPElement(group, x) for j, x in enumerate(self.solution, 1)})


def build_lemma4(group: FreeProduct, f_word: str) -> Lemma4Construction:
    """Build the power equation for the coefficient word ``f_word``."""
    return _build_lemma4(group, _lemma4_letters(group, f_word))


def _build_lemma4(group: FreeProduct, letters: Sequence[str]) -> Lemma4Construction:
    """Build the power equation for the coefficient word whose letters are
    ``letters`` (see _lemma4_letters).  The canonical solution is checked
    by joining p copies of each x_j in one seam merge, in the factor
    tables, and comparing the result with f: a VerificationError when
    they differ."""
    if not letters:
        raise EmptyWordError("coefficient word is empty")
    codec = group.codec
    p = _next_prime(max(g.order for g in group.factors))
    exponents, solution, pieces = [], [], []
    for s in letters:
        k, x = 0, ""  # an identity letter has order 1
        if s:
            f, e = codec.factor[s], codec.element[s]
            g = group.factors[f]
            k = pow(p, -1, g.element_order(e))
            x = codec.symbols[f][g.power(e, k)]
        exponents.append(k)
        solution.append(x)
        pieces += [x] * p
    f = _seam_merge(codec, "", letters)
    if _seam_merge(codec, "", pieces) != f:
        raise VerificationError("canonical solution does not solve the power equation")
    return Lemma4Construction(FPElement(group, f), p, tuple(exponents), tuple(solution))


def cyclic_power_solution_exists(
    cons: Lemma4Construction,
    bound: int = 20,
    reduction: CyclicReduction | None = None,
    counters: dict | None = None,
) -> bool:
    """Whether some substitution x_j = f^{n_j}, |n_j| <= bound, solves the
    power equation; the verdict for every n comes from f's order alone.

    With x_j = f^{n_j} the left side is f^(p * n), n = sum n_j, |n| <=
    bound * m, and f^(p n) = f iff f^(p n - 1) = 1.  For f of infinite order
    that needs p n = 1, which no integer n gives, as p >= 2.  For f of order
    d, d is the order of an element of some factor, so d < p and p is
    invertible modulo d: with r = p^-1 mod d (r = 0 when d = 1) the solving
    n are r + d Z, the nearest to 0 being r and r - d, so some n solves iff
    min(r, d - r) <= bound * m.  ``reduction``, f's cyclic reduction when
    known, supplies the order.  ``counters``, when given, gets
    ``candidates`` (the 2 * bound * m + 1 exponent sums the answer covers)
    and ``powers_built`` (0: no power is built) added to it.
    """
    d = (cons.f if reduction is None else reduction).order()
    reach = bound * len(cons.exponents)
    if counters is not None:
        counters["candidates"] = counters.get("candidates", 0) + 2 * reach + 1
        counters.setdefault("powers_built", 0)
    if d == INFINITE:
        return False
    r = pow(cons.prime, -1, d)
    return min(r, d - r) <= reach


class Lemma5Construction(_Record):
    """The twisted power equation

        f(x)^(k1*N) g(x) f(x)^(k2*N) g(x)^-1  =  f^k1 g f^k2 g^-1

    with N = 1 + product of the factor orders; substituting the ambient
    generators for x1..xt solves it.  f lies in a single factor, so
    f^N = f, and g lies outside f's factor, so the ball parts <f^k1> and
    g <f^k2> g^-1 fix distinct vertices of the Bass-Serre tree and
    generate their free product (edge stabilisers are trivial).
    """

    __slots__ = ("equation", "N", "g_solution", "f_word", "f", "g")

    def __init__(
        self,
        equation: Equation,
        N: int,
        g_solution: Substitution,
        f_word: MixedWord,  # f(x), with x_i for the i-th generator
        f: FPElement,
        g: FPElement,
    ):
        _set(self, "equation", equation)
        _set(self, "N", N)
        _set(self, "g_solution", g_solution)
        _set(self, "f_word", f_word)
        _set(self, "f", f)
        _set(self, "g", g)


def build_lemma5(
    group: FreeProduct, f_word: str, g_word: str, k1: int, k2: int
) -> Lemma5Construction:
    """Build the twisted power equation for f = ``f_word`` and
    g = ``g_word``.  An f outside every single factor, or a g inside f's
    factor, is refused with a GroupError before anything is built."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be positive")
    # f(x) and g(x) read the i-th generator's label as x_i; f and g are
    # read again as constants, so the re-check below tests that reading.
    var_of = {label: i for i, label in enumerate(group.generator_labels, start=1)}
    fx = MixedWord(group, _WordParser(f_word, group, var_of).parse())
    gx = MixedWord(group, _WordParser(g_word, group, var_of).parse())
    f = parse_constant(f_word, group)
    if f.norm != 1:
        raise GroupError(f"coefficient {f_word!r} must lie in a single factor")
    g = parse_constant(g_word, group)
    if g.norm == 0 or (g.norm == 1 and g.syllables[0][0] == f.syllables[0][0]):
        raise GroupError(f"twist {g_word!r} must lie outside the factor of coefficient {f_word!r}")

    n_const = 1
    for factor in group.factors:
        n_const *= factor.order
    n_const += 1
    lhs = fx.repeat(k1 * n_const).concat(gx).concat(fx.repeat(k2 * n_const)).concat(gx.inverse())
    rhs = f.power(k1) * g * f.power(k2) * g.inverse()

    eq = Equation(lhs, rhs)
    sol = Substitution.of({i: group.generator(label) for label, i in var_of.items()})
    if evaluate(eq.lhs, sol) != eq.rhs:
        raise VerificationError("generator substitution does not solve the twisted equation")
    return Lemma5Construction(eq, n_const, sol, fx, f, g)


# ---------------------------------------------------------------------------
# exhaustive verification of the two-involution equation
#
#     (x1^3 [x1, x2^x3] x2^3)^2 [x1, x2^x3]^3 = (a b)^2
#
# inside the rank-two subgroup generated by two involutions a, b.  Every
# element of that subgroup is (ba)^k or (ba)^k a, so substituting the
# general forms and sweeping k, t, s covers all of it.  The left side
# collapses to a power of (ba) whose exponent is linear in (k, t, s) with
# coefficients fixed per epsilon case; the target (a b)^2 = (ba)^-2 has an
# exponent no case can produce (all are multiples of 4 or 6).

THEOREM2_WORD_TEXT = "(x1^3 [x1, x2^x3] x2^3)^2 [x1, x2^x3]^3"
THEOREM2_TARGET_TEXT = "(a b)^2"

#: epsilon case -> coefficients (ck, ct, cs) of the exponent of (ba).
#: Verified by direct evaluation (see Theorem2Report.case_results); the
#: two starred cases carry a sign variant that direct evaluation rejects,
#: recorded in SIGN_VARIANTS and surfaced by the report.
THEOREM2_CASE_EXPONENTS: dict[tuple[int, int, int], tuple[int, int, int]] = {
    (0, 0, 0): (6, 6, 0),
    (1, 0, 0): (0, -6, 0),
    (0, 1, 0): (6, 0, 0),
    (0, 0, 1): (6, 6, 0),
    (1, 1, 0): (4, -4, -4),  # *
    (1, 0, 1): (0, 6, 0),
    (0, 1, 1): (6, 0, 0),
    (1, 1, 1): (4, 0, -4),  # *
}

#: Alternate sign readings of the starred cases; kept so the report can
#: flag, not suppress, that direct evaluation excludes them.
THEOREM2_SIGN_VARIANTS: dict[tuple[int, int, int], tuple[int, int, int]] = {
    (1, 1, 0): (-4, 4, -4),
    (1, 1, 1): (-4, 0, 4),
}


class Theorem2CaseResult(_Record):
    """One epsilon case of the sweep.  ``evaluations`` counts the
    substitutions evaluated, (2R+1)^3; ``bindings`` counts the (x2, x3)
    values bound once each for all x1, (2R+1)^2, whether this case or the
    case with e1 flipped computed them.  ``merges`` counts the steps of
    the compiled word merged, once per distinct tuple of inputs, and
    ``rows`` the rows of all x1 values decided, once per distinct tuple of
    bound values; both count only the work this case did first in the memo
    it shares with the case with e3 flipped, so a case whose steps its
    partner already merged reports 0 merges."""

    __slots__ = ("epsilons", "exponent_coeffs", "evaluations", "bindings", "mismatches",
                 "sign_variant_coeffs", "sign_variant_consistent", "merges", "rows")

    def __init__(
        self,
        epsilons: tuple[int, int, int],
        exponent_coeffs: tuple[int, int, int],
        evaluations: int,
        bindings: int,
        mismatches: tuple[tuple[int, int, int], ...],
        sign_variant_coeffs: tuple[int, int, int] | None = None,
        sign_variant_consistent: bool | None = None,
        merges: int = 0,
        rows: int = 0,
    ):
        _set(self, "epsilons", epsilons)
        _set(self, "exponent_coeffs", exponent_coeffs)
        _set(self, "evaluations", evaluations)
        _set(self, "bindings", bindings)
        _set(self, "mismatches", mismatches)
        _set(self, "sign_variant_coeffs", sign_variant_coeffs)
        _set(self, "sign_variant_consistent", sign_variant_consistent)
        _set(self, "merges", merges)
        _set(self, "rows", rows)


class Theorem2Report(_Record):
    __slots__ = ("k_range", "total_evaluations", "case_results", "target_hits",
                 "embedding_image_matches")

    def __init__(
        self,
        k_range: int,
        total_evaluations: int,
        case_results: tuple[Theorem2CaseResult, ...],
        target_hits: tuple[tuple[int, int, int, tuple[int, int, int]], ...],
        embedding_image_matches: bool,
    ):
        _set(self, "k_range", k_range)
        _set(self, "total_evaluations", total_evaluations)
        _set(self, "case_results", case_results)
        _set(self, "target_hits", target_hits)
        _set(self, "embedding_image_matches", embedding_image_matches)

    @property
    def ok(self) -> bool:
        return (
            not self.target_hits
            and self.embedding_image_matches
            and all(not c.mismatches for c in self.case_results)
        )

    def to_dict(self) -> dict:
        return {
            "k_range": self.k_range,
            "total_evaluations": self.total_evaluations,
            "cases": [
                {
                    "epsilons": list(c.epsilons),
                    "exponent_coeffs": list(c.exponent_coeffs),
                    "evaluations": c.evaluations,
                    "bindings": c.bindings,
                    "merges": c.merges,
                    "rows": c.rows,
                    "mismatches": [list(m) for m in c.mismatches],
                    **(
                        {
                            "sign_variant_coeffs": list(c.sign_variant_coeffs),
                            "sign_variant_consistent": c.sign_variant_consistent,
                        }
                        if c.sign_variant_coeffs is not None
                        else {}
                    ),
                }
                for c in self.case_results
            ],
            "target_hits": [list(h[:3]) for h in self.target_hits],
            "embedding_image_matches": self.embedding_image_matches,
            "ok": self.ok,
        }


def _theorem2_ambients():
    # Local import: constructors live one layer below this module.
    from .finite_group import direct_product, make_cyclic

    rank_two = FreeProduct([make_cyclic(2, "a"), make_cyclic(2, "b")], name="C2 * C2")
    big = FreeProduct(
        [direct_product(make_cyclic(2, "a"), make_cyclic(2, "d")), make_cyclic(2, "c")],
        name="(C2 x C2) * C2",
    )
    return rank_two, big


def theorem2_report(k_range: int) -> Theorem2Report:
    """Sweep all substitutions x=(ba)^k a^e1, y=(ba)^t a^e2, z=(ba)^s a^e3
    for k, t, s in [-k_range, k_range] and check, per epsilon case, that the
    equation's left side matches the closed form and never hits (a b)^2.

    Every substitution is evaluated exactly in C2 * C2 by the word's
    _Program with x1 free, one case at a time in the order of
    THEOREM2_CASE_EXPONENTS: x1^3 and x1^-1 once per value of x1 and e1;
    the runs x2^x3 and x2 and the bound steps (x2^-1)^x3, the inverse of
    x2^x3, and x2^3 once per (e2, e3, t, s), in a table keyed by (e2, e3)
    that (0, e2, e3) fills and (1, e2, e3) reads, since no run holds x1;
    and three steps (the commutator [x1, x2^x3], shared by its two uses,
    the body x1^3 [x1, x2^x3] x2^3 and the two powers joined) once per
    distinct tuple of their input values, by a _Memo keyed by the values
    that (e1, e2, 0) fills and (e1, e2, 1) reads.  The table lists each
    filling case before its reader, and a reader drops the cache it read,
    so at most three memos and two bind tables are alive at once.  The row
    of values for all 2R+1 values of x1 is decided once per distinct tuple
    of the x1 values and the runs' values in a memo: with e2 = 0 the runs
    depend on t alone, so each such pair has 2R+1 rows for e3 = 0 and 2R
    (t = 0 repeats) for e3 = 1, and the other pairs (2R+1)^2 for e3 = 0
    and fewer for e3 = 1 (289 and 72 at R = 8).  A case's ``merges`` and
    ``rows`` count what it decided first.  Equal inputs reuse an exact
    value, so each value is the one a full evaluation gives.  Each case's
    row is compared whole with that case's own row of closed forms (ba)^n,
    a slice of one list of them, and searched for the target, as normal
    forms, which is exact; only a row that fails is scanned value by
    value, so mismatches and target hits are reported in (k, t, s) order,
    case by case in the order of THEOREM2_CASE_EXPONENTS.

    Also checks the companion identity in (C2 x C2) * C2: substituting
    (a, c d c, c) must produce the image of (a b)^2, i.e. (a c d c)^2.
    """
    if k_range < 1:
        raise ValueError("k_range must be >= 1")
    rank_two, big = _theorem2_ambients()
    program = _Program(parse_word(THEOREM2_WORD_TEXT, rank_two).letters, rank_two, 1)
    a = rank_two.generator("a")
    b = rank_two.generator("b")
    ba = b * a
    target = parse_constant(THEOREM2_TARGET_TEXT, rank_two).ids

    span = range(-k_range, k_range + 1)
    n = len(span)
    # closed[reach + m] is (ba)^m for every exponent a closed form reaches
    reach = k_range * max(
        sum(map(abs, c))
        for c in (*THEOREM2_CASE_EXPONENTS.values(), *THEOREM2_SIGN_VARIANTS.values())
    )
    powers = [ba.power(m) for m in range(-reach, reach + 1)]
    closed = [p.ids for p in powers]
    subs = {(k, e): (powers[reach + k] * a if e else powers[reach + k]).ids
            for k in span for e in (0, 1)}

    def progression(c: int, offset: int) -> list[str]:
        """The closed forms (ba)^(c*k + offset) for k in span."""
        start = reach + offset - c * k_range
        if c == 0:
            return [closed[start]] * n
        stop = start + c * n
        return closed[start:stop if stop >= 0 else None:c]

    memos: dict[tuple[int, int], _Memo] = {}
    binds: dict[tuple[int, int], dict[tuple[int, int], list]] = {}
    x1_values = {e1: [program.y_values(subs[k, e1]) for k in span] for e1 in (0, 1)}
    case_results: list[Theorem2CaseResult] = []
    target_hits: list[tuple[int, int, int, tuple[int, int, int]]] = []
    for eps, (ck, ct, cs) in THEOREM2_CASE_EXPONENTS.items():
        e1, e2, e3 = eps
        memo = memos.pop((e1, e2)) if e3 else memos.setdefault((e1, e2), _Memo(program))
        bound_of = binds.pop((e2, e3)) if e1 else binds.setdefault((e2, e3), {})
        merges, rows = memo.merges, len(memo.rows)
        mismatches: list[tuple[int, int, int]] = []
        hits: list[tuple[int, int, int, tuple[int, int, int]]] = []
        variant = THEOREM2_SIGN_VARIANTS.get(eps)
        variant_consistent = None if variant is None else True
        count = bindings = 0
        for t, s in _cartesian(span, span):
            bound = bound_of[t, s] if e1 else bound_of.setdefault(
                (t, s), program.bind({2: subs[t, e2], 3: subs[s, e3]}))
            bindings += 1
            count += n
            # Each row is compared whole, in C; only a row that fails is
            # scanned, for its (k, t, s).
            row = memo.row(x1_values[e1], bound)
            expected = progression(ck, ct * t + cs * s)
            if row != expected:
                mismatches.extend((k, t, s) for k, v, w in zip(span, row, expected) if v != w)
            if target in row:
                hits.extend((k, t, s, eps) for k, v in zip(span, row) if v == target)
            if variant_consistent:
                vk, vt, vs = variant
                variant_consistent = row == progression(vk, vt * t + vs * s)
        case_results.append(Theorem2CaseResult(
            eps, (ck, ct, cs), count, bindings, tuple(sorted(mismatches)), variant,
            variant_consistent, memo.merges - merges, len(memo.rows) - rows))
        target_hits.extend(sorted(hits))
    total = sum(c.evaluations for c in case_results)

    # Companion check in the bigger group: the equation does have a solution
    # there, with x2 mapped to c d c.
    big_word = parse_word(THEOREM2_WORD_TEXT, big)
    ga, gd, gc = big.generator("a"), big.generator("d"), big.generator("c")
    image = evaluate(big_word, {1: ga, 2: gc * gd * gc, 3: gc})
    expected_image = (ga * gc * gd * gc).power(2)
    return Theorem2Report(
        k_range, total, tuple(case_results), tuple(target_hits), image == expected_image
    )
