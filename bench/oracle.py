"""Independent reference arithmetic for checking freeprod's answers.

Nothing here imports freeprod.  Factors are modelled from their textbook
definitions (cyclic groups as integers mod n, direct products of cyclic
groups as tuples, dihedral groups as rotation/reflection pairs), and
elements of a free product as reduced lists of (factor, element) syllables.
The benchmark builds every job from these models, so each expected answer
comes either from the construction or from a naive computation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE = "infinite"


class Cyclic:
    """Z_n with elements 0..n-1 under addition."""

    def __init__(self, n: int):
        self.n = n
        self.identity = 0

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return (-x) % self.n

    def power(self, x, k: int):
        return (x * k) % self.n


class AbelianProduct:
    """Z_n1 x Z_n2 x ... with elements as tuples."""

    def __init__(self, *orders: int):
        self.orders = orders
        self.identity = (0,) * len(orders)

    def mul(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def inv(self, x):
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def power(self, x, k: int):
        return tuple((a * k) % n for a, n in zip(x, self.orders))


class Dihedral:
    """Symmetries of the regular n-gon: (r, s) stands for rho^r sigma^s with
    sigma rho sigma = rho^-1."""

    def __init__(self, n: int):
        self.n = n
        self.identity = (0, 0)

    def mul(self, x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 - r2 if s1 else r1 + r2) % self.n, s1 ^ s2)

    def inv(self, x):
        r, s = x
        return x if s else ((-r) % self.n, 0)

    def power(self, x, k: int):
        out = self.identity
        base = x if k >= 0 else self.inv(x)
        for _ in range(abs(k) % self.element_order(x)):
            out = self.mul(out, base)
        return out

    def element_order(self, x) -> int:
        r, s = x
        if s:
            return 2
        return self.n // math.gcd(r, self.n)


def element_order(factor, x) -> int:
    k, y = 1, x
    while y != factor.identity:
        y = factor.mul(y, x)
        k += 1
    return k


def generated_subgroup(factor, gens) -> frozenset:
    seen = {factor.identity}
    frontier = [factor.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = factor.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


@dataclass
class Model:
    """A free product: its factors and the generator each label denotes."""

    factors: list
    labels: dict  # label -> (factor index, element)

    # -- normal forms --------------------------------------------------------

    def push(self, out: list, f: int, x) -> None:
        """Append one syllable to a reduced list, merging at the seam."""
        factor = self.factors[f]
        if x == factor.identity:
            return
        if out and out[-1][0] == f:
            m = factor.mul(out[-1][1], x)
            if m == factor.identity:
                out.pop()
            else:
                out[-1] = (f, m)
        else:
            out.append((f, x))

    def mul(self, *elems) -> tuple:
        """Product of reduced syllable tuples; cancellation happens only at
        each seam."""
        out = ()
        for e in elems:
            i, j = len(out), 0
            while i and j < len(e) and out[i - 1][0] == e[j][0]:
                f = e[j][0]
                factor = self.factors[f]
                m = factor.mul(out[i - 1][1], e[j][1])
                if m != factor.identity:
                    out = out[: i - 1] + ((f, m),) + e[j + 1 :]
                    break
                i, j = i - 1, j + 1
            else:
                out = out[:i] + e[j:]
        return out

    def inv(self, e) -> tuple:
        return tuple((f, self.factors[f].inv(x)) for f, x in reversed(e))

    def power(self, e, k: int) -> tuple:
        if k < 0:
            e, k = self.inv(e), -k
        out, base = (), e
        while k:
            if k & 1:
                out = self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return out

    def cyclic_reduce(self, e) -> tuple[tuple, tuple]:
        """(conjugator, core) by the rule freeprod documents: while the first
        and last syllables share a factor, move the first one off the front
        and merge it into the tail.  Index scan, linear time."""
        syl = list(e)
        lo, hi = 0, len(syl) - 1
        conj = []
        while hi > lo and syl[lo][0] == syl[hi][0]:
            f, x = syl[lo]
            conj.append((f, x))
            lo += 1
            m = self.factors[f].mul(syl[hi][1], x)
            if m == self.factors[f].identity:
                hi -= 1
            else:
                syl[hi] = (f, m)
        return tuple(conj), tuple(syl[lo : hi + 1])

    def order(self, e):
        _, core = self.cyclic_reduce(e)
        if not core:
            return 1
        if len(core) == 1:
            f, x = core[0]
            return element_order(self.factors[f], x)
        return INFINITE

    def power_of_any_size(self, e, k: int) -> tuple:
        """e^k even for astronomically large k, when e has finite order."""
        conj, core = self.cyclic_reduce(e)
        if len(core) > 1:
            raise ValueError("only finite-order elements have small huge powers")
        if not core:
            return ()
        f, x = core[0]
        factor = self.factors[f]
        y = factor.power(x, k)
        return () if y == factor.identity else self.mul(conj, ((f, y),), self.inv(conj))

    # -- words ---------------------------------------------------------------

    def word(self, text: str) -> tuple:
        """Value of a generator word written ``a b^2 c^-1`` (or ``1``), the
        form freeprod prints normal forms in."""
        out: list = []
        for tok in text.split():
            if tok == "1":
                continue
            label, _, exp = tok.partition("^")
            f, x = self.labels[label]
            self.push(out, f, self.factors[f].power(x, int(exp) if exp else 1))
        return tuple(out)

    def coset_rep(self, rep, factor: int) -> tuple:
        """Canonical representative of the coset rep * G_factor."""
        return rep[:-1] if rep and rep[-1][0] == factor else rep

    def vertex(self, text: str):
        """Parse freeprod's rendering of a tree vertex, ``E:<word>`` or
        ``C<i>:<word>``, into ('E', element) or (i, canonical rep)."""
        kind, _, word = text.partition(":")
        if kind == "E":
            return ("E", self.word(word))
        if kind.startswith("C"):
            f = int(kind[1:])
            return (f, self.coset_rep(self.word(word), f))
        raise ValueError(f"bad vertex {text!r}")

    def axis_window(self, conj, core, window: int) -> list:
        """Consecutive axis vertices of conj * core * conj^-1 over ``window``
        translation periods on each side, as freeprod's axis command lists
        them."""
        out = []
        current = self.mul(conj, self.power(core, -window))
        for _ in range(2 * window + 1):
            for f, x in core:
                out.append(("E", current))
                out.append((f, self.coset_rep(current, f)))
                current = self.mul(current, ((f, x),))
        return out

    # -- balls ---------------------------------------------------------------

    def ball(self, parts, depth: int) -> set:
        """All values of products of at most ``depth`` part elements with
        consecutive elements from different parts.  A part is (factor,
        subgroup element set, conjugator)."""
        part_elems = []
        for f, sub, conj in parts:
            ident = self.factors[f].identity
            cinv = self.inv(conj)
            part_elems.append(
                [self.mul(conj, ((f, h),), cinv) for h in sorted(sub) if h != ident]
            )
        seen = {()}
        level = {(-1, ())}
        for _ in range(depth):
            nxt = set()
            for last, value in level:
                for pi, elems in enumerate(part_elems):
                    if pi != last:
                        for t in elems:
                            v = self.mul(value, t)
                            nxt.add((pi, v))
                            seen.add(v)
            level = nxt
        return seen

    def commuting_pairs(self, elems) -> int:
        """Ordered pairs (x, y) of ``elems`` with xy = yx, by a double loop."""
        elems = list(elems)
        count = len(elems)  # x commutes with itself
        for i, x in enumerate(elems):
            for y in elems[i + 1 :]:
                if self.mul(x, y) == self.mul(y, x):
                    count += 2
        return count


# -- the groups the benchmark uses ---------------------------------------------


def p23() -> Model:
    """cases/p23.grp: C2 * C3 with a, b."""
    return Model([Cyclic(2), Cyclic(3)], {"a": (0, 1), "b": (1, 1)})


def example2() -> Model:
    """cases/example2.grp: (C2 x C3) * C2 with a, b in the first factor."""
    return Model(
        [AbelianProduct(2, 3), Cyclic(2)],
        {"a": (0, (1, 0)), "b": (0, (0, 1)), "c": (1, 1)},
    )


def dihedral_c2(n: int) -> Model:
    """``factors: dihedral n; cyclic 2`` with labels a,b; c.  freeprod's
    dihedral generators are the reflections sigma and rho^(n-1) sigma, whose
    product a*b is the rotation rho."""
    return Model(
        [Dihedral(n), Cyclic(2)],
        {"a": (0, (0, 1)), "b": (0, (n - 1, 1)), "c": (1, 1)},
    )
