"""Observables on the cube and the small expression grammar of the CLI.

The grammar is deliberately tiny: variables xu, xc, xs, integer and p/q
rational constants that fit a float (an affine expression may not pass
2^510 in magnitude), +, -, *, parentheses, min(,)/max(,), plus the named
presets "affine-center" (x_c - 1/2) and "staircase-4" (the increasing
staircase -3/4, -1/4, 1/4, 3/4 on quarters of x_c).  Everything the
grammar can build is evaluated exactly where the exact routes need it;
anything richer belongs to the library API.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .pcfun import PCFun1D


class ParseError(ValueError):
    pass


COORDINATES = frozenset(("xu", "xc", "xs"))
_XC = frozenset(("xc",))


@dataclass(frozen=True)
class Observable3D:
    """A bounded observable on [0,1]^3 with optional exact structure.

    `fn` evaluates on numpy arrays.  `xc_affine` is (slope, intercept) when
    the observable is an affine function of x_c alone; `xc_pc` holds an
    exact piecewise-constant representative when it is a PC function of
    x_c alone.

    `reads` names the coordinates ("xu", "xc", "xs") whose values `fn`
    looks at; the default is all three.  Monte Carlo computes only the
    coordinates that phi or psi reads and passes an array of the right
    shape holding other values for the rest, so a declaration that leaves
    out a coordinate `fn` does look at gives wrong numbers, without error.
    """

    name: str
    fn: Callable
    xc_affine: tuple[Fraction, Fraction] | None = None
    xc_pc: PCFun1D | None = None
    reads: frozenset = COORDINATES

    def __post_init__(self):
        reads = frozenset(self.reads)
        if not reads <= COORDINATES:
            raise ValueError(f"{self.name}: reads must name coordinates among "
                             f"xu, xc, xs, got {sorted(reads - COORDINATES)}")
        object.__setattr__(self, "reads", reads)

    def __call__(self, xu, xc, xs):
        return self.fn(xu, xc, xs)


def affine_center() -> Observable3D:
    return replace(parse_observable("xc-1/2"), name="affine-center")


def staircase4() -> Observable3D:
    return pc_center(PCFun1D.uniform(["-3/4", "-1/4", "1/4", "3/4"]),
                     "staircase-4")


def pc_center(pc: PCFun1D, name: str = "pc-observable") -> Observable3D:
    """Observable that is an exact PC function of x_c."""
    edges = np.array([float(b) for b in pc.breakpoints])
    table = np.array([float(v) for v in pc.values])

    def fn(xu, xc, xs):
        idx = np.clip(np.searchsorted(edges, np.asarray(xc), side="right") - 1,
                      0, table.size - 1)
        return table[idx]

    return Observable3D(name, fn, xc_pc=pc, reads=_XC)


PRESETS = {"affine-center": affine_center, "staircase-4": staircase4}


# --- parser ---------------------------------------------------------------

MAX_DEPTH = 200     # deepest nesting and deepest tree `parse_observable` takes
# largest magnitude an affine observable may reach on the cube: the routes
# multiply two observables' values and square their coefficients in floats
MAX_MAGNITUDE = 2 ** 510

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(xu|xc|xs|min|max)|([()+\-*,]))")


def _tokenize(text: str) -> list:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad token at {text[pos:]!r}")
        num, word, sym = m.groups()
        if num:
            try:
                value = Fraction(num)
                float(value)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {num!r}") from None
            except OverflowError:
                raise ParseError(f"constant {_abridged(num)} is too large "
                                 "for a float") from None
            out.append(("num", value))
        elif word:
            out.append(("word", word))
        else:
            out.append(("sym", sym))
        pos = m.end()
    out.append(("end", None))
    return out


def _abridged(text: str) -> str:
    return text if len(text) <= 24 else \
        f"{text[:10]}...{text[-10:]} ({len(text)} characters)"


def _too_deep() -> ParseError:
    return ParseError(f"expression nests deeper than {MAX_DEPTH} levels")


class _Node(NamedTuple):
    """A finished subexpression: its evaluator on float arrays, its affine
    form (c0, cu, cc, cs) or None, the coordinates it mentions (whatever
    cancels in its value) and its depth, in nodes from root to deepest leaf."""

    fn: Callable
    affine: tuple | None
    reads: frozenset
    depth: int


def _const(value: Fraction) -> _Node:
    x = float(value)
    return _Node(lambda *_: x, (value, *[Fraction(0)] * 3), frozenset(), 1)


def _var(name: str) -> _Node:
    i = ("xu", "xc", "xs").index(name)
    form = [Fraction(0)] * 4
    form[1 + i] = Fraction(1)
    return _Node(lambda *coords: coords[i], tuple(form), frozenset((name,)), 1)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "min": np.minimum, "max": np.maximum}


def _binary(op: str, a: _Node, b: _Node) -> _Node:
    """The node `a op b`, refused past MAX_DEPTH as it is built:
    evaluation recurses once per level."""
    depth = 1 + max(a.depth, b.depth)
    if depth > MAX_DEPTH:
        raise _too_deep()
    f, g, apply = a.fn, b.fn, _OPS[op]
    return _Node(lambda xu, xc, xs: apply(f(xu, xc, xs), g(xu, xc, xs)),
                 _binary_affine(op, a.affine, b.affine), a.reads | b.reads,
                 depth)


def _binary_affine(op: str, a, b):
    """The affine form of `a op b` from those of a and b, else None."""
    if a is None or b is None or op in ("min", "max"):
        return None
    if op == "+":
        return tuple(x + y for x, y in zip(a, b))
    if op == "-":
        return tuple(x - y for x, y in zip(a, b))
    # product: affine only when one side is constant
    if not any(a[1:]):
        return tuple(a[0] * y for y in b)
    if not any(b[1:]):
        return tuple(b[0] * x for x in a)
    return None


class _Parser:
    """Recursive descent whose productions build finished nodes.  Every
    nesting (parenthesis, unary minus, min, max) recurses through `factor`,
    which refuses more than MAX_DEPTH open factors, so the recursion stays
    far from Python's limit; parentheses make no node, and the nodes refuse
    a tree deeper than MAX_DEPTH themselves."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.i]
        if kind and k != kind or value is not None and v != value:
            raise ParseError(
                f"expected {value or kind!r}, got {_describe(k, v)}")
        self.i += 1
        return k, v

    def expr(self):
        node = self.term()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            node = _binary(self.take()[1], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("sym", "*"):
            node = _binary(self.take()[1], node, self.factor())
        return node

    def factor(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise _too_deep()
        try:
            k, v = self.take()
            if (k, v) == ("sym", "-"):     # -a as (-1) * a, exact in floats
                return _binary("*", _const(Fraction(-1)), self.factor())
            if k == "num":
                return _const(v)
            if k == "word" and v in COORDINATES:
                return _var(v)
            if k == "word":         # min or max
                self.take("sym", "(")
                a = self.expr()
                self.take("sym", ",")
                b = self.expr()
                self.take("sym", ")")
                return _binary(v, a, b)
            if (k, v) == ("sym", "("):
                node = self.expr()
                self.take("sym", ")")
                return node
            raise ParseError(f"unexpected {_describe(k, v)}")
        finally:
            self.nesting -= 1


def _describe(kind, value) -> str:
    return "end of input" if kind == "end" else repr(value)


def parse_observable(text: str) -> Observable3D:
    text = text.strip()
    if text in PRESETS:
        return PRESETS[text]()
    parser = _Parser(_tokenize(text))
    root = parser.expr()
    if parser.peek()[0] != "end":
        raise ParseError("trailing input")

    def fn(xu, xc, xs):
        return root.fn(np.asarray(xu, dtype=float),
                       np.asarray(xc, dtype=float),
                       np.asarray(xs, dtype=float))

    xc_affine = None
    if root.affine is not None:
        c0, cu, cc, cs = root.affine
        if cu == 0 and cs == 0:
            xc_affine = (cc, c0)
        sup = max(abs(c0 + cu * x + cc * y + cs * z)
                  for x in (0, 1) for y in (0, 1) for z in (0, 1))
        if sup > MAX_MAGNITUDE:
            raise ParseError("expression reaches magnitudes above 2^510, "
                             "too large for the float routes to square")
    return Observable3D(text, fn, xc_affine=xc_affine, reads=root.reads)
