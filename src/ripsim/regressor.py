"""Tiny expression language for disturbance regressor terms.

Each regressor component is a product of factors, where a factor is a
number literal, one of the state variables q1/q2/p1/p2, or sin(...) /
cos(...) applied to another such expression:

    expr   := factor ('*' factor)*
    factor := NUMBER | VAR | FN '(' expr ')'
    FN     := 'sin' | 'cos'

Evaluation follows IEEE float arithmetic: a product may overflow to
inf, and sin/cos of inf is nan (where math.sin raises), as in numpy.
Each term is compiled once, when it is parsed, into one Python function
of (q1, q2, p1, p2), kept on its node as the plain attribute `compiled`
(a nested node is compiled only when it is itself evaluated); the source is
generated from the parsed tree alone.

Sums are not part of the language: a disturbance d = f(q,p)^T theta is
a weighted sum of regressor components by construction, with the
weights living in theta. Extending the grammar (e.g. '+', powers) only
requires new alternatives in _parse_factor, one AST node each and its
statements in _emit.

NUMBER is ASCII digits with an optional point and exponent, and must be
finite as a double (1e999 is refused at its position); so must each maximal
run of constant factors of a product (numbers, and sin/cos of constants),
wherever it sits, multiplied left to right from 1.0 (1e308*1e308 and
q1*1e308*1e308 are refused at the run's first factor; 1e308*q1*1e308 has two
runs of one factor and parses). The tokenizer matches ASCII only, so another
script's digit or space starts no token. Calls nest at most MAX_NESTING deep:
parsing recurses once per level.

A ParseError carries the position of the offending token; an error names
the first character that starts no token (such as '$'), at its own position,
and a call nested too deep is named at its '('.
"""
from __future__ import annotations

import collections
import math
import re
from dataclasses import dataclass

from .codegen import generate

VARIABLES = ("q1", "q2", "p1", "p2")
FUNCTIONS = {"sin": math.sin, "cos": math.cos}
MAX_NESTING = 100  # sin/cos calls inside one another; deeper ones would exhaust Python's stack

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<star>\*)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<bad>\S)
    )""", re.VERBOSE | re.ASCII)


class ParseError(Exception):
    """Malformed regressor expression; carries the character position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {text!r}")


class UnknownVariable(ParseError):
    """Identifier outside {q1, q2, p1, p2}."""

    def __init__(self, text: str, pos: int, name: str):
        self.name = name
        ParseError.__init__(
            self, text, pos,
            f"unknown variable {name!r} (expected one of {', '.join(VARIABLES)})")


class _Node:
    """Evaluation shared by the node classes: the node compiled to one function.

    The function of (q1, q2, p1, p2) is built once per node, on first use, and kept
    as the plain instance attribute `compiled` (no class attribute of that name, so
    the read in __call__ is an instance load); parse_term builds it for the term it
    returns.
    """

    def __call__(self, q1, q2, p1, p2):
        try:
            compiled = self.compiled
        except AttributeError:   # the first evaluation of this node
            compiled = _compiled(self)
        return compiled(q1, q2, p1, p2)


@dataclass(frozen=True)
class Number(_Node):
    value: float


@dataclass(frozen=True)
class Variable(_Node):
    name: str


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: object


@dataclass(frozen=True)
class Product(_Node):
    factors: tuple


def _emit(node, lines: list, consts: dict) -> str:
    """Append the statements that evaluate node; return the name that holds its value.

    Only names are printed: the variables and functions of the grammar,
    temporaries and the names that literals are bound to. One statement per
    operation, so nesting depth is not limited by the Python compiler.
    """
    if isinstance(node, Number):
        name = f"_k{len(consts)}"
        consts[name] = node.value
        return name
    if isinstance(node, Variable):
        if node.name not in VARIABLES:
            raise ValueError(f"unknown variable {node.name!r}")
        return node.name
    if isinstance(node, Call):
        if node.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {node.fn!r}")
        arg = _emit(node.arg, lines, consts)
        out = f"_t{len(lines)}"  # numbered by statement, so unique
        lines.append(f"{out} = {node.fn}({arg})")
        return out
    if isinstance(node, Product):
        out = f"_t{len(lines)}"
        lines.append(f"{out} = 1.0")
        for f in node.factors:  # folded left to right from 1.0
            value = _emit(f, lines, consts)
            lines.append(f"{out} = {out} * {value}")
        return out
    raise TypeError(f"not a regressor node: {node!r}")


def _compiled(node):
    """The node compiled by _compile, kept on it as node.compiled."""
    compiled = _compile(node)
    object.__setattr__(node, "compiled", compiled)   # the nodes are frozen
    return compiled


def _compile(node):
    """node as one Python function of (q1, q2, p1, p2), IEEE-equal to the tree walk.

    The body runs with plain math.sin/cos, which raise ValueError where an
    argument overflowed to +-inf. IEEE (and numpy) give nan there, and a nan
    factor makes every enclosing product and sin/cos nan, so the term is nan.
    """
    consts: dict = {}
    lines: list = []
    result = _emit(node, lines, consts)
    return generate("regressor term", "term", "q1, q2, p1, p2",
                    ["try:", *(f"    {line}" for line in lines), f"    return {result}",
                     "except ValueError:", "    return nan"],
                    {**FUNCTIONS, "nan": math.nan, **consts})


def _tokenize(text: str) -> collections.deque:
    """The (kind, value, pos) tokens of text, ending with ("end", "", len(text))."""
    toks = collections.deque()
    for m in _TOKEN_RE.finditer(text):  # only trailing whitespace is left unmatched
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(text, m.start(kind), f"unexpected character {m.group(kind)!r}")
        toks.append((kind, m.group(kind), m.start(kind)))
    toks.append(("end", "", len(text)))
    return toks


def _parse_factor(toks: collections.deque, text: str, depth: int):
    kind, value, pos = toks.popleft()
    if kind == "number":
        number = float(value)
        if not math.isfinite(number):
            raise ParseError(text, pos, f"number {value} overflows a double")
        return Number(number)
    if kind == "ident":
        if toks[0][0] == "lparen":
            if value not in FUNCTIONS:
                raise ParseError(text, pos, f"unknown function {value!r} (expected sin or cos)")
            lpos = toks.popleft()[2]
            if depth == MAX_NESTING:
                raise ParseError(text, lpos, f"calls nested deeper than {MAX_NESTING}")
            arg = _parse_expr(toks, text, depth + 1)
            ckind, _, cpos = toks.popleft()
            if ckind != "rparen":
                raise ParseError(text, cpos, "expected ')'")
            return Call(value, arg)
        if value not in VARIABLES:
            raise UnknownVariable(text, pos, value)
        return Variable(value)
    raise ParseError(text, pos, "expected a number, variable, or sin/cos call")


def _constant_runs(factors) -> list[list]:
    """[index of its first factor, product] of each maximal run of constant factors,
    left to right, each product folded left to right from 1.0."""
    runs, last = [], -2   # last: the index of the last constant factor seen
    for i, f in enumerate(factors):
        value = _constant(f)
        if value is not None:
            if last != i - 1:
                runs.append([i, 1.0])
            runs[-1][1] *= value
            last = i
    return runs


def _constant(node):
    """The value of a node that reads no variable, else None; its products are finite
    (_parse_expr refuses the others), so sin/cos never see an infinity."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Call):
        arg = _constant(node.arg)
        return None if arg is None else FUNCTIONS[node.fn](arg)
    if isinstance(node, Product):   # math.prod folds floats left to right from 1.0
        values = [_constant(f) for f in node.factors]
        return None if None in values else math.prod(values)
    return None


def _parse_expr(toks: collections.deque, text: str, depth: int):
    """The expr at the front of toks, inside depth enclosing calls. A product with a
    run of constant factors that multiply past a double raises ParseError at the
    run's first factor (the first such run, left to right)."""
    starts = [toks[0][2]]
    factors = [_parse_factor(toks, text, depth)]
    while toks[0][0] == "star":
        toks.popleft()
        starts.append(toks[0][2])
        factors.append(_parse_factor(toks, text, depth))
    if len(factors) == 1:
        return factors[0]
    for first, run in _constant_runs(factors):
        if not math.isfinite(run):
            raise ParseError(text, starts[first],
                             f"constant factors multiply to {run}, not a finite double")
    return Product(tuple(factors))


def parse_term(text: str):
    """Parse a single regressor component into an evaluable AST."""
    toks = _tokenize(text)
    node = _parse_expr(toks, text, 0)
    kind, value, pos = toks[0]
    if kind != "end":
        raise ParseError(text, pos, f"unexpected token {value!r} after expression")
    _compiled(node)   # compiled here, once, rather than on the first evaluation
    return node


@dataclass(frozen=True)
class RegressorSpec:
    """Ordered basis f(q,p) of the disturbance model d = f(q,p)^T theta."""

    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("regressor needs at least one term")

    @property
    def ell(self) -> int:
        return len(self.terms)


def parse_regressor(texts: list[str]) -> RegressorSpec:
    """Parse the list of component expressions, preserving order."""
    return RegressorSpec(tuple(parse_term(t) for t in texts))
