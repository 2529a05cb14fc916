"""Tiny expression language for disturbance regressor terms.

Each regressor component is a product of factors, where a factor is a
number literal, one of the state variables q1/q2/p1/p2, or sin(...) /
cos(...) applied to another such expression:

    expr   := factor ('*' factor)*
    factor := NUMBER | VAR | FN '(' expr ')'
    FN     := 'sin' | 'cos'

Evaluation follows IEEE float arithmetic: a product may overflow to
inf, and sin/cos of inf is nan (where math.sin raises), as in numpy.
The parser reads a term in one pass: each factor gives its node, the
statements that evaluate it and its value when it reads no variable. The
statements compile once, in parse_term, into one Python function of
(q1, q2, p1, p2), kept on the term's node as the plain attribute `compiled`.
Only parse_term's results are callable: a nested or hand-built node has no
`compiled`.

Sums are not part of the language: a disturbance d = f(q,p)^T theta is
a weighted sum of regressor components by construction, with the
weights living in theta. Extending the grammar (e.g. '+', powers) only
requires new alternatives in _parse_factor, each with one AST node (a
dataclass under @_own_call), its statements and its constant value.

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
import types
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
    """Evaluation shared by the node classes: the term compiled to one function.

    parse_term builds the function of (q1, q2, p1, p2) for the term it returns and
    keeps it as the plain instance attribute `compiled` (no class attribute of that
    name, so the read in __call__ is an instance load). Each node class runs its own
    copy of __call__ (_own_call), so CPython specialises that load and the call of
    `compiled` for one class at a time.
    """

    def __call__(self, q1, q2, p1, p2):
        return self.compiled(q1, q2, p1, p2)


def _own_call(cls):
    """cls with its own copy of _Node.__call__. The copy has a new code object, where
    CPython keeps the specialisation of its instructions, so the attribute load and
    the call in it adapt to cls alone and not to whichever class ran last."""
    call = types.FunctionType(_Node.__call__.__code__.replace(), globals(), "__call__")
    call.__qualname__ = f"{cls.__qualname__}.__call__"
    cls.__call__ = call
    return cls


@_own_call
@dataclass(frozen=True)
class Number(_Node):
    """A number literal."""

    value: float


@_own_call
@dataclass(frozen=True)
class Variable(_Node):
    """One of the state variables q1, q2, p1, p2, by name."""

    name: str


@_own_call
@dataclass(frozen=True)
class Call(_Node):
    """sin or cos, by name, of the node arg."""

    fn: str
    arg: object


@_own_call
@dataclass(frozen=True)
class Product(_Node):
    """The product of the factor nodes, folded left to right from 1.0."""

    factors: tuple


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


def _parse_factor(toks: collections.deque, text: str, depth: int, lines: list, consts: dict):
    """The factor at the front of toks, inside depth enclosing calls, as (node, name,
    value): its statements are appended to lines and its literals bound in consts, name
    holds its value once they have run, and value is that value when it reads no
    variable, else None."""
    kind, value, pos = toks.popleft()
    if kind == "number":
        number = float(value)
        if not math.isfinite(number):
            raise ParseError(text, pos, f"number {value} overflows a double")
        name = f"_k{len(consts)}"
        consts[name] = number
        return Number(number), name, number
    if kind == "ident":
        if toks[0][0] == "lparen":
            if value not in FUNCTIONS:
                raise ParseError(text, pos, f"unknown function {value!r} (expected sin or cos)")
            lpos = toks.popleft()[2]
            if depth == MAX_NESTING:
                raise ParseError(text, lpos, f"calls nested deeper than {MAX_NESTING}")
            arg, arg_name, arg_value = _parse_expr(toks, text, depth + 1, lines, consts)
            ckind, _, cpos = toks.popleft()
            if ckind != "rparen":
                raise ParseError(text, cpos, "expected ')'")
            name = f"_t{len(lines)}"   # numbered by statement, so unique
            lines.append(f"{name} = {value}({arg_name})")
            return (Call(value, arg), name,
                    None if arg_value is None else FUNCTIONS[value](arg_value))
        if value not in VARIABLES:
            raise UnknownVariable(text, pos, value)
        return Variable(value), value, None
    raise ParseError(text, pos, "expected a number, variable, or sin/cos call")


def _parse_expr(toks: collections.deque, text: str, depth: int, lines: list, consts: dict):
    """The expr at the front of toks as _parse_factor's (node, name, value); a product
    takes one statement per factor, folded left to right from 1.0. Once all its factors
    are read, a product with a run of constant factors that multiply past a double
    raises ParseError at the run's first factor (the first such run, left to right)."""
    pos = toks[0][2]
    node, name, value = _parse_factor(toks, text, depth, lines, consts)
    if toks[0][0] != "star":
        return node, name, value
    out = f"_t{len(lines)}"
    lines.append(f"{out} = 1.0")
    factors, runs, last, reads = [], [], None, False   # runs: [first position, product]
    while True:
        factors.append(node)
        lines.append(f"{out} = {out} * {name}")
        if value is None:
            reads = True
        else:   # each maximal run of constant factors folded left to right from 1.0
            if last is None:
                runs.append([pos, 1.0])
            runs[-1][1] *= value
        last = value
        if toks[0][0] != "star":
            break
        toks.popleft()
        pos = toks[0][2]
        node, name, value = _parse_factor(toks, text, depth, lines, consts)
    for first, run in runs:
        if not math.isfinite(run):
            raise ParseError(text, first, f"constant factors multiply to {run}, not a finite double")
    return Product(tuple(factors)), out, None if reads else runs[0][1]


def parse_term(text: str):
    """Parse a single regressor component into an evaluable AST, its `compiled` function
    built from the statements the parser printed.

    The body runs with plain math.sin/cos, which raise ValueError where an
    argument overflowed to +-inf. IEEE (and numpy) give nan there, and a nan
    factor makes every enclosing product and sin/cos nan, so the term is nan.
    """
    toks, lines, consts = _tokenize(text), [], {}
    node, result, _ = _parse_expr(toks, text, 0, lines, consts)
    kind, value, pos = toks[0]
    if kind != "end":
        raise ParseError(text, pos, f"unexpected token {value!r} after expression")
    object.__setattr__(node, "compiled", generate(   # the nodes are frozen
        "regressor term", "term", "q1, q2, p1, p2",
        ["try:", *(f"    {line}" for line in lines), f"    return {result}",
         "except ValueError:", "    return nan"],
        {**FUNCTIONS, "nan": math.nan, **consts}))
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
