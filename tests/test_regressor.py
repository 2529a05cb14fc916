"""Regressor expression language: parse and evaluate.

Covers:
  - the reference disturbance basis ["1","q1","sin(q2)*cos(p1)"]
  - literal, variable, nested-call and product evaluation
  - sin/cos of an overflowed argument give nan, not a ValueError
  - unknown variables and malformed inputs raise with position info; a
    character that starts no token is named at its own position, also
    after whitespace, and a non-ASCII digit starts no token
  - calls nest MAX_NESTING deep; one level more raises ParseError at the
    '(' that goes past the limit
  - a literal that overflows a double (1e999) raises ParseError at its
    position; one that underflows (1e-999) is 0.0
  - a product with a run of constant factors (numbers, sin/cos of constants)
    that multiply to +-inf or nan raises ParseError at the run's first factor,
    wherever the run sits, also inside sin/cos; runs whose products stay
    finite parse, also when their product with the variables between them
    overflows (1e308*q1*1e308)
  - property (hypothesis): on grammar expressions with the literal 5e-324
    and products that overflow (1e308*1e308), also inside sin/cos, the
    compiled term equals a tree-walk evaluator bit for bit (nan equal to nan);
    a draw refused at parse time is refused for its constant factors alone:
    the tree walk of the run at the error's position is not finite, and of
    an accepted draw every run of every product is finite
  - a node keeps its compiled function as a plain instance attribute: no
    class attribute named compiled, _compile runs once per node, and a
    nested node is compiled only when it is itself called
  - RegressorSpec validation (at least one term)
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripsim import regressor
from ripsim.regressor import (
    MAX_NESTING, Call, Number, ParseError, Product, RegressorSpec, UnknownVariable, VARIABLES,
    Variable, parse_regressor, parse_term,
)

from oracles import eval_flat

F_REF = ["1", "q1", "sin(q2)*cos(p1)"]


def test_reference_basis_shape_and_origin():
    spec = parse_regressor(F_REF)
    assert spec.ell == 3
    vals = np.array(eval_flat(spec, 0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(vals, [1.0, 0.0, 0.0])


def test_reference_basis_all_ones_state():
    spec = parse_regressor(F_REF)
    vals = eval_flat(spec, 1.0, math.pi / 2, 0.0, 0.7)
    assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_disturbance_value_at_origin():
    spec = parse_regressor(F_REF)
    theta = np.array([0.1, 0.1, -0.3])
    vals = np.array(eval_flat(spec, 0.0, 0.0, 0.0, 0.0))
    assert vals @ theta == pytest.approx(0.1, abs=1e-15)


def test_constant_term():
    spec = parse_regressor(["1"])
    assert spec.ell == 1
    assert eval_flat(spec, 3.0, -2.0, 0.5, 0.1) == [1.0]


def test_number_formats():
    assert parse_term("2.5")(0, 0, 0, 0) == 2.5
    assert parse_term(".5")(0, 0, 0, 0) == 0.5
    assert parse_term("1e-2")(0, 0, 0, 0) == 0.01
    assert parse_term("3*2*q1")(2.0, 0, 0, 0) == 12.0


def test_each_variable():
    for i, name in enumerate(VARIABLES):
        args = [0.0] * 4
        args[i] = 1.25
        assert parse_term(name)(*args) == 1.25


def test_nested_calls():
    t = parse_term("sin(cos(q2))")
    assert t(0.0, 0.3, 0.0, 0.0) == pytest.approx(math.sin(math.cos(0.3)), abs=1e-15)
    t2 = parse_term("cos(2*q1*sin(p2))")
    assert t2(0.4, 0, 0, 0.2) == pytest.approx(
        math.cos(2 * 0.4 * math.sin(0.2)), abs=1e-15)


def test_trig_of_overflow_is_nan():
    # p1^3 overflows to inf at p1 = 1e103; math.sin(inf) would raise
    for text in ("sin(p1*p1*p1)", "cos(p1*p1*p1)*q1"):
        assert math.isnan(parse_term(text)(1.0, 0.0, 1e103, 0.0))
    assert parse_term("sin(p1*p1*p1)")(1.0, 0.0, 1e102, 0.0) == math.sin(1e306)


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as exc:
        parse_term("sin(q3)")
    assert exc.value.name == "q3"
    assert exc.value.pos == 4
    assert "q3" in str(exc.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_term("sin(q1")
    assert exc.value.pos >= 6
    for bad in ("", "q1*", "*q1", "sin", "sin()", "q1 q2", "(q1)", "1.2.3"):
        with pytest.raises(ParseError):
            parse_term(bad)


@pytest.mark.parametrize("text,pos,char", [
    ("q1$", 2, "$"),
    ("q1 $", 3, "$"),
    ("q1 *  %", 6, "%"),
])
def test_bad_character_named_at_its_position(text, pos, char):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.pos == pos
    assert f"unexpected character {char!r} at position {pos}" in str(exc.value)


def test_non_ascii_digit_starts_no_token():
    # NUMBER is ASCII digits: an Arabic-Indic three is not 3.0
    with pytest.raises(ParseError) as exc:
        parse_term("\u0663*q1")
    assert exc.value.pos == 0
    assert "unexpected character '\u0663' at position 0" in str(exc.value)


def nested(depth):
    return "sin(" * depth + "q1" + ")" * depth


def test_nesting_at_the_limit_parses():
    t = parse_term(nested(MAX_NESTING))
    want = 0.3
    for _ in range(MAX_NESTING):
        want = math.sin(want)
    assert t(0.3, 0.0, 0.0, 0.0) == want


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 700])
def test_nesting_past_the_limit_raises_at_its_paren(depth):
    with pytest.raises(ParseError) as exc:
        parse_term("2*" + nested(depth))
    assert exc.value.pos == 2 + 4 * MAX_NESTING + 3
    assert f"calls nested deeper than {MAX_NESTING}" in str(exc.value)


@pytest.mark.parametrize("text, pos", [("1e999", 0), ("q1*2*sin(1.5e400)", 9),
                                       ("cos(q2*1" + "0" * 400 + ".0)", 7)])
def test_overflowing_literal_raises_at_its_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.pos == pos
    assert "overflows a double" in str(exc.value)


def test_underflowing_literal_is_zero():
    assert parse_term("1e-999*q1") == Product((Number(0.0), Variable("q1")))


@pytest.mark.parametrize("text, pos, value", [
    ("1e308*1e308", 0, "inf"), ("q1*sin(1e308*1e308)", 7, "inf"),
    ("sin(1e308*1e308)*q1", 4, "inf"), ("sin(1e308*1e308*0)", 4, "nan"),
    ("cos(2*1.5)*1e308*1e308*q1", 0, "-inf"), (" q2*cos( 1e300*cos(0)*1e300)", 9, "inf"),
    ("cos(q2*q2*1e308)*sin(1e308*1e308*0)", 21, "nan"),
    ("q1*1e308*1e308", 3, "inf"), ("2*q1*cos(0)*1e308*1e308*p2", 5, "inf"),
    ("sin(q1*1e308*1e308)", 7, "inf"), ("1e308*q1*1e308*1e-308*1e308*1e308", 9, "inf"),
])
def test_overflowing_constant_factors_raise_at_their_product(text, pos, value):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.pos == pos
    assert f"constant factors multiply to {value}, not a finite double at position {pos}" \
        in str(exc.value)


@pytest.mark.parametrize("text", ["1e308*q1*1e308", "1e308*1e-308*1e308",
                                  "sin(1e308)*1e308*2", "cos(1e308*1e-308*1e308)*q2",
                                  "q1*1e308*1e-308*1e308"])
def test_finite_constant_factors_parse(text):
    t = parse_term(text)
    assert same_double(t(1.0, 0.5, 0.25, 0.0), tree_eval(t, 1.0, 0.5, 0.25, 0.0))


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse_term("tan(q1)")


def test_whitespace_tolerated():
    t = parse_term("  sin( q2 ) *  cos(p1) ")
    assert t(0, 0.3, 0.4, 0) == pytest.approx(math.sin(0.3) * math.cos(0.4), abs=1e-15)


def tree_eval(node, q1, q2, p1, p2):
    """Reference: evaluate the tree node by node, sin/cos(+-inf) = nan, products from 1.0."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return dict(zip(VARIABLES, (q1, q2, p1, p2)))[node.name]
    if isinstance(node, Call):
        arg = tree_eval(node.arg, q1, q2, p1, p2)
        try:
            return getattr(math, node.fn)(arg)
        except ValueError:
            return math.nan
    assert isinstance(node, Product)
    out = 1.0
    for f in node.factors:
        out *= tree_eval(f, q1, q2, p1, p2)
    return out


def variables_of(node):
    if isinstance(node, Variable):
        return {node.name}
    if isinstance(node, Call):
        return variables_of(node.arg)
    if isinstance(node, Product):
        return set().union(*map(variables_of, node.factors))
    return set()


def unchecked_product(text, pos):
    """The product that starts at text[pos], parsed with the constant check off."""
    with mock.patch.object(regressor, "_constant_runs", lambda factors: []):
        return regressor._parse_expr(regressor._tokenize(text[pos:]), text[pos:], 0)


def constant_runs(node):
    """The tree walk's product, from 1.0, of each maximal run of factors that read no
    variable, in every product of node."""
    if isinstance(node, Call):
        return constant_runs(node.arg)
    if not isinstance(node, Product):
        return []
    out, run = [], None
    for f in node.factors:
        out += constant_runs(f)
        if variables_of(f):
            if run is not None:
                out.append(run)
            run = None
        else:
            run = (1.0 if run is None else run) * tree_eval(f, 0.0, 0.0, 0.0, 0.0)
    return out if run is None else [*out, run]


def same_double(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


LITERALS = (st.sampled_from(["1e308*1e308", "5e-324", "0", "1", ".5", "2.5", "1e308", "3e200"])
            | st.floats(min_value=0.0, allow_infinity=False).map(repr))
FACTORS = st.recursive(
    LITERALS | st.sampled_from(VARIABLES),
    lambda inner: st.builds("{}({})".format, st.sampled_from(["sin", "cos"]),
                            st.lists(inner, min_size=1, max_size=4).map("*".join)),
    max_leaves=12)
TERMS = st.lists(FACTORS, min_size=1, max_size=4).map("*".join)
STATES = st.tuples(*[st.floats() | st.sampled_from([1e103, -1e155, 1e308])] * 4)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(TERMS, STATES)
@example("sin(p1*p1*p1)*cos(1e308*1e308*q1)*5e-324", (1.0, 0.0, 1e103, 0.0))
@example("cos(q2*q2*1e308)*sin(1e308*1e308*0)", (0.0, 2.0, 0.0, 0.0))
@example("sin(p1*p1*p1)*cos(q1*1e308*1e308)*5e-324", (1.0, 0.0, 1e103, 0.0))
def test_compiled_term_property(text, state):
    try:
        term = parse_term(text)
    except ParseError as e:   # only for its constants, which the tree walk confirms
        assert "constant factors multiply to" in str(e), e
        run = 1.0
        for f in unchecked_product(text, e.pos).factors:   # the run at e.pos
            if variables_of(f):
                break
            run *= tree_eval(f, 0.0, 0.0, 0.0, 0.0)
        assert not math.isfinite(run)
        assert not all(map(math.isfinite, constant_runs(unchecked_product(text, 0))))
        return
    assert all(map(math.isfinite, constant_runs(term)))
    assert same_double(term(*state), tree_eval(term, *state))


def counted_compiles(monkeypatch):
    """The nodes _compile is called on, in order, from now on."""
    compiled, compile_ = [], regressor._compile

    def counting(node):
        compiled.append(node)
        return compile_(node)

    monkeypatch.setattr(regressor, "_compile", counting)
    return compiled


def test_compiled_function_is_a_plain_attribute_built_once(monkeypatch):
    assert not any("compiled" in vars(cls) for cls in Product.__mro__)
    compiled = counted_compiles(monkeypatch)
    term = parse_term("sin(q1*q2)*cos(p1)*2")
    assert compiled == [term] and "compiled" in term.__dict__
    first = term(0.3, 0.5, -0.2, 0.0)
    for _ in range(3):
        assert term(0.3, 0.5, -0.2, 0.0) == first
    assert compiled == [term]
    nested, inner = term.factors[0], term.factors[0].arg
    assert "compiled" not in nested.__dict__ and "compiled" not in inner.__dict__
    assert nested(0.3, 0.5, -0.2, 0.0) == math.sin(0.3 * 0.5)
    assert nested(0.1, 0.5, -0.2, 0.0) == math.sin(0.1 * 0.5)
    assert compiled == [term, nested] and "compiled" in nested.__dict__
    assert "compiled" not in inner.__dict__   # the product inside sin is not called
    number = Number(2.5)   # a node built directly is compiled on its first call
    assert "compiled" not in number.__dict__
    assert number(0.0, 0.0, 0.0, 0.0) == number(1.0, 0.0, 0.0, 0.0) == 2.5
    assert compiled == [term, nested, number] and "compiled" in number.__dict__
    assert number == Number(2.5) and hash(number) == hash(Number(2.5))


def test_empty_regressor_rejected():
    with pytest.raises(ValueError):
        parse_regressor([])
    with pytest.raises(ValueError):
        RegressorSpec(terms=())
