"""Functions compiled from generated source.

generate() compiles a function from lines of source: simulate builds its
stage, recorded row and RK4 step with it, adaptive its disturbance sum and
regressor its terms. fuse()
rewrites functions that call helpers into ones with every helper call
inlined; model and controller apply it to their float entry points at import.
"""
from __future__ import annotations

import functools
import itertools
import linecache
import re
import types

# A name (not an attribute, nor a number's exponent), captured so that split()
# alternates the text between names and the names.
_NAME = re.compile(r"((?<![\w.])[A-Za-z_]\w*)")
# A statement: the return, an assignment to names or one copied as it is.
_STMT = re.compile(r"(return\b)|([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*=(?!=)"
                   r"|(?:if|elif|else|raise|pass)\b")
_CALL = re.compile(r"\s*(([A-Za-z_]\w*)\((.*)\))")   # f(args) after the "=", if one call
_BOUND = re.compile(r"[A-Za-z_]\w*|[\d.]+")          # an argument a parameter is renamed to
_KEYWORD = re.compile(r"(?<![\w.])[A-Za-z_]\w*\s*=(?!=)")   # name= right of a statement's =
_PUNCT = re.compile(r"[][(){},]")


def generate(label: str, name: str, signature: str, lines: list[str], consts: dict):
    """The function `def <name>(<signature>)` with body `lines`, compiled from source.

    Only names are printed: each entry of consts (a function, a class, a term node or a
    float) is an argument of a generated factory and so a closure variable of
    the function, which keeps -0.0 and subnormals exact and binds every function as it
    was read by the caller (a patched module attribute is the one called). The source
    is registered in linecache under the file name <label> (_register), so a traceback
    through the function shows its lines.
    """
    source = "".join(f"{line}\n" for line in (
        f"def factory({', '.join(consts)}):",
        f"    def {name}({signature}):",
        *(f"        {line}" for line in lines),
        f"    return {name}"))
    namespace: dict = {}
    exec(compile(source, _register(label, source), "exec"), namespace)
    return namespace["factory"](**consts)


def numbered(prefix: str, values) -> dict:
    """{prefix0: values[0], prefix1: values[1], ...}: the constants of a generated function."""
    return {f"{prefix}{j}": v for j, v in enumerate(values)}


def _register(label: str, source: str) -> str:
    """The file name of source in linecache: <label>, or <label #2>, <label #3> ..., the
    first that is free or holds this source, so that two sources never share a name.
    The entry has no mtime, which linecache.checkcache keeps."""
    lines = source.splitlines(True)
    for i in itertools.count(1):
        filename = f"<{label}>" if i == 1 else f"<{label} #{i}>"
        entry = linecache.cache.get(filename)
        if entry is None or entry[2] == lines:
            linecache.cache[filename] = (len(source), None, lines, filename)
            return filename


def fuse(*entries) -> tuple:
    """Each entry compiled by generate() with the body of every helper it calls inlined.

    A helper is a function of the entry's module called as a statement of its own,
    `a, b = helper(x, y)`; the helpers it calls are inlined in turn. Each parameter
    is renamed to its argument when that is a name or a number, and is otherwise
    assigned from it first, in argument order. The helper's locals take a prefix
    unique to the call site (a local it returns as it is takes its target's name),
    and its default arguments and the module globals it reads become closure
    constants. Its final `return e1, e2` becomes `a = e1` and `b = e2`, or one tuple
    assignment where an element reads an earlier target; an element whose target is
    `_` is dropped, not evaluated. Python evaluates floats left to right and never
    contracts two operations, so a fused function gives the same doubles and raises
    the same exceptions as its entry, provided no dropped element is the first to
    raise (desired_hamiltonian drops shape_terms' c / den, whose den its d4 has
    divided by already). The entry is kept as __wrapped__; its source is read from
    the entry's file.

    Raises ValueError, naming the function, at what it cannot inline: a loop or a
    lambda, a return before the last statement, an assignment to a parameter or to
    a global, a helper call that is not the whole right-hand side of an assignment
    to names, or that unpacks an argument, a keyword argument (renaming would rename
    its name), a _ other than as a target of such a call, a string, or a statement
    other than such an assignment, if/elif/else, raise or pass.
    """
    parsed: dict = {}
    fused = []
    for entry in entries:
        if entry.__defaults__:   # the fused signature is the bare parameter names
            raise _refused(entry, "default arguments")
        lines: list = []
        consts: dict = {}
        _emit(entry, None, None, lines, consts, parsed, itertools.count())
        params = entry.__code__.co_varnames[:entry.__code__.co_argcount]
        fn = generate("fused " + entry.__qualname__, entry.__name__, ", ".join(params), lines,
                      consts)
        fused.append(functools.update_wrapper(fn, entry))
    return tuple(fused)


def _refused(fn, why, text=""):
    return ValueError("cannot inline %s: %s%s" % (fn.__qualname__, why, text and ": " + text))


def _emit(fn, args, targets, out, consts, parsed, sites):
    """Append fn's body to out: as the entry (targets None) or inlined at a call site."""
    if fn not in parsed:
        parsed[fn] = _parse(fn)
    params, defaults, stmts, local, read = parsed[fn]
    consts.update(read)   # the globals of one module: a name is one object
    ren: dict = {}
    if targets is not None:
        if len(args) > len(params):
            raise _refused(fn, "too many arguments")
        pre = "_%d_" % next(sites)
        for name in local:
            ren[name] = pre + name
        for i, name in enumerate(params):
            if i < len(args) and _BOUND.fullmatch(args[i]):
                ren[name] = args[i]
                continue
            ren[name] = pre + name
            if i < len(args):
                out.append(pre + name + " = " + args[i])
            elif name in defaults:
                consts[pre + name] = defaults[name]
            else:
                raise _refused(fn, "no argument " + name)
        # A local returned as it is takes the name of its target, when that target
        # is assigned once and is not an argument, which the body reads.
        elements, bound = stmts[-1][2], set(ren.values())
        if len(elements) == len(targets):
            for t, e in zip(targets, elements):
                if len(e) == 3 and e[0] == e[2] == "" and e[1] in local \
                        and targets.count(t) == 1 and t not in bound:
                    ren[e[1]] = t
    for kind, parts, extra in stmts:
        if kind == "call":
            _emit(extra[0], [_sub(a, ren) for a in extra[1]], [ren.get(t, t) for t in parts],
                  out, consts, parsed, sites)
        elif kind == "line":
            out.append(_sub(parts, ren))
        elif targets is None:
            out.append("return " + _sub(parts, ren))
        else:
            out.extend(_assign(targets, extra, parts, ren))


def _sub(parts, ren):
    """The text of parts (a _NAME.split) with each name renamed by ren."""
    return "".join(map(ren.get, parts, parts))


def _assign(targets, elements, whole, ren):
    """The lines of `targets = whole` for the helper's `return whole`: one per target
    but `_`, whose element is dropped, or one tuple assignment where an element reads
    a target assigned before it or the counts differ."""
    if len(elements) == len(targets):
        lines, done = [], set()
        for t, e in zip(targets, elements):
            if t == "_":
                continue
            if done.intersection(map(ren.get, e[1::2], e[1::2])):
                break
            value = _sub(e, ren)
            if value != t:
                lines.append(t + " = " + value)
                done.add(t)
        else:
            return lines
    return [", ".join(targets) + " = " + _sub(whole, ren)]


def _split(text):
    """text split at its commas outside brackets, each part stripped; None when
    a bracket closes that text did not open."""
    depth, cuts = 0, [-1]
    for m in _PUNCT.finditer(text):
        ch = m[0]
        depth += (ch in "([{") - (ch in ")]}")
        if depth < 0:
            return None
        if ch == "," and depth == 0:
            cuts.append(m.start())
    cuts.append(len(text))
    return [text[i + 1:j].strip() for i, j in zip(cuts, cuts[1:])]


def _parse(fn):
    """(params, defaults, statements, locals, globals read) of fn, from its source:
    the lines from the first after the def that has code to the end of the def's
    block, comments dropped.

    A statement is ("line", parts, None), ("call", targets, (helper, [parts of each
    argument])) or ("return", parts, [parts of each element]), where the parts of a
    text are its _NAME.split(); a line keeps its indent relative to the body.
    """
    code, glb = fn.__code__, fn.__globals__
    if code.co_flags & 0x0C or code.co_kwonlyargcount:   # CO_VARARGS | CO_VARKEYWORDS
        raise _refused(fn, "*args, **kwargs or keyword-only parameters")
    params = code.co_varnames[:code.co_argcount]
    defaults = dict(zip(params[::-1], (fn.__defaults__ or ())[::-1]))
    helpers, read = set(), {}
    for n in code.co_names:   # the globals fn reads, and attribute names
        v = glb.get(n)
        if isinstance(v, types.FunctionType) and v.__module__ == fn.__module__:
            helpers.add(n)
        elif n in glb:
            read[n] = v
    start = next((n for _, _, n in code.co_lines() if n and n > code.co_firstlineno), 0)
    src = linecache.getlines(code.co_filename)
    if not start or len(src) < start:
        raise _refused(fn, "no source")
    line = src[code.co_firstlineno - 1]
    base = len(line) - len(line.lstrip())   # the def's indent, which ends the body
    stmts, local, pending, depth, body, returned = [], set(), "", 0, -1, False
    for line in src[start - 1:]:
        if "#" in line:
            line = line[:line.index("#")]
        stripped = line.strip()
        if not stripped:
            continue
        if not pending:
            indent = len(line) - len(line.lstrip())
            if indent <= base:
                break
        if '"' in line or "'" in line:
            raise _refused(fn, "a string", stripped)
        pending = pending + " " + stripped
        depth += sum(map(line.count, "([{")) - sum(map(line.count, ")]}"))
        if depth:
            continue
        text, pending = pending.strip(), ""
        if body < 0:
            body = indent
        parts = _NAME.split(text)
        words = parts[1::2]
        kind = _STMT.match(text)
        if returned or (kind and kind[1] and indent > body):
            raise _refused(fn, "an early return", text)
        if "for" in words or "while" in words or "lambda" in words:
            raise _refused(fn, "a loop or a lambda", text)
        if _KEYWORD.search(text, kind.end() if kind else 0):
            raise _refused(fn, "a keyword argument", text)
        called = [n for n in words if n in helpers]
        if "_" in words and not (kind and kind[2] and called
                                 and "_" not in words[kind[2].count(",") + 1:]):
            raise _refused(fn, "a _ other than as a target of a helper call", text)
        if kind and kind[1]:
            rhs = text[6:].strip()
            stmts.append(("return", _NAME.split(rhs), list(map(_NAME.split, _split(rhs)))))
            returned = True
            continue
        if kind and kind[2]:
            targets = kind[2].replace(" ", "").split(",")
            if not set(params).isdisjoint(targets):
                raise _refused(fn, "an assignment to a parameter", text)
            local.update(targets)
            call = _CALL.fullmatch(text, kind.end())
            args = _split(call[3]) if call and call[3].strip() else []
            if call and args is not None and called == [call[2]] and indent == body:
                if any(a.startswith("*") for a in args):
                    raise _refused(fn, "a helper call with unpacked arguments", text)
                stmts.append(("call", targets, (glb[call[2]], list(map(_NAME.split, args)))))
                continue
        elif not kind and indent == body:
            raise _refused(fn, "a statement other than an assignment to names, if, raise or "
                               "return", text)
        if called:
            raise _refused(fn, "a helper call that is not a statement of its own", text)
        parts[0] = " " * (indent - body) + parts[0]
        stmts.append(("line", parts, None))
    if not returned:
        raise _refused(fn, "no final return")
    if not local <= set(code.co_varnames):   # a name declared global
        raise _refused(fn, "an assignment to a global")
    return params, defaults, stmts, local, read
