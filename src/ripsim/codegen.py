"""Functions compiled from generated source.

generate() compiles a function from lines of source: simulate builds its
stage, recorded row and RK4 step with it, adaptive its disturbance sum and
regressor its terms. fuse() rewrites functions that call helpers into ones
with every helper call inlined, on each def's syntax tree (ast), printed back
through generate(); model and controller apply it at import to their one
float entry point each, open_loop_rhs_flat and control_terms.
"""
from __future__ import annotations

import ast
import functools
import itertools
import linecache
import types


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
    `a, b = helper(x, y)`; the helpers it calls are inlined in turn. Each def is parsed
    from its file (ast) once per call of fuse, and at each call site only its Name
    nodes change, so attribute and keyword names and strings keep their text: each
    parameter is renamed to its argument when that is a name or a number, and is
    otherwise assigned from it first, in argument order; the helper's locals take a
    prefix unique to the call site (a local it returns as it is takes its target's
    name); its default arguments and the module globals it reads become closure
    constants. Its final `return e1, e2` becomes `a = e1` and `b = e2`, or one tuple
    assignment where an element reads an earlier target. The statements are printed
    with ast.unparse. Python evaluates floats left to right and never contracts two
    operations, so a fused function gives the same doubles and raises the same
    exceptions as its entry. The entry is kept as __wrapped__.

    Raises ValueError, naming the function, at what it cannot inline: a loop, a
    comprehension or a lambda, a return before the last statement, an assignment to a
    parameter, a helper call that is not the whole right-hand side of an assignment
    to names, or that unpacks or names an argument, or a statement other than such an
    assignment, if/elif/else, raise, pass or the final return.
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


def _refused(fn, why, node=None):
    return ValueError("cannot inline %s: %s%s"
                      % (fn.__qualname__, why, "" if node is None else ": " + ast.unparse(node)))


def _emit(fn, args, targets, out, consts, parsed, sites):
    """Append fn's body to out: as the entry (targets None) or inlined at a call site
    with the argument nodes args."""
    if fn not in parsed:
        parsed[fn] = _parse(fn)
    params, defaults, stmts, names, local, read, ret, elements = parsed[fn]
    consts.update(read)   # the globals of one module: a name is one object
    ren: dict = {}
    if targets is not None:
        if len(args) > len(params):
            raise _refused(fn, "too many arguments")
        pre = "_%d_" % next(sites)
        for name in local:
            ren[name] = pre + name
        for i, name in enumerate(params):
            arg = args[i] if i < len(args) else None
            if type(arg) is ast.Name or type(arg) is ast.Constant \
                    and type(arg.value) in (int, float):
                ren[name] = ast.unparse(arg)
                continue
            ren[name] = pre + name
            if arg is not None:
                out.append(pre + name + " = " + ast.unparse(arg))
            elif name in defaults:
                consts[pre + name] = defaults[name]
            else:
                raise _refused(fn, "no argument " + name)
        # A local returned as it is takes the name of its target, when that target
        # is assigned once and is not an argument, which the body reads.
        bound = set(ren.values())
        if len(elements) == len(targets):
            for t, (e, _) in zip(targets, elements):
                if names.get(e) in local and targets.count(t) == 1 and t not in bound:
                    ren[names[e]] = t
    for node, name in names.items():   # a Name prints its id: set it to the new name
        node.id = ren.get(name, name)
    for stmt, helper in stmts:
        if helper is None:
            out.extend(ast.unparse(stmt).split("\n"))
        else:
            target = stmt.targets[0]
            _emit(helper, stmt.value.args, [n.id for n in getattr(target, "elts", [target])],
                  out, consts, parsed, sites)
    out.extend([ast.unparse(ret)] if targets is None else _assign(targets, ret.value, elements))


def _assign(targets, value, elements):
    """The lines of `targets = value` for the helper's `return value`: one per target,
    or one tuple assignment where an element reads a target assigned before it or the
    counts differ."""
    if len(elements) == len(targets):
        lines, done = [], set()
        for t, (e, read) in zip(targets, elements):
            if any(n.id in done for n in read):
                break
            text = ast.unparse(e)
            if text != t:
                lines.append(t + " = " + text)
                done.add(t)
        else:
            return lines
    return [", ".join(targets) + " = " + ast.unparse(value)]


def _source(fn):
    """fn's def, parsed from its file: the lines from the def to the last that holds
    code, and those after it that close a bracket left open there."""
    code = fn.__code__
    src = linecache.getlines(code.co_filename)
    end = max(line or 0 for _, _, line in code.co_lines())
    while end <= len(src):
        try:
            tree = ast.parse("".join(src[code.co_firstlineno - 1:end]))
        except IndentationError:   # a def that does not start its line
            break
        except SyntaxError:
            end += 1
            continue
        if tree.body and type(tree.body[0]) is ast.FunctionDef \
                and tree.body[0].name == fn.__name__:
            return tree.body[0]
        break
    raise _refused(fn, "no source")


_STATEMENTS = (ast.Assign, ast.If, ast.Raise, ast.Pass, ast.Return)
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.Lambda, ast.comprehension)


def _to_names(targets):
    """Whether every target of an assignment is a name or a tuple of names."""
    return all(type(t) is ast.Name or type(t) is ast.Tuple
               and all(type(e) is ast.Name for e in t.elts) for t in targets)


def _walk(roots):
    """Every node under roots, parents first: ast.walk without its generators, at half
    its cost (fuse runs at every import)."""
    todo = list(roots)
    for node in todo:
        for field in node._fields:
            child = getattr(node, field)
            if type(child) is list:
                todo.extend(c for c in child if isinstance(c, ast.AST))
            elif isinstance(child, ast.AST):
                todo.append(child)
    return todo


def _parse(fn):
    """(params, defaults, statements, names, locals, globals read, final return,
    elements) of fn: a statement is (node, the helper it calls or None), names maps
    each Name node but a called helper's to its id, and each element of the final
    return is (node, its Name nodes)."""
    code, glb = fn.__code__, fn.__globals__
    if code.co_flags & 0x0C or code.co_kwonlyargcount:   # CO_VARARGS | CO_VARKEYWORDS
        raise _refused(fn, "*args, **kwargs or keyword-only parameters")
    params = code.co_varnames[:code.co_argcount]
    defaults = dict(zip(params[::-1], (fn.__defaults__ or ())[::-1]))
    local = set(code.co_varnames[code.co_argcount:])
    helpers = {n: glb[n] for n in code.co_names if n not in code.co_varnames
               and type(glb.get(n)) is types.FunctionType and glb[n].__module__ == fn.__module__}
    tree = _source(fn)
    body = tree.body[ast.get_docstring(tree, False) is not None:]
    ret = body[-1] if body else None
    if type(ret) is not ast.Return or ret.value is None:
        raise _refused(fn, "no final return")
    stmts, names = [], {}
    for stmt in body:
        roots, called = [stmt], None
        if type(stmt) is ast.Assign and len(stmt.targets) == 1 and _to_names(stmt.targets) \
                and type(stmt.value) is ast.Call and type(stmt.value.func) is ast.Name:
            called = helpers.get(stmt.value.func.id)
        if called is not None:
            if stmt.value.keywords or any(type(a) is ast.Starred for a in stmt.value.args):
                raise _refused(fn, "a helper call with unpacked or keyword arguments", stmt)
            roots = [stmt.targets[0], *stmt.value.args]
        for node in _walk(roots):
            kind = type(node)
            if kind is ast.Name:
                store = type(node.ctx) is ast.Store
                if node.id in helpers:
                    raise _refused(fn, "a helper call that is not a statement of its own", stmt)
                if store and node.id in params:
                    raise _refused(fn, "an assignment to a parameter", stmt)
                names[node] = node.id
            elif kind in _LOOPS:
                raise _refused(fn, "a loop or a lambda", stmt)
            elif kind is ast.Return and node is not ret:
                raise _refused(fn, "an early return", stmt)
            elif isinstance(node, ast.stmt) and (kind not in _STATEMENTS or kind is ast.Assign
                                                 and not _to_names(node.targets)):
                raise _refused(fn, "a statement other than an assignment to names, if, raise "
                                   "or return", stmt)
        stmts.append((stmt, called))
    read = {n: glb[n] for n in code.co_names if n in glb and n not in helpers}
    value = ret.value
    elements = [(e, [n for n in _walk([e]) if type(n) is ast.Name])
                for e in (value.elts if type(value) is ast.Tuple else [value])]
    return params, defaults, stmts[:-1], names, local, read, ret, elements
