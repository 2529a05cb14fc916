"""Inlining of helper calls into the fused entry points, run when the source changes.

`python tools/fusion.py src/ripsim` rewrites the checked-in _fused.py of the package
directory it is given from that directory's controller.py and model.py, which it reads
with ast: it imports nothing from ripsim, so it runs while a stale _fused.py stops the
package from importing. It is a build tool and ships with no package.
"""
import argparse
import ast
import copy
import itertools
import os
import symtable

_HEADER = '''"""Generated by tools/fusion.py: do not edit.

The float entry points controller.control_terms and model.open_loop_rhs_flat with every
helper call inlined, one factory each, which the two modules bind at import
(codegen.bind). After editing either definition or a helper it calls, rewrite this
file from the repository root with

    python tools/fusion.py src/ripsim
"""
'''


def fused_source(package: str) -> str:
    """The text of _fused.py for controller.py and model.py in the directory package
    as they are now."""
    return "\n\n".join([
        _HEADER,
        factory(os.path.join(package, "controller.py"), "control_terms"),
        factory(os.path.join(package, "model.py"), "open_loop_rhs_flat")])


def factory(path: str, name: str) -> str:
    """The source of `def <name>_factory(<constants>)`, which returns the top-level def
    `name` of the file at path with every helper call inlined.

    A helper is a top-level def of the same file, called as a statement of its own,
    `a, b = helper(x, y)`, and inlined in turn. At each call site only the Name nodes
    of a copy of its def change, so attribute and keyword names and strings keep their
    text: a parameter is renamed to its argument when that is a name or a number, and
    is otherwise assigned from it first; the helper's locals take a prefix unique to
    the call site, and a local it returns as it is takes its target's name. Its final
    `return e1, e2` becomes `a = e1` and `b = e2`, or one tuple assignment where an
    element reads an earlier target. The constants are the module-level names the
    inlined code reads, which codegen.bind() passes. Python evaluates floats left to
    right and never contracts two operations, so the fused function gives the same
    doubles and raises the same exceptions as the def.

    Raises ValueError, naming the function, at a loop, a comprehension or a lambda, a
    return before the last statement, an assignment to a parameter, a call that omits
    an argument, a helper call that is not the whole right-hand side of an assignment
    to names or that unpacks or names an argument, or a statement other than such an
    assignment, if/elif/else, raise, pass or the final return.
    """
    with open(path, encoding="utf-8") as f:
        source = f.read()
    helpers = {s.name: s for s in ast.parse(source).body if type(s) is ast.FunctionDef}
    module = {s.get_name() for s in symtable.symtable(source, path, "exec").get_symbols()
              if s.is_assigned() or s.is_imported()}
    entry = helpers[name]
    if entry.args.defaults:   # the fused signature is the bare parameter names
        raise _refused(entry, "default arguments")
    lines, consts = [], {}
    params = _emit(entry, None, None, (helpers, module, lines, consts, itertools.count()))
    return "".join(f"{line}\n" for line in (
        f"def {name}_factory({', '.join(consts)}):",
        f"    def {name}({', '.join(params)}):",
        *(f"        {line}" for line in lines),
        f"    return {name}"))


def _refused(fn, why, node=None):
    return ValueError("cannot inline %s: %s%s"
                      % (fn.name, why, "" if node is None else ": " + ast.unparse(node)))


def _emit(fn, args, targets, ctx):
    """Append the body of a copy of the def fn to the lines in ctx: as the entry (targets
    None) or inlined at a call site with the argument nodes args. Returns fn's
    parameters."""
    helpers, module, out, consts, sites = ctx
    fn = copy.deepcopy(fn)
    params, stmts, names, local, ret, elements = _parse(fn, helpers)
    consts.update(dict.fromkeys(n.id for n in names if n.id in module
                                and n.id not in local and n.id not in params))
    ren: dict = {}
    if targets is not None:
        if len(args) != len(params):
            raise _refused(fn, "too many arguments" if len(args) > len(params)
                           else "no argument " + params[len(args)])
        pre = "_%d_" % next(sites)
        ren = {name: pre + name for name in local}
        for name, arg in zip(params, args):
            if type(arg) is ast.Name or type(arg) is ast.Constant \
                    and type(arg.value) in (int, float):
                ren[name] = ast.unparse(arg)
            else:
                ren[name] = pre + name
                out.append(pre + name + " = " + ast.unparse(arg))
        # A local returned as it is takes the name of its target, when that target
        # is assigned once and is not an argument, which the body reads.
        bound = set(ren.values())
        if len(elements) == len(targets):
            for t, (e, _) in zip(targets, elements):
                if type(e) is ast.Name and e.id in local and targets.count(t) == 1 \
                        and t not in bound:
                    ren[e.id] = t
    for node in names:
        node.id = ren.get(node.id, node.id)
    for stmt, helper in stmts:
        if helper is None:
            out.extend(ast.unparse(stmt).split("\n"))
        else:
            target = stmt.targets[0]
            _emit(helper, stmt.value.args, [n.id for n in getattr(target, "elts", [target])],
                  ctx)
    out.extend([ast.unparse(ret)] if targets is None else _assign(targets, ret.value, elements))
    return params


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


_STATEMENTS = (ast.Assign, ast.If, ast.Raise, ast.Pass, ast.Return)
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.Lambda, ast.comprehension)


def _to_names(targets):
    """Whether every target of an assignment is a name or a tuple of names."""
    return all(type(t) is ast.Name or type(t) is ast.Tuple
               and all(type(e) is ast.Name for e in t.elts) for t in targets)


def _parse(fn, helpers):
    """(params, statements, names, locals, final return, elements) of the def fn: a
    statement is (node, the def of the helper it calls or None), names are the Name
    nodes but a called helper's, and each element of the final return is (node, its
    Name nodes)."""
    spec = fn.args
    if spec.vararg or spec.kwarg or spec.kwonlyargs:
        raise _refused(fn, "*args, **kwargs or keyword-only parameters")
    params = [p.arg for p in spec.posonlyargs + spec.args]
    local = {n.id for n in ast.walk(fn) if type(n) is ast.Name
             and type(n.ctx) is ast.Store} - set(params)
    helpers = {h: d for h, d in helpers.items() if h not in local and h not in params}
    body = fn.body[ast.get_docstring(fn, False) is not None:]
    ret = body[-1] if body else None
    if type(ret) is not ast.Return or ret.value is None:
        raise _refused(fn, "no final return")
    stmts, names = [], []
    for stmt in body:
        roots, called = [stmt], None
        if type(stmt) is ast.Assign and len(stmt.targets) == 1 and _to_names(stmt.targets) \
                and type(stmt.value) is ast.Call and type(stmt.value.func) is ast.Name:
            called = helpers.get(stmt.value.func.id)
        if called is not None:
            if stmt.value.keywords or any(type(a) is ast.Starred for a in stmt.value.args):
                raise _refused(fn, "a helper call with unpacked or keyword arguments", stmt)
            roots = [stmt.targets[0], *stmt.value.args]
        for node in (n for root in roots for n in ast.walk(root)):
            kind = type(node)
            if kind is ast.Name:
                if node.id in helpers:
                    raise _refused(fn, "a helper call that is not a statement of its own", stmt)
                if type(node.ctx) is ast.Store and node.id in params:
                    raise _refused(fn, "an assignment to a parameter", stmt)
                names.append(node)
            elif kind in _LOOPS:
                raise _refused(fn, "a loop or a lambda", stmt)
            elif kind is ast.Return and node is not ret:
                raise _refused(fn, "an early return", stmt)
            elif isinstance(node, ast.stmt) and (kind not in _STATEMENTS or kind is ast.Assign
                                                 and not _to_names(node.targets)):
                raise _refused(fn, "a statement other than an assignment to names, if, raise "
                                   "or return", stmt)
        stmts.append((stmt, called))
    value = ret.value
    elements = [(e, [n for n in ast.walk(e) if type(n) is ast.Name])
                for e in (value.elts if type(value) is ast.Tuple else [value])]
    return params, stmts[:-1], names, local, ret, elements


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the package's _fused.py from its "
                                                 "controller.py and model.py.")
    parser.add_argument("package", help="the package directory, e.g. src/ripsim")
    package = parser.parse_args().package
    with open(os.path.join(package, "_fused.py"), "w", encoding="utf-8", newline="\n") as f:
        f.write(fused_source(package))
