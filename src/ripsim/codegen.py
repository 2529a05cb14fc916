"""Functions compiled from generated source, at run time.

generate() compiles a function from lines of source: simulate builds its
stage, recorded row and RK4 step with it, adaptive its disturbance sum and
regressor its terms; summed() prints every sum of the first two. bind()
makes model's and controller's one fused float entry point each,
open_loop_rhs_flat and control_terms, from the factories that the build
tool `python tools/fusion.py src/ripsim` printed into the checked-in module
_fused.py when the source changed; no import fuses anything.
"""
from __future__ import annotations

import functools
import itertools
import linecache


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
    exec(compile(source, _register(label, source), "exec", dont_inherit=True), namespace)
    return namespace["factory"](**consts)


def summed(out: str, products, start: str | None = "0.0") -> list[str]:
    """out = start, then out = out + p per product p, left to right: every sum of
    generated code, one statement per term (no expression deep enough for the compiler
    to recurse on), in the order of tests/oracles.py's dot; start None goes on from out.

    A sum from 0.0 may drop the term of a 0.0 or -0.0 weight and print 1.0 * v as v
    (simulate._matvec). Rounding to nearest, a sum from +0.0 is never -0.0, so adding a
    signed zero leaves it as it is, and v * 1.0 is v bit for bit: the fold is exact
    wherever each v is finite (0.0 * inf and 0.0 * nan are nan).
    """
    return [*([] if start is None else [f"{out} = {start}"]),
            *(f"{out} = {out} + {p}" for p in products)]


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


def bind(factory, entry):
    """The function factory returns, each of its parameters bound to the global of that
    name in entry's module; wrapped as entry (functools.update_wrapper), which stays its
    __wrapped__. Raises ImportError when the module has no global of a parameter's
    name: _fused.py was written before a rename."""
    code, glb = factory.__code__, entry.__globals__
    names = code.co_varnames[:code.co_argcount]
    missing = [name for name in names if name not in glb]
    if missing:
        raise ImportError(f"src/ripsim/_fused.py is stale: {factory.__name__} reads "
                          f"{', '.join(missing)}, which {entry.__module__} does not define;"
                          " rewrite it from the repository root with:"
                          " python tools/fusion.py src/ripsim")
    return functools.update_wrapper(factory(*[glb[name] for name in names]), entry)
