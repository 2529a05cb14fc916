"""Line counts of a package's Python files, by kind.

    python tools/src_lines.py src/ripsim

prints the `wc -l` total of the directory's *.py files, then the lines of
code, of docstrings, of comments and blank lines, found with ast and
tokenize. A docstring line is one of a module's, class's or function's
docstring; a comment line holds a comment and no code; a code line holds
any other token. A blank line inside a docstring counts in both.
"""
import ast
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def counts(path: pathlib.Path) -> dict:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return {"wc": text.count("\n"), "code": len(code - doc), "docstring": len(doc),
            "comment": len(comment - code), "blank": sum(not line.strip() for line in lines)}


def main(argv: list[str]) -> int:
    total = dict.fromkeys(("wc", "code", "docstring", "comment", "blank"), 0)
    for path in sorted(pathlib.Path(argv[0]).glob("*.py")):
        for key, n in counts(path).items():
            total[key] += n
    print(" ".join(f"{key} {n}" for key, n in total.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
