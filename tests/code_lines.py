"""Count the code lines of ``src/sugeno_bounds``, the source-size figure that CI reports.

    python tests/code_lines.py [ROOT] [--by-module]

ROOT is the root of a checkout, by default the one that holds this script.
A line counts when it holds code: a blank line, a comment or a docstring does
not.  Prints the total for the package's modules as one number; with
``--by-module``, first one ``module lines`` row per module, then a ``total
lines`` row.
"""

import argparse
import ast
import io
import pathlib
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
          tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--by-module", action="store_true")
    args = parser.parse_args()
    package = args.root / "src/sugeno_bounds"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    if args.by_module:
        for name, lines in counts.items():
            print(name, lines)
        print("total", sum(counts.values()))
    else:
        print(sum(counts.values()))
