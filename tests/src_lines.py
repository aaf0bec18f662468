"""Print each module's line counts under `src/roundquery/`, then the total.

Run it from anywhere with `python3 tests/src_lines.py`, or hand it another
package directory as the one argument.  "lines" is every line of a file;
"code" leaves out blank lines, comments and docstrings (a string that
opens a module, class or function body), so it counts the lines that hold
a token of a statement.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roundquery"

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def line_counts(text):
    """(lines, code lines) of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv):
    package = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code = line_counts(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
