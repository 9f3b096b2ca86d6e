"""Code lines of each module of ``src/delaylab``, as a Markdown table.

A code line is a line that holds a token of code: blank lines, comments and
docstrings (the string that opens a module, class or function body) do not
count, and a statement spread over several lines counts each of them.
Tokens come from ``tokenize`` and docstrings from ``ast``.

    python3 tools/code_lines.py [DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(root: Path) -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    print("| module | code lines |")
    print("| --- | --- |")
    for name, count in counts.items():
        print(f"| `{name}` | {count} |")
    print(f"| total | {sum(counts.values())} |")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
         / "src" / "delaylab")
