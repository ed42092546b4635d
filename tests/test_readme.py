"""The README's library quickstart runs as written: its statements are run
in order, and every expression line that ends in `# value` shows the repr
of what that expression evaluates to."""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    """The first python block after the "Library quickstart" heading."""
    after = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def trailing_comments(source: str) -> dict[int, str]:
    """The text of each comment, keyed by its line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_readme_quickstart_shows_the_values_it_computes():
    source = quickstart_source()
    comments = trailing_comments(source)
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((ast.unparse(stmt.value), repr(value), comments[stmt.end_lineno]))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert len(shown) == 7
    for expr, got, comment in shown:
        assert got == comment, expr
