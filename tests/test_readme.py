"""The Python examples of README.md run, and each value they show holds.

The blocks run in order in one namespace, as a reader would type them.  An
expression statement with a trailing comment shows its value: the comment
must start with the repr of what the expression evaluates to.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def trailing_comments(source):
    """Line number -> the text of the comment ending that line, '#' removed."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokens
        if tok.type == tokenize.COMMENT
    }


def test_readme_examples_run_and_show_their_values():
    namespace = {}
    shown = 0
    for source in python_blocks():
        comments = trailing_comments(source)
        for stmt in ast.parse(source).body:
            comment = comments.get(stmt.end_lineno)
            if isinstance(stmt, ast.Expr) and comment is not None:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert comment.startswith(repr(value)), (ast.unparse(stmt), comment)
                shown += 1
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown >= 11
