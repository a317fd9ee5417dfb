"""The README's library quickstart runs, and every value it shows holds."""

import ast
import io
import pathlib
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    """The first ```python block of the README, under "Library quickstart"."""
    text = README.read_text()
    start = text.index("```python", text.index("## Library quickstart"))
    start = text.index("\n", start) + 1
    return text[start : text.index("```", start)]


def _comments(source):
    """Comment text by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        t.start[0]: t.string[1:].strip()
        for t in tokens
        if t.type == tokenize.COMMENT
    }


def _shown_value(comments, stmt, lines):
    """The value the README shows for a statement: a comment after it on
    its last line, or alone on the next line, that reads as a literal."""
    end = stmt.end_lineno
    text = comments.get(end)
    if text is None and end < len(lines) and lines[end].lstrip().startswith("#"):
        text = comments.get(end + 1)
    if text is None:
        return None
    try:
        return (ast.literal_eval(text),)
    except (ValueError, SyntaxError):
        return None


def test_readme_quickstart_values():
    source = _quickstart()
    lines = source.splitlines()
    comments = _comments(source)
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        shown = _shown_value(comments, stmt, lines)
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            if shown is not None:
                (target,) = stmt.targets
                value = namespace[target.id]
        if shown is not None:
            assert value == shown[0], code
            checked.append(shown[0])
    # E.euler, the summands, theta, 462, the si_table ray and the cone rays
    assert len(checked) == 6
    assert 462 in checked and (1, 10, 28, 55, 91, 136) in checked
