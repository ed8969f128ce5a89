"""Source-level checks on the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mtformer"


def test_package_raises_typed_errors_not_asserts():
    # `python -O` strips assert statements, so checks must raise the errors
    # in errors.py instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/mtformer: {', '.join(found)}"
