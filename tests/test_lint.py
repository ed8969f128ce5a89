"""Source-level checks on the package itself."""

import ast
import os
import subprocess
import sys
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


def test_every_module_level_import_is_used():
    # an import nothing reads is either dead or a re-export for another
    # module, which should import the name from where it is defined
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert not unused, f"unused imports in src/mtformer: {', '.join(unused)}"


def test_package_imports_only_numpy_and_the_standard_library():
    # mtformer is numpy-only: every import is relative, numpy, or stdlib
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {root}" for root in roots
                      if root != "numpy" and root not in sys.stdlib_module_names]
    assert not found, f"imports outside numpy and the standard library: {', '.join(found)}"


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, mtformer.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


def _module_private_names(tree):
    """(name, line) of every module-level ``_x`` def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(n.id, node.lineno) for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in targets
                    if name.startswith("_") and not name.startswith("__"))


def test_every_module_private_name_is_read():
    # a private helper nothing in the package reads is a path only tests run
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}:{line} {private}" for name, tree in trees.items()
              for private, line in _module_private_names(tree) if private not in read]
    assert not unread, f"private names nothing in src/mtformer reads: {', '.join(unread)}"


def test_only_the_cli_prints():
    # the CLI's stdout is its JSON records, and a benchmark's last stdout
    # line is its result: library code reports through return values
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert not found, f"print calls outside cli.py: {', '.join(found)}"


def _raw_file_access(node):
    """What ``node`` does that only files.py may do, or None: measure a
    file, map it, read into a buffer, view an array's raw bytes, or open a
    file to write (``open(path, mode)`` or ``Path.open(mode)``)."""
    if not isinstance(node, ast.Call):
        return None
    func, args = node.func, node.args
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("fstat", "mmap", "readinto"):
        return f"{name}()"
    if name == "cast" and args and isinstance(args[0], ast.Constant) and args[0].value == "B":
        return 'cast("B")'
    if name == "open":
        at = 1 if isinstance(func, ast.Name) else 0
        mode = args[at] if len(args) > at else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            return None
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return "open() with a computed mode"
        if set(mode.value) & set("wax+"):
            return f"open() for writing ({mode.value!r})"
    return None


def test_only_files_reads_and_writes_raw_bytes():
    # files.py holds the one size-checked reader and the one atomic writer;
    # a second hand-written reader would restate its checks and drift
    found = [f"{path.name}:{node.lineno} {what}"
             for path in sorted(SRC.glob("*.py")) if path.name != "files.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (what := _raw_file_access(node))]
    assert not found, f"raw file access outside files.py: {', '.join(found)}"


def test_kernels_import_nothing_from_the_package():
    # kernels.py is a leaf: its kernels can be changed and tested without
    # the tape or the ops
    path = SRC / "kernels.py"
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.level]
    assert not found, f"relative imports in kernels.py: {', '.join(found)}"
