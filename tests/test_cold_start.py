"""What a fresh ``midy`` process imports, and the ``python -m midy`` entry point.

Only ``verify`` reads function signatures, so every other command runs
without ``inspect``; the records are named tuples, so no command needs
``dataclasses``.  Both modules cost more to import than the commands take.
Only ``--json`` and ``verify --out`` write JSON, so text output skips ``json``.
Read statically, every module imports only the standard library, and none of
``json``, ``inspect``, ``random`` and ``dataclasses`` at module level.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from midy.cli import main

commands = [
    ["order", "--base", "10", "7"],
    ["set", "--base", "10", "1316833", "--json"],
    ["check", "--base", "10", "49", "7", "--json"],
    ["shrink", "--base", "10", "13"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
    loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
    codes.append(main(["verify", "restrict", "--max-n", "40"]))  # imports inspect itself
print(codes, loaded)
"""

TEXT_SCRIPT = r"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from midy.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["order", "--base", "10", "7"]), main(["shrink", "--base", "10", "13"])]
print(codes, "json" in sys.modules)
"""


def _run(script):
    done = subprocess.run(
        [sys.executable, "-I", "-c", script, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    return done.stdout, done.stderr


def test_commands_skip_dataclasses_and_inspect():
    assert _run(SCRIPT) == ("[0, 0, 0, 0, 0] []\n", "")


def test_text_output_skips_json():
    assert _run(TEXT_SCRIPT) == ("[0, 0] False\n", "")


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "midy", "order", "--base", "10", "7"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")


def _module_level_imports(node):
    # import statements that run when the module loads: function bodies excluded
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def _absolute_names(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    return [node.module.split(".")[0]] if node.level == 0 else []


def test_runtime_imports_only_the_standard_library():
    modules = sorted((SRC / "midy").glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            for name in _absolute_names(node):
                assert name in sys.stdlib_module_names, (path.name, node.lineno, name)
        for node in _module_level_imports(tree):
            deferred = {"json", "inspect", "random", "dataclasses"} & set(_absolute_names(node))
            assert not deferred, (path.name, node.lineno, deferred)
