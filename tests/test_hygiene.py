"""Repository hygiene: nothing that .gitignore excludes is tracked, and
every private function of the package has a caller in the package."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_every_private_function_has_a_caller_in_the_package():
    # a private helper that only tests call is code the package carries for
    # nothing; a test reaches the package through what the package uses
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "oucap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


def test_every_defaulted_private_parameter_is_passed_in_the_package():
    # a default that only tests override is a test-only knob: each defaulted
    # parameter of a private function is passed, by position or by keyword,
    # by some call in the package
    defaults, passed = {}, {}
    for path in sorted((ROOT / "src" / "oucap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    args = node.args.posonlyargs + node.args.args
                    positional = args[len(args) - len(node.args.defaults):]
                    keyword = [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                               if d is not None]
                    defaults[name] = [(args.index(a), a.arg) for a in positional] + [
                        (None, a.arg) for a in keyword]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    knobs = [f"{name}({arg})" for name, params in defaults.items() for index, arg in params
             if not any((index is not None and index < count) or arg in keywords
                        for count, keywords in passed.get(name, []))]
    assert defaults
    assert knobs == []
