"""Checks on the package as a whole: the README's library sketch and CLI
examples run, and the modules keep to one owner per name (no private imports
across modules, every exported name defined where it is exported)."""

import ast
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import ehjam

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ehjam").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (sketch,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(sketch, "README.md", "exec"), namespace)
    assert namespace["ok"] is True


def test_readme_cli_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI\n\n```\n(.*?)^```", readme, re.M | re.S)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "ehjam" for argv in commands)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "EHJAM_OUTPUT_DIR": str(tmp_path)}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_no_module_imports_a_private_name_of_another():
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "ehjam":
                continue
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"{path.name} imports {private} from {node.module}"


def test_exported_names_are_defined_once():
    for path in MODULES:
        defined, exported = set(), None
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names and path.name != "__init__.py":
                    exported = ast.literal_eval(node.value)
                defined |= names
        missing = set(exported or ()) - defined  # __init__ joins the others' lists
        assert not missing, f"{path.name} exports undefined {sorted(missing)}"
    assert len(ehjam.__all__) == len(set(ehjam.__all__))
    assert all(hasattr(ehjam, name) for name in ehjam.__all__)
