"""Every function the package exports has a caller outside its own module.

A function in ``noise_forge.__all__`` must be called from another module of
the package (``__init__.py`` does not count) or from the benchmark's
workloads, which are built only from the public API. A function whose only
callers are its own tests belongs in its module, not in the package's
public surface.
"""

import ast
import inspect
from pathlib import Path

import noise_forge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "noise_forge"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def called_names(path: Path) -> set[str]:
    """Names called in a file, as ``name(...)`` or ``something.name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_exported_function_has_a_caller_outside_its_module():
    calls = {path: called_names(path) for path in [*PACKAGE_DIR.glob("*.py"), WORKLOADS]}
    functions = {
        name: obj
        for name in noise_forge.__all__
        if inspect.isfunction(obj := getattr(noise_forge, name))
    }
    assert functions
    uncalled = []
    for name, func in functions.items():
        home = PACKAGE_DIR / f"{func.__module__.rsplit('.', 1)[-1]}.py"
        callers = [
            path
            for path, names in calls.items()
            if path not in (home, PACKAGE_DIR / "__init__.py") and name in names
        ]
        if not callers:
            uncalled.append(f"{func.__module__}.{name}")
    assert not uncalled, f"exported but called only from their own module or tests: {uncalled}"
