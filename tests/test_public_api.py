"""The package's public surface holds nothing that only its tests use.

A function in ``noise_forge.__all__`` must be called from another module of
the package (``__init__.py`` does not count) or from the benchmark's
workloads, which are built only from the public API. A function whose only
callers are its own tests belongs in its module, not in the package's
public surface. Likewise, a constructor argument with a default in an
exported dataclass must be set somewhere in that code; one that no caller
sets is a one-value knob, and belongs in the code as a constant.

One module owns the results directory: ``report`` writes its files and reads
them back. A run hands everything it produced back on its RunRecord, so the
run functions take no writer and no output path.

Each input rule of the update (the rows a batch picks, the minibatch size and
a finite alpha) is checked by one function with one message.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import noise_forge
from noise_forge import harness

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


class ConstructorCalls(ast.NodeVisitor):
    """Per class name, the keywords its constructor calls pass and the most
    positional arguments one passes; plus every ``replace`` keyword. A
    ``cls(...)`` call inside a class body counts as a call of that class."""

    def __init__(self):
        self.keywords: dict[str, set[str]] = {}
        self.positional: dict[str, float] = {}
        self.replaced: set[str] = set()
        self._classes: list[str] = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self._classes:
            name = self._classes[-1]
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        if name == "replace":
            self.replaced |= keywords
        elif name is not None:
            self.keywords.setdefault(name, set()).update(keywords)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = float("inf") if starred else len(node.args)
            self.positional[name] = max(self.positional.get(name, 0), count)
        self.generic_visit(node)


def test_every_defaulted_dataclass_argument_is_set_by_some_caller():
    calls = ConstructorCalls()
    for path in [*PACKAGE_DIR.glob("*.py"), WORKLOADS]:
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
    classes = [
        obj
        for name in noise_forge.__all__
        if dataclasses.is_dataclass(obj := getattr(noise_forge, name)) and inspect.isclass(obj)
    ]
    assert classes
    unset = []
    for cls in classes:
        params = [f for f in dataclasses.fields(cls) if f.init]
        for index, f in enumerate(params):
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                continue
            if not (
                f.name in calls.keywords.get(cls.__name__, ())
                or calls.positional.get(cls.__name__, 0) > index
                or f.name in calls.replaced
            ):
                unset.append(f"{cls.__name__}.{f.name}")
    assert not unset, f"constructor arguments no package module or workload sets: {unset}"


WRITER_CALLS = {"write_text", "write_bytes", "writerow", "writerows", "save", "savez", "savetxt", "tofile", "dump"}


def file_writes(tree: ast.AST) -> list[ast.Call]:
    """Calls that write a file: ``open`` with a mode other than reading, or a
    writer method such as ``write_text``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes):
                found.append(node)
        elif name in WRITER_CALLS:
            found.append(node)
    return found


def test_only_report_writes_the_results_directory():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "report.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            imported = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "csv" in imported or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                offenders.append(f"{path.name}:{node.lineno}: imports csv")
        for call in file_writes(tree):
            # the command line writes the config it resolved, before any run
            if path.name == "cli.py" and "resolved_config.json" in ast.unparse(call.func):
                continue
            offenders.append(f"{path.name}:{call.lineno}: {ast.unparse(call.func)}")
    assert not offenders, f"files written outside report.write_results: {offenders}"


def test_a_run_takes_only_its_config_and_seed():
    assert list(inspect.signature(harness.train_run).parameters) == ["cfg", "seed"]


# Each input rule of alpha * grad(B) + (1 - alpha) * grad(B'): its message,
# and the one function that raises it.
INPUT_RULES = {
    "row indices must be a non-empty 1-D array of integers": ("dataio.py", "check_rows"),
    "batch_size must lie in [1, n_samples]": ("optim.py", "check_batch_size"),
    "alpha must be finite": ("optim.py", "check_alpha"),
    "must be an integer": ("rng.py", "check_count"),
    "learning_rate must be finite and positive": ("optim.py", "check_learning_rate"),
}


def raise_sites(message: str) -> list[tuple[str, str | None]]:
    """(file, innermost enclosing function) of every ``raise`` in the package
    whose source holds ``message``."""
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and message in ast.unparse(node):
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, max(around, key=lambda f: f.lineno).name if around else None))
    return sites


@pytest.mark.parametrize("message", INPUT_RULES)
def test_each_input_rule_is_raised_from_one_place(message):
    assert raise_sites(message) == [INPUT_RULES[message]]
