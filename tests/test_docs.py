"""The README's test, module and BENCH file citations resolve, its layout
table names every module, the docstrings' cross-references resolve, the
package version is the project's, and the sources keep 79 columns."""

import ast
import importlib
import re
from pathlib import Path

import strongcouple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "strongcouple"
# the plotting scripts that `run` writes; tests/golden.json pins their
# bytes, so their lines keep their length
LONG_CONSTANTS = {"cli.py": ("_PLOT_THERMO", "_PLOT_INFO")}


def _collected(path: Path, names: list) -> bool:
    """Whether ``names``, a class then a method, or a function, or a
    class alone, name tests that pytest collects from ``path``: a
    ``test*`` function, or a ``Test*`` class holding one."""
    scope = ast.parse(path.read_text()).body
    for i, name in enumerate(names):
        node = next((n for n in scope if getattr(n, "name", None) == name),
                    None)
        if isinstance(node, ast.ClassDef) and name.startswith("Test"):
            scope = node.body
        elif (isinstance(node, ast.FunctionDef) and name.startswith("test")
              and i == len(names) - 1):
            return True
        else:
            return False
    return any(isinstance(n, ast.FunctionDef) and n.name.startswith("test")
               for n in scope)


def test_readme_test_citations_resolve():
    citations = re.findall(r"tests/(\w+\.py)::([\w:]+)",
                           (ROOT / "README.md").read_text())
    assert citations
    missing = [f"tests/{name}::{test}" for name, test in citations
               if not _collected(ROOT / "tests" / name, test.split("::"))]
    assert missing == []


def test_readme_module_citations_resolve():
    # `module.name` or `strongcouple.module.name`, for a module of the
    # package, names an attribute of that module
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    citations = [(module, name) for module, name in re.findall(
        r"`(?:strongcouple\.)?(\w+)\.(\w+)", (ROOT / "README.md").read_text())
        if module in modules]
    assert citations
    missing = [f"{module}.{name}" for module, name in citations
               if not hasattr(importlib.import_module(
                   f"strongcouple.{module}"), name)]
    assert missing == []


def _attribute(scope, names):
    """The attribute chain ``names`` of ``scope``, or ``_MISSING``."""
    for name in names:
        scope = getattr(scope, name, _MISSING)
    return scope


_MISSING = object()


def test_docstring_cross_references_resolve():
    # a :func:, :class:, :data:, :mod:, :meth: or :attr: reference in a
    # module of the package names an attribute of that module or of the
    # package, or is a dotted strongcouple. path; numpy's are not checked
    modules = {path.stem: importlib.import_module(
        "strongcouple" if path.stem == "__init__"
        else f"strongcouple.{path.stem}") for path in PACKAGE.glob("*.py")}
    missing, count = [], 0
    for stem, module in sorted(modules.items()):
        text = (PACKAGE / f"{stem}.py").read_text()
        for reference in re.findall(
                r":(?:func|class|data|mod|meth|attr):`~?([\w.]+)`", text):
            names = reference.split(".")
            if names[0] in ("numpy", "np"):
                continue
            count += 1
            if names[0] == "strongcouple":
                scopes, names = (strongcouple,), names[1:]
            else:
                scopes = (module, strongcouple)
            if all(_attribute(scope, names) is _MISSING for scope in scopes):
                missing.append(f"{stem}.py: {reference}")
    assert count
    assert missing == []


def test_version_matches_pyproject():
    # read with a regular expression: tomllib is new in Python 3.11
    (version,) = re.findall(r'^version = "([^"]+)"$',
                            (ROOT / "pyproject.toml").read_text(),
                            flags=re.MULTILINE)
    assert strongcouple.__version__ == version


def test_cited_bench_files_exist():
    cited = {name for doc in ("README.md", "ROADMAP.md")
             for name in re.findall(r"BENCH_\w+\.json",
                                    (ROOT / doc).read_text())}
    assert cited
    missing = [name for name in sorted(cited)
               if not any((where / name).is_file()
                          for where in (ROOT, ROOT / "benchmarks"))]
    assert missing == []


def test_readme_layout_names_every_module():
    # one row per module of the package, in the table under "## Layout"
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n")[1]
    layout = layout.split("\n## ")[0]
    named = re.findall(r"^\| `(\w+)` \|", layout, flags=re.MULTILINE)
    modules = [path.stem for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_source_lines_fit_79_columns():
    long_lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        exempt = set()
        for node in ast.parse(text).body:
            if (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None)
                    in LONG_CONSTANTS.get(path.name, ())):
                exempt.update(range(node.lineno, node.end_lineno + 1))
        long_lines += [f"{path.name}:{number}"
                       for number, line in enumerate(text.splitlines(), 1)
                       if len(line) > 79 and number not in exempt]
    assert long_lines == []
