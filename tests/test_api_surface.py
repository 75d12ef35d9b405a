"""Every public name the package exports has a caller outside the tests.

A name counts as called when code under ``src/`` reads it outside its own
top-level definition and outside ``__init__.py``, or when code under
``bench/`` or ``tools/`` reads it (there also as a string, as the benchmark's
trace names the functions it wraps). A function only the tests call belongs in
``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "switchfolio"


def exported() -> list[str]:
    """The public names ``switchfolio/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("_")
    ]


def _defined(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def read_names(path: Path, strings: bool = False) -> set[str]:
    """The names the module at path reads: loaded names and attributes, outside the top-level
    statement that defines them; with strings, its string constants too."""
    names = set()
    for statement in ast.parse(path.read_text()).body:
        used = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        names |= used - _defined(statement)
    return names


def callers() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            names |= read_names(path)
    for folder in ("bench", "tools"):
        for path in (ROOT / folder).glob("*.py"):
            names |= read_names(path, strings=True)
    return names


def test_every_export_has_a_caller():
    called = callers()
    assert [name for name in exported() if name not in called] == []


def test_reader_skips_a_definition_and_its_own_body(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def lone(n):\n    return lone(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "LIMIT = 3\n\n"
        "def caller():\n    return used() + LIMIT\n"
    )
    assert {"lone", "LIMIT", "used"} & read_names(module) == {"LIMIT", "used"}
    module.write_text("TABLE = [('m', 'named_in_a_string')]\n")
    assert "named_in_a_string" not in read_names(module)
    assert "named_in_a_string" in read_names(module, strings=True)


def test_readme_python_api_block_runs(capsys):
    # The README's example calls the package's public names, so a rename cannot leave it stale.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 4
