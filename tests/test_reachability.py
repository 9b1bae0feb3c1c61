"""Every public function and class in the package has a caller outside tests.

A name counts as used when another top-level statement of a package module,
or a perfbench module, refers to it as a name or an attribute. Strings and
docstrings do not count, and neither do the re-exports in ``__init__.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adaptivebo"

# Public names kept without a caller in the package, with the reason.
ALLOWED = {
    "regret_curve": "criterion 9's cumulative-regret-rate metric",
}


def _referenced(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_referenced():
    statements = [
        statement
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for statement in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
    ]
    used_by_bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used_by_bench |= _referenced(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    used_by = {id(s): _referenced(s) for s in statements}

    unused = []
    for definition in statements:
        if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = definition.name
        if name.startswith("_") or name in ALLOWED or name in used_by_bench:
            continue
        if not any(name in used_by[id(s)] for s in statements if s is not definition):
            unused.append(name)
    assert unused == [], f"public names no package or perfbench code refers to: {unused}"
