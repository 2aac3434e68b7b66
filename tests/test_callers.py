"""Every public module-level function in ``src/nars`` has a caller outside the tests.

A function counts as called when its name is used (as a name or an
attribute) anywhere in ``src/nars`` or ``perfbench/*.py``, or appears there
as a string, as the names in perfbench's tracer table do. The allowlist
holds the functions whose only callers are outside both trees.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "main": "the entry point: the `nars` console script of pyproject.toml calls it",
    "read_field_dump": "the reader of `nars kzk`'s field.nfd artifact, which the tests verify it with",
    "read_policy_vector": "the reader of `nars train`'s policy.npc artifact, which the tests verify it with",
    "run_q_learning": "acceptance criterion 9's tabular Q-learner on the routing toy",
}


def _public_functions() -> dict[str, str]:
    """Public module-level function name -> the module that defines it."""
    found = {}
    for path in sorted((ROOT / "src" / "nars").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def _references() -> set[str]:
    """Every name, attribute and string used in ``src/nars`` and ``perfbench/*.py``."""
    paths = [*(ROOT / "src" / "nars").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_public_function_has_a_caller():
    used = _references()
    uncalled = sorted(
        f"{module}.{name}"
        for name, module in _public_functions().items()
        if name not in used and name not in ALLOWED
    )
    assert not uncalled, f"public functions that nothing in src/ or perfbench/ calls: {', '.join(uncalled)}"


def test_every_allowlisted_function_exists():
    assert set(ALLOWED) <= set(_public_functions()), sorted(set(ALLOWED) - set(_public_functions()))
