"""Every public function and method in ``src/nars`` has a caller outside the tests.

A module-level function counts as called when its name is used (as a name
or an attribute) anywhere in ``src/nars`` or ``perfbench/*.py``, or appears
there as a string, as the names in perfbench's tracer table do. A public
method of a module-level class (properties included) counts as called when
its name is used there as an attribute or a string: a bare name of the same
spelling is some other binding. The allowlist holds the definitions whose
only callers are outside both trees.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "main": "the entry point: the `nars` console script of pyproject.toml calls it",
    "read_field_dump": "the reader of `nars kzk`'s field.nfd artifact, which the tests verify it with",
    "read_policy_vector": "the reader of `nars train`'s policy.npc artifact, which the tests verify it with",
    "run_q_learning": "acceptance criterion 9's tabular Q-learner on the routing toy",
    "QTable.greedy": "acceptance criterion 9's route readout of the learned Q table",
}


def _public_definitions() -> dict[str, tuple[str, bool]]:
    """Public function name, or ``Class.method``, -> (defining module, whether it is a method)."""
    found = {}
    for path in sorted((ROOT / "src" / "nars").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found[node.name] = (path.stem, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = (path.stem, True)
    return found


def _references() -> tuple[set[str], set[str]]:
    """The bare names, and the attributes and strings, used in ``src/nars`` and ``perfbench/*.py``."""
    paths = [*(ROOT / "src" / "nars").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names, attributes


def test_every_public_function_has_a_caller():
    names, attributes = _references()
    uncalled = []
    for qualified, (module, is_method) in _public_definitions().items():
        name = qualified.rpartition(".")[2]
        used = name in attributes or (not is_method and name in names)
        if not used and qualified not in ALLOWED:
            uncalled.append(f"{module}.{qualified}")
    assert not uncalled, f"public definitions that nothing in src/ or perfbench/ calls: {', '.join(sorted(uncalled))}"


def test_every_allowlisted_function_exists():
    assert set(ALLOWED) <= set(_public_definitions()), sorted(set(ALLOWED) - set(_public_definitions()))
