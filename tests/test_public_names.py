"""The library defines no public name that only the tests use."""

import ast
from pathlib import Path

import unitals

# Public names that no library code references yet, each with its reason.
ALLOWED = {
    # ROADMAP item 4 wires it into `reconstruct --verify`
    "extend_graph_isomorphism",
}


def _defined_and_used():
    """Public module-level functions and classes of each library module
    (errors included, __init__ excluded), and every Name or Attribute
    those modules reference."""
    defined, used = {}, set()
    for path in sorted(Path(unitals.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_name_is_referenced_by_library_code():
    defined, used = _defined_and_used()
    unused = {name for name in defined if name not in used}
    assert sorted(f"{defined[n]}.{n}" for n in unused - ALLOWED) == []
    assert unused >= ALLOWED, "an allowed name is now used; drop it from ALLOWED"
