"""The library defines no public name that only the tests use."""

import ast
from pathlib import Path

import unitals

# Public names that no library code references yet, each with its reason.
ALLOWED = {
    # ROADMAP item 4 wires it into `reconstruct --verify`
    "reconstruct.extend_graph_isomorphism",
}


def _defined_and_used():
    """Public module-level functions and classes of each library module
    (errors included, __init__ excluded) and the public methods of those
    classes, each as its qualified name -> its bare name, and every Name
    or Attribute those modules reference."""
    defined, used = {}, set()
    for path in sorted(Path(unitals.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")):
                            defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_name_is_referenced_by_library_code():
    defined, used = _defined_and_used()
    unused = {qualified for qualified, name in defined.items() if name not in used}
    assert sorted(unused - ALLOWED) == []
    assert unused >= ALLOWED, "an allowed name is now used; drop it from ALLOWED"


def test_public_methods_are_scanned():
    defined, _ = _defined_and_used()
    assert defined["confluence.ConfluenceGraph.edges"] == "edges"
    assert defined["incidence.IncidenceStructure.block_rows"] == "block_rows"
