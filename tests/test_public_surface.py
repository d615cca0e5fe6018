"""Every public name is used by the program itself, not only by tests.

A name in a module's ``__all__`` must appear in the code of ``src/qlbm``
(as a name, an attribute or an import), so a mention in a docstring does
not count and ``__init__.py``'s re-exports are left out.
"""

import ast
from pathlib import Path

import qlbm

# public names kept although no program code calls them, each for a reason
_ALLOWED = {
    "lower_circuit": "the lowering reference the resource counts are checked against",
    "circuit_unitary": "the dense reference the simulator is checked against",
    "postselect_many": "the selection reference the in-loop selection is checked against",
    "load_field_csv": "reads the field CSV files the CLI writes",
    "load_field_qlbf": "reads the field .qlbf files the CLI writes",
}


def test_every_public_name_is_used_by_the_program():
    modules = [p for p in Path(qlbm.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    trees = {p.name: ast.parse(p.read_text()) for p in modules}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    public = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public.update((name, module) for name in ast.literal_eval(node.value))
    unused = {name: module for name, module in public.items() if name not in used and name not in _ALLOWED}
    assert unused == {}
