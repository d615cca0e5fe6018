"""Every public name is used by the program itself, not only by tests.

A name in a module's ``__all__`` must appear in the code of ``src/qlbm``
(as a name, an attribute or an import), so a mention in a docstring does
not count and ``__init__.py``'s re-exports are left out. The same holds for
each public method or property of a public class: its name must appear as
an attribute in that code. Dunders and dataclass-generated methods are
exempt. And each defaulted parameter of a public function must be passed,
by keyword or by position, in some call of that code to a function of its
name. Likewise each gate kind is emitted by some builder or lowering. And
the lowering is one module that the circuit IR, the simulator and the
solvers do not import.
"""

import ast
from pathlib import Path

import numpy as np

import qlbm
from qlbm.circuits import GATE_KINDS, build_advection_diffusion_circuit
from qlbm.lattice import D1Q2, D1Q3, D2Q5
from qlbm.lowering import lower_circuit

from prepared_state import developed_cavity_circuits

# public names kept although no program code calls them, each for a reason
_ALLOWED = {
    "lower_circuit": "the lowering reference the resource counts are checked against",
    "load_field_csv": "reads the field CSV files the CLI writes",
    "load_field_qlbf": "reads the field .qlbf files the CLI writes",
}


# public methods and properties kept although no program code calls them, as "Class.name": reason
_ALLOWED_METHODS = {}

# defaulted parameters no program call passes, kept as "function.parameter": reason
_ALLOWED_DEFAULTS = {
    "build_stream_function_circuit.boundary": "tests build the boundary-free circuit that the comparison reads off the with-boundary count",
    "build_vorticity_circuit.boundary": "tests build the boundary-free circuit that the comparison reads off the with-boundary count",
    "fidelity_sweep.state": "tests sweep a small state; the CLI sweeps the default reference state",
    "main.argv": "tests pass argument lists; the console script reads sys.argv",
    "scaling_sweep.durations": "the API's way to sweep with a gate-duration table other than the default",
}

# a method named like one of these types' own is called by that name on
# arrays and containers all over the program, so a bare attribute match
# shows nothing: such a method counts as used only where it is called on
# ``self`` or ``cls`` in its class, or on the class by name
_AMBIGUOUS = set().union(*(dir(t) for t in (np.ndarray, dict, list, set, tuple, str)))


def _program_trees():
    modules = [p for p in Path(qlbm.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    return {p.name: ast.parse(p.read_text()) for p in modules}


def _public_names(trees) -> dict[str, str]:
    """Each name in a module's ``__all__``, mapped to its module."""
    public = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public.update((name, module) for name in ast.literal_eval(node.value))
    return public


def test_every_public_name_is_used_by_the_program():
    trees = _program_trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    public = _public_names(trees)
    unused = {name: module for name, module in public.items() if name not in used and name not in _ALLOWED}
    assert unused == {}


def test_every_public_method_is_used_by_the_program():
    trees = _program_trees()
    public = _public_names(trees)
    classes = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    attrs = set()  # every attribute name the program reads
    typed = set()  # (class, attribute) read on self / cls in the class, or on the class by name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    typed.add((node.value.id, node.attr))
    for cls in classes:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("self", "cls"):
                typed.add((cls.name, node.attr))
    unused = set()
    for cls in classes:
        if cls.name not in public:
            continue
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            used = (cls.name, item.name) in typed if item.name in _AMBIGUOUS else item.name in attrs
            if not used and f"{cls.name}.{item.name}" not in _ALLOWED_METHODS:
                unused.add(f"{cls.name}.{item.name}")
    assert unused == set()


def _defaulted_parameters(fn: ast.FunctionDef) -> dict[str, int | None]:
    """Each defaulted parameter of ``fn``, mapped to its position (None when keyword-only)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params = {a.arg: i for i, a in enumerate(positional) if i >= first}
    params.update((a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)
    return params


def test_every_defaulted_parameter_is_passed_by_the_program():
    trees = _program_trees()
    public = _public_names(trees)
    passed = set()  # (called name, position or keyword) of every argument the program passes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, k.arg) for k in node.keywords if k.arg)
    unpassed = set()
    for tree in trees.values():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in public:
                for param, position in _defaulted_parameters(fn).items():
                    if (fn.name, param) not in passed and (fn.name, position) not in passed:
                        unpassed.add(f"{fn.name}.{param}")
    assert unpassed == set(_ALLOWED_DEFAULTS)


def test_every_gate_kind_has_a_producer():
    # a kind that no builder and no lowering emits is a branch of the
    # simulator, the lowering and the dense reference that nothing runs
    circuits = list(developed_cavity_circuits(2).values())
    for scheme in (D1Q2, D1Q3, D2Q5):
        field = np.linspace(0.1, 1.0, 4 ** scheme.dimension).reshape((4,) * scheme.dimension)
        circuits.append(build_advection_diffusion_circuit(scheme, 4, field, (0.1,) * scheme.dimension))
    emitted = {op.kind for circ in circuits for c in (circ, lower_circuit(circ)) for op in c.gates}
    assert emitted == GATE_KINDS


def _imported_modules(tree) -> set[str]:
    """Each module a tree imports from, relative ones as ``qlbm.<name>``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:  # from . import x
            found.update(f"qlbm.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(f"qlbm.{node.module}" if node.level else node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def _top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names - {"__all__"}


def test_the_lowering_lives_in_its_own_module_that_the_ir_and_the_simulator_do_not_import():
    trees = _program_trees()
    lowering = _top_level_names(trees["lowering.py"])
    assert {"SlotProgram", "slot_programs", "lower_op", "iter_lowered", "lower_circuit", "unit_amplitudes"} <= lowering
    assert lowering & _top_level_names(trees["circuits.py"]) == set()
    for module in ("circuits.py", "statevector.py", "solver.py"):
        assert "qlbm.lowering" not in _imported_modules(trees[module]), module
