"""The package: its public names, and sources that parse on the oldest
supported Python and import only the standard library."""
from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path
from typing import Iterable

import hardyweak

PUBLIC_NAMES = """
__version__
GAMMA BasisLabel StateVector Structure StructureError Subnormalized Subsystem
inner tensor
FockModeState UnsupportedOccupancyError
apply_annihilation apply_first_beamsplitter apply_second_beamsplitter
hom_combine interferometer_structure photon_pair_structure
OrthogonalPostSelectionError ProjectorWeakValue WeakValueReport
EmptyPostSelectionError GridError PointerMoments PointerProfile PointerSpec SweepRow
analytic_moments build_pointer_profile pointer_moments pointer_terms
weak_limit_sweep
CONSTRAINT_NAMES CounterfactualAssignment CounterfactualReport HardyConfig
HardyResult PhotonicWeakReport SwapResult analyzer_post_selection bell_pair
counterfactual_check entangled_target_state run_entanglement_swap
run_hardy_gedanken run_photonic_weak
""".split()


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 46
    assert len(hardyweak.__all__) == len(set(hardyweak.__all__))
    assert set(hardyweak.__all__) == set(PUBLIC_NAMES)
    for name in hardyweak.__all__:
        value = getattr(hardyweak, name)
        assert not isinstance(value, types.ModuleType), name


def test_sources_parse_on_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10.
    for path in sorted(Path(hardyweak.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_sources_import_only_the_standard_library():
    # pyproject.toml declares dependencies = [], for every module.
    for path in sorted(Path(hardyweak.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_every_source_definition_is_named_by_the_program():
    # A top-level function, class or method of a module that no other
    # module line and no benchmark line names is reachable only from the
    # tests: an oracle, which belongs in tests/.  Dunder methods are named
    # by the language; the package's exports are not a use.
    root = Path(__file__).resolve().parents[1]
    modules = sorted(p for p in (root / "src" / "hardyweak").glob("*.py")
                     if p.name != "__init__.py")
    bench = sorted((root / "bench").glob("*.py"))
    assert modules and bench
    named = set()
    definitions = []
    for path in [*modules, *bench]:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
        if path in modules:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((path.name, node))
                    if isinstance(node, ast.ClassDef):
                        definitions += [(path.name, item) for item in node.body if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unnamed = [f"{module}: {node.name}" for module, node in definitions
               if node.name not in named and not node.name.startswith("__")]
    assert unnamed == []


def _unused_imports(tree: ast.Module, exported: Iterable[str] = ()) -> list[str]:
    """The names a module imports and never loads.  A name ``exported``
    (the module's ``__all__``) counts as used; a string does not."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b" bind c or b.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py builds __all__ from what it imports, so read it at run time.
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "hardyweak").glob("*.py"))
    paths = [*package, *sorted((root / "tests").glob("*.py"))]
    assert len(package) == 7 and len(paths) > len(package)
    unused = {}
    for path in paths:
        exported = ()
        if path in package:
            name = "hardyweak" if path.stem == "__init__" else f"hardyweak.{path.stem}"
            exported = getattr(importlib.import_module(name), "__all__", ())
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)), exported)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_the_unused_import_scan_counts_exports_and_not_strings():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\nimport a.b\nfrom c import d as e, f, g\n"
        "print(a, g.h, 'os', 'e')\n"
    )
    assert _unused_imports(tree, ["f"]) == ["os (line 2)", "e (line 4)"]
