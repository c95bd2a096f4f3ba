"""The package: its public names, and sources that parse on the oldest
supported Python and import only the standard library."""
from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

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
