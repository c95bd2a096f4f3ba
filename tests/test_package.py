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
OrthogonalPostSelectionError ProjectorWeakValue WeakValueReport WeightedProjectorSum
arrival_time_operator occupation_operator projector_weak_decomposition weak_value
EmptyPostSelectionError GridError PointerMoments PointerProfile PointerSpec SweepRow
analytic_moments build_pointer_profile pointer_moments pointer_terms
weak_limit_sweep
CONSTRAINT_NAMES CounterfactualAssignment CounterfactualReport HardyConfig
HardyResult PhotonicWeakReport SwapResult analyzer_post_selection bell_pair
counterfactual_check entangled_target_state run_entanglement_swap
run_hardy_gedanken run_photonic_weak
""".split()


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 51
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
