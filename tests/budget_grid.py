"""The budget-sized grid, and the grid check run on it for a report's specs.

A run without ``--grid-points`` prints the closed form and samples no
grid.  The tests keep the check (``pointer._GridCheck``) at full coverage
on the grid such a run once sized: padded by ``DEFAULT_PADDING`` sigma,
with the fewest points, at least ``MIN_N_POINTS``, whose aliasing is no
larger than its truncation (``grid_error_budget``).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace

from hardyweak import pointer
from hardyweak.cli import DEFAULT_SWEEP_MULTIPLES, RunConfig
from hardyweak.pointer import (
    MAX_N_POINTS,
    MIN_N_POINTS,
    GridError,
    PointerSpec,
    grid_error_budget,
    pointer_moments,
    pointer_profiles,
)
from hardyweak.scenarios import analyzer_post_selection, run_entanglement_swap

MEASURED_SETS = (("2",), ("4",), ("2", "4"))
# The refusals of a budget grid that only say the pointer is too narrow
# for MAX_N_POINTS points; a spec without a grid has no such limit.
RESOLUTION_REFUSALS = ("grid error budget needs more than", "grid step ")


def budget_spec(gamma: float, epsilon: float, sigma: float) -> PointerSpec:
    """``PointerSpec.default`` on its budget-sized grid, by a plain bisection."""
    finest = PointerSpec.default(gamma, epsilon, sigma, MAX_N_POINTS)

    def within(n: int) -> bool:
        try:
            aliasing, truncation = grid_error_budget(replace(finest, n_points=n))
        except GridError:  # a step that aliases past ALIASING_TOLERANCE
            return False
        return aliasing <= truncation

    sizes = range(MIN_N_POINTS, MAX_N_POINTS + 1)
    index = bisect_left(sizes, True, key=within)
    if index == len(sizes):
        aliasing, truncation = grid_error_budget(finest)
        raise GridError(
            f"grid error budget needs more than {MAX_N_POINTS} points for "
            f"sigma {sigma:g}: at {MAX_N_POINTS} the aliasing {aliasing:.3g} "
            f"exceeds the truncation {truncation:.3g} of the padding"
        )
    return replace(finest, n_points=sizes[index])


def _budget_spec_or_none(gamma: float, epsilon: float, sigma: float) -> PointerSpec | None:
    """``budget_spec``, or None where no grid of at most MAX_N_POINTS
    resolves a pointer that the spec without a grid accepts."""
    try:
        return budget_spec(gamma, epsilon, sigma)
    except GridError as exc:
        PointerSpec.default(gamma, epsilon, sigma)  # accepted without a grid
        assert str(exc).startswith(RESOLUTION_REFUSALS), exc
        return None


def check_on_budget_grids(config: RunConfig) -> int:
    """Run the grid check of every spec a ``pointer`` or ``pointer-sweep``
    report reads on its budget-sized grid: ``_GridCheck(spec, 2)`` and the
    tables about each mean for a pointer, ``_GridCheck(spec, 1)`` per sweep
    width.  Each check must pass, and the checked moments must be the
    printed ones bit for bit; a width no budget grid resolves is skipped.
    Returns the number of specs checked."""
    p = config.parameters
    if config.scenario == "pointer":
        spec = _budget_spec_or_none(p.gamma, p.epsilon, p.sigma)
        if spec is None:
            return 0
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(p.phi)
        gridless = PointerSpec.default(p.gamma, p.epsilon, p.sigma)
        for checked, printed in zip(pointer_profiles(pre, post, MEASURED_SETS, spec),
                                    pointer_profiles(pre, post, MEASURED_SETS, gridless)):
            assert pointer_moments(checked) == pointer_moments(printed)
        return 1
    assert config.scenario == "pointer-sweep"
    sigmas = config.sweep or tuple(k * p.epsilon for k in DEFAULT_SWEEP_MULTIPLES)
    specs = [_budget_spec_or_none(p.gamma, p.epsilon, sigma) for sigma in sigmas]
    for spec in filter(None, specs):
        pointer._GridCheck(spec, 1)
    return sum(spec is not None for spec in specs)
