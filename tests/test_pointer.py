import json
import math
import random
import re
import sys
from dataclasses import fields, replace
from itertools import combinations_with_replacement, product
from operator import mul, sub

import budget_grid
import fsum_table
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budget_grid import budget_spec
from byte_corpus import CORPUS, ROOT
from conftest import analyzer_literal, entangled_target_literal, state_of, photon_structure
from hardyweak import pointer, scenarios, weakvalues
from hardyweak.cli import (
    DEFAULT_SWEEP_MULTIPLES,
    POINTER_SCENARIOS,
    HelpRequested,
    assemble_config,
    run_cli,
)
from hardyweak.scenarios import analyzer_post_selection, run_entanglement_swap
from hardyweak.pointer import (
    EmptyPostSelectionError,
    GridError,
    MAX_N_POINTS,
    MIN_N_POINTS,
    PointerSpec,
    analytic_moments,
    build_pointer_profile,
    grid_error_budget,
    pointer_moments,
    pointer_terms,
    weak_limit_sweep,
    weak_prediction,
)
from hardyweak.optics import apply_level_map
from hardyweak.states import GAMMA, PRUNE_THRESHOLD, StateVector, Structure, StructureError
from hardyweak.weakvalues import OrthogonalPostSelectionError
from oracle import WeightedProjectorSum, arrival_time_operator, weak_value


def _trapezoid(y: list[float], t: list[float]) -> float:
    """Reference trapezoid rule, one exactly summed term per interval."""
    return math.fsum(
        (t1 - t0) * (y0 + y1) for t0, t1, y0, y1 in zip(t, t[1:], y, y[1:])
    ) / 2.0


def _dense_trapezoid_moments(terms, spec: PointerSpec):
    """Norm, means and variances of |sum c f(t_2) f(t_4)|^2 (or of the
    one-axis |sum c f|^2) by numpy's trapezoid rule on the full product grid."""
    t = np.linspace(spec.t_min, spec.t_max, spec.n_points)
    axes = len(terms[0][0])
    mesh = np.meshgrid(*([t] * axes), indexing="ij")
    amplitude = sum(
        c * np.prod([(2.0 * np.pi * spec.sigma**2) ** -0.25
                     * np.exp(-((x - d) ** 2) / (4.0 * spec.sigma**2))
                     for x, d in zip(mesh, delays)], axis=0)
        for delays, c in terms
    )
    density = np.abs(amplitude) ** 2

    def integral(y):
        for _ in range(axes):
            y = np.trapezoid(y, t, axis=-1)
        return float(y)

    norm = integral(density)
    means = [integral(x * density) / norm for x in mesh]
    variances = [integral((x - m) ** 2 * density) / norm for x, m in zip(mesh, means)]
    return norm, means, variances


def joint_mean_formula(gamma: float, epsilon: float, sigma: float) -> float:
    """Frozen closed form for the marginal mean of the joint pointer.

    Derived by hand for the three-branch pre-selection against the
    dark-port analyzer: with u the pointer overlap across the two delays,
    <t> = gamma + (epsilon - gamma) (1 - u + u^2) / (3 - 4u + 2u^2).
    """
    u = math.exp(-((epsilon - gamma) ** 2) / (8.0 * sigma * sigma))
    return gamma + (epsilon - gamma) * (1 - u + u * u) / (3 - 4 * u + 2 * u * u)


def _pre_post():
    return entangled_target_literal(), analyzer_literal()


def _draw_pointer(rng: random.Random) -> tuple[float, float, float, float]:
    """gamma, epsilon, sigma and phi where the benchmark draws them: the
    analyzer keeps |cos phi (cos phi + 2 sin phi)| >= 0.25, and
    sigma >= |epsilon - gamma| / 4."""
    gamma, epsilon = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 3.0)
    while abs(epsilon - gamma) < 0.25:
        epsilon = rng.uniform(0.0, 3.0)
    sigma = abs(epsilon - gamma) * 2.0 ** rng.uniform(-2.0, 4.0)
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
    while abs(math.cos(phi) * (math.cos(phi) + 2.0 * math.sin(phi))) < 0.25:
        phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
    return gamma, epsilon, sigma, phi


class TestProfileConstruction:
    def test_single_photon_terms_cancel_on_h(self):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 1.0, 1024)
        terms = pointer_terms(pre, post, ("2",), spec)
        by_delay = {d[0]: c for d, c in terms}
        assert abs(by_delay.get(0.0, 0j)) < 1e-15
        assert abs(by_delay[1.0] - (-1.0 / (2.0 * math.sqrt(3.0)))) < 1e-12

    def test_profile_norm_matches_closed_form(self):
        # The exactly summed norm on the spec's grid (``fsum_table``): per
        # pair of terms, the product over axes of the grid's int f_a f_b.
        pre, post = _pre_post()
        for measured, n in ((("2",), 4096), (("2", "4"), 1024)):
            spec = PointerSpec.default(0.0, 1.0, 1.0, n)
            profile = build_pointer_profile(pre, post, measured, spec)
            f = fsum_table.samples(spec)
            overlap = {(a, b): fsum_table.grid_integrals(spec, list(map(mul, f[a], f[b])))[0]
                       for a, b in product(f, repeat=2)}
            grid_norm = math.fsum(
                (ci.conjugate() * cj).real * math.prod(map(overlap.get, zip(di, dj)))
                for (di, ci), (dj, cj) in product(profile.terms, repeat=2))
            norm = analytic_moments(profile.terms, spec).success_probability
            assert abs(grid_norm - norm) < 1e-9

    def test_success_probability_reaches_post_selection_rate(self):
        # At r = 1/32 the disturbance correction is quadratically small.
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 32.0, 1024)
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        moments = pointer_moments(profile)
        assert abs(moments.success_probability - 1.0 / 12.0) < 1e-4

    def test_distinct_basis_states_give_plain_gaussian(self):
        s = photon_structure()
        pre = state_of(s, {("V", "H"): 1.0})
        post = state_of(s, {("V", "H"): 1.0})
        spec = PointerSpec.default(0.25, 1.5, 0.8, 1024)
        profile = build_pointer_profile(pre, post, ("2",), spec)
        moments = pointer_moments(profile)
        assert abs(moments.mean[0] - 1.5) < 1e-9
        assert abs(moments.variance[0] - 0.8**2) < 1e-8

    def test_orthogonal_selection_has_no_moments(self):
        s = photon_structure()
        pre = state_of(s, {("H", "H"): 1.0})
        post = state_of(s, {("V", "V"): 1.0})
        spec = PointerSpec.default(0.0, 1.0, 1.0, 1024)
        profile = build_pointer_profile(pre, post, ("2",), spec)
        assert profile.terms == ()  # no amplitude survives, so the norm is 0
        with pytest.raises(EmptyPostSelectionError):
            pointer_moments(profile)
        with pytest.raises(EmptyPostSelectionError):
            analytic_moments(profile.terms, spec)

    @pytest.mark.parametrize("n_points", [64.5, 64.0, "64", True])
    def test_n_points_must_be_an_integer(self, n_points):
        # Refused where the spec is made, not deep in the grid's sampling.
        with pytest.raises(GridError, match=f"^n_points must be an integer, got "
                                            f"{re.escape(repr(n_points))}$"):
            PointerSpec.default(0.0, 1.0, 8.0, n_points)

    def test_grid_validation(self):
        with pytest.raises(GridError, match="^sigma must be positive$"):
            PointerSpec(0.0, 1.0, -1.0, 1024)
        with pytest.raises(GridError, match="at least"):
            PointerSpec(0.0, 1.0, 1.0, 32)
        with pytest.raises(GridError, match="at most"):
            PointerSpec(0.0, 1.0, 1.0, MAX_N_POINTS + 1)
        spec = PointerSpec(0.0, 1.0, 1.0, 1024)
        assert spec.weakness_ratio == 1.0
        assert (spec.t_min, spec.t_max, spec.step) == (-8.0, 9.0, 17.0 / 1023)
        for gamma, epsilon, sigma, n_points in (
            (0.0, 1.0, 4e-4, 1024),  # step about 2.5 sigma
            (0.0, 1.0, 1e-6, 256),
            (1e150, 1e150, 1e-150, 64),  # the window rounds to one time: no step
        ):
            with pytest.raises(GridError, match="grid step .* does not resolve sigma"):
                PointerSpec.default(gamma, epsilon, sigma, n_points)
        # A step of exactly sigma: 47 sigma between the delays, 63 intervals.
        with pytest.raises(GridError, match="^grid step 1 does not resolve sigma 1: .*aliasing"):
            PointerSpec(0.0, 47.0, 1.0, 64)
        PointerSpec.default(0.0, 1e150, 1e149, 64)

    def test_a_spec_without_a_grid_checks_what_the_closed_form_reads(self):
        spec = PointerSpec.default(0.0, 1.0, 8.0)
        assert spec == PointerSpec(0.0, 1.0, 8.0)
        assert [f.name for f in fields(PointerSpec)] == ["gamma", "epsilon", "sigma", "n_points"]
        assert spec.n_points is None
        # The window the closed form reads out to, and any grid spans.
        assert (spec.t_min, spec.t_max) == (-64.0, 65.0)
        late_first = PointerSpec(2.0, 0.5, 0.25)
        assert (late_first.t_min, late_first.t_max) == (-1.5, 4.0)
        with pytest.raises(AttributeError):
            spec.t_min = 0.0
        tiny = math.sqrt(sys.float_info.min)
        PointerSpec(0.0, 1.0, tiny)
        PointerSpec(0.0, 0.0, 1.18e153)  # 2 (8 sigma)**2 is just below the largest float
        refusals = [((0.0, 1.0, 1e-300), r"^sigma 1e-300 is too small: sigma\*\*2 underflows"),
                    ((0.0, 0.0, 1e-300), r"^sigma 1e-300 is too small: sigma\*\*2 underflows")]
        for args in ((0.0, 1.0, 1e200), (0.0, 1e154, 1e153), (-1e300, 1e300, 1.0),
                     (0.0, 1.0, 1e308)):
            refusals.append((args, "^pointer window .* squared extent overflows$"))
        # One validation path: a grid of any size is refused alike, first.
        for args, message in refusals:
            for n_points in (None, 64, 4096, MAX_N_POINTS + 1):
                with pytest.raises(GridError, match=message):
                    PointerSpec(*args, n_points)

    def test_a_spec_without_a_grid_prints_the_closed_form(self):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.3, 1.7, 2.0)
        for measured in MEASURED_SETS:
            profile = build_pointer_profile(pre, post, measured, spec)
            assert pointer_moments(profile) == analytic_moments(profile.terms, spec)
        s = photon_structure()
        profile = build_pointer_profile(state_of(s, {("H", "H"): 1.0}),
                                        state_of(s, {("V", "V"): 1.0}), ("2",), spec)
        with pytest.raises(EmptyPostSelectionError, match="^post-selected pointer norm vanishes$"):
            pointer_moments(profile)

    @pytest.mark.parametrize("field,args", [
        ("gamma", (math.nan, 1.0, 8.0, 128)),
        ("gamma", (-math.inf, 1.0, 8.0, 128)),
        ("epsilon", (0.0, math.nan, 8.0, 128)),
        ("epsilon", (0.0, math.inf, 8.0, None)),
        ("sigma", (0.0, 1.0, math.nan, 128)),
        ("sigma", (0.0, 1.0, math.inf, None)),
    ])
    def test_non_finite_field_is_named(self, field, args):
        with pytest.raises(GridError, match=f"^{field} must be finite"):
            PointerSpec(*args)

    def test_grid_is_numpy_linspace(self):
        # The reference table's grid is linspace over the window bit for
        # bit; the check's ramp times t_min + i h are too, but for the end
        # point, which the ramp reaches within a few ulps.
        rng = random.Random("grid")
        checked = 0
        while checked < 300:
            gamma = rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-3, 3)
            epsilon = gamma + rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-3, 3)
            sigma = abs(epsilon - gamma) * 2.0 ** rng.uniform(-6.0, 2.0)
            try:
                spec = PointerSpec(gamma, epsilon, sigma, rng.randint(64, 4096))
            except GridError:  # a step that does not resolve sigma
                continue
            checked += 1
            n_points = spec.n_points
            grid = fsum_table.grid(spec)
            linspace = np.linspace(spec.t_min, spec.t_max, n_points).tolist()
            assert grid == linspace
            assert grid[-1] == spec.t_max
            ramp = [i * spec.step + spec.t_min for i in pointer._index_ramp(n_points)]
            assert ramp[:-1] == linspace[:-1]
            extent = max(abs(spec.t_min), abs(spec.t_max))
            assert abs(ramp[-1] - spec.t_max) <= 4 * math.ulp(extent)

    def test_grid_moments_match_a_dense_trapezoid_oracle(self):
        rng = random.Random("dense oracle")
        pre = run_entanglement_swap().conditional_state()
        for _ in range(12):
            gamma, epsilon, sigma, phi = _draw_pointer(rng)
            post = analyzer_post_selection(phi)
            spec = PointerSpec.default(gamma, epsilon, sigma, rng.choice([64, 128, 256]))
            for measured in (("2",), ("4",), ("2", "4")):
                profile = build_pointer_profile(pre, post, measured, spec)
                got = pointer_moments(profile)
                want = _dense_trapezoid_moments(profile.terms, spec)
                assert got.success_probability == pytest.approx(want[0], rel=1e-12, abs=1e-12)
                for axis in range(len(measured)):
                    assert got.mean[axis] == pytest.approx(want[1][axis], rel=1e-12, abs=1e-12)
                    assert got.variance[axis] == pytest.approx(
                        want[2][axis], rel=1e-12, abs=1e-12)

    def test_measured_names_validated(self):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 1.0, 1024)
        with pytest.raises(StructureError):
            build_pointer_profile(pre, post, ("7",), spec)
        with pytest.raises(StructureError):
            build_pointer_profile(pre, post, (), spec)

    def test_both_delay_callers_refuse_a_measured_photon_that_is_not_h_v(self):
        s = Structure.of(("2", ("H", "V")), ("4", ("O", "NO")))
        pre = state_of(s, {("H", "O"): 1.0})
        spec = PointerSpec.default(0.0, 1.0, 1.0)
        message = "arrival time is defined on H/V photons, not '4' with ('O', 'NO')"
        for call in (lambda: pointer_terms(pre, pre, ("2", "4"), spec),
                     lambda: arrival_time_operator(s, ("2", "4"), 0.0, 1.0)):
            with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
                call()

    def test_an_unmeasured_photon_may_have_another_alphabet(self):
        pre, post = _pre_post()
        as_path = {"H": {"NO": 1.0}, "V": {"O": 1.0}}
        pre_path, post_path = (apply_level_map(sv, "4", as_path, ("NO", "O"))
                               for sv in (pre, post))
        spec = PointerSpec.default(0.3, 1.7, 2.0)
        terms = pointer_terms(pre_path, post_path, ("2",), spec)
        assert terms == pointer_terms(pre, post, ("2",), spec)
        op = arrival_time_operator(pre_path.structure, ("2",), 0.3, 1.7)
        assert weak_value(op, pre_path, post_path).value == weak_value(
            arrival_time_operator(pre.structure, ("2",), 0.3, 1.7), pre, post).value

    @pytest.mark.parametrize("measured", [("2", "2"), ("4", "4"), ("2", "4", "2")])
    def test_both_entry_points_refuse_a_repeated_photon(self, measured):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 1.0)
        with pytest.raises(StructureError, match="^measure one photon or an ordered pair$"):
            build_pointer_profile(pre, post, measured, spec)
        with pytest.raises(StructureError, match="^measure one photon or an ordered pair$"):
            weak_limit_sweep(pre, post, measured, 0.0, 1.0, [1.0, 2.0])


class TestGridIntegrals:
    def test_weights_match_the_pairwise_trapezoid(self):
        rng = random.Random("trapezoid")
        specs = [PointerSpec.default(0.0, 1e150, 1e149, 64),
                 PointerSpec.default(0.0, 1.0, 8.0, MAX_N_POINTS)]
        while len(specs) < 300:
            gamma = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 6)
            epsilon = gamma + rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 3)
            sigma = abs(epsilon - gamma) * 2.0 ** rng.uniform(-2.0, 4.0) or 1.0
            n_points = round(2.0 ** rng.uniform(6.0, 13.0))
            try:
                specs.append(PointerSpec.default(gamma, epsilon, sigma, n_points))
            except GridError:
                continue
        for spec in specs:
            t = fsum_table.grid(spec)
            c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            samples = fsum_table.samples(spec)
            early, late = samples[spec.gamma], samples[spec.epsilon]
            y = [abs(a + c * b) ** 2 for a, b in zip(early, late)]
            norm, first, second = fsum_table.grid_integrals(spec, y)
            assert norm == pytest.approx(_trapezoid(y, t), rel=1e-14, abs=0.0)
            scale = _trapezoid([abs(x) * m for x, m in zip(t, y)], t)
            assert abs(first - _trapezoid([x * m for x, m in zip(t, y)], t)) <= 1e-14 * scale
            want = _trapezoid([x * x * m for x, m in zip(t, y)], t)
            assert second == pytest.approx(want, rel=1e-14, abs=0.0)


def _old_gaussian_amplitude(t, center, sigma):
    # The expressions the leaner sampling kernel replaced, kept as its oracle.
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.25)
    width = 4.0 * sigma * sigma
    return [norm * math.exp(-((x - center) * (x - center)) / width) for x in t]


def _old_quadrature(spec):
    step = spec.step
    t = [i * step + spec.t_min for i in range(spec.n_points - 1)] + [spec.t_max]
    w = ([(t[1] - t[0]) / 2.0] + [(b - a) / 2.0 for a, b in zip(t, t[2:])]
         + [(t[-1] - t[-2]) / 2.0])
    return t, w


def _hex(values):
    return [v.hex() for v in values]


def _kernel_specs():
    """Seeded specs, the smallest sigma whose square passes the underflow
    guard, and grids whose squared extent is just finite."""
    tiny = math.sqrt(sys.float_info.min)
    specs = [
        PointerSpec.default(-0.0, -0.0, 1.0, 64),
        PointerSpec.default(0.0, 1e-154, tiny, 64),
        PointerSpec.default(-0.0, 0.0, tiny * 3.0, MAX_N_POINTS),
        PointerSpec.default(0.0, 0.0, 1.18e153, 64),  # 2 t_max**2 is just below the largest float
        PointerSpec.default(-1e153, 1e153, 1e152, 4096),
        PointerSpec.default(0.0, 1.0, 8.0, MAX_N_POINTS),
    ]
    rng = random.Random("sampling kernel")
    while len(specs) < 60:
        gamma = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-6, 6)
        epsilon = gamma + rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-6, 3)
        sigma = abs(epsilon - gamma) * 2.0 ** rng.uniform(-2.0, 4.0) or 1.0
        try:
            specs.append(PointerSpec.default(gamma, epsilon, sigma,
                                             round(2.0 ** rng.uniform(6.0, 13.0))))
        except GridError:
            continue
    return specs


class TestSamplingKernel:
    @pytest.mark.parametrize("spec", _kernel_specs())
    def test_grid_weights_and_samples_are_the_old_expressions_bit_for_bit(self, spec):
        t, w = fsum_table.quadrature(spec)
        want_t, want_w = _old_quadrature(spec)
        assert _hex(fsum_table.grid(spec)) == _hex(t) == _hex(want_t)
        assert _hex(w) == _hex(want_w)
        for center in (spec.gamma, spec.epsilon):
            assert _hex(fsum_table.gaussian_amplitude(t, center, spec.sigma)) == _hex(
                _old_gaussian_amplitude(t, center, spec.sigma))

    def test_samples_off_the_grid_are_the_old_expression_bit_for_bit(self):
        # Signed zeros, squares that overflow to inf and exponents that
        # underflow to 0, at seeded centres and widths.
        rng = random.Random("gaussian oracle")
        t = [-0.0, 0.0, 1e-320, -1e200, 1e200, 1e154, -3.0, 2.5]
        t += [rng.uniform(-50.0, 50.0) for _ in range(200)]
        tiny = math.sqrt(sys.float_info.min)
        cases = [(-0.0, 1.0), (0.0, tiny), (-0.0, tiny * (1.0 + 2**-52)), (1e-320, 1e-160),
                 (0.0, 1e300), (2.5, 1e-3)]
        cases += [(rng.uniform(-5.0, 5.0), 2.0 ** rng.uniform(-10.0, 10.0)) for _ in range(60)]
        for center, sigma in cases:
            assert _hex(fsum_table.gaussian_amplitude(t, center, sigma)) == _hex(
                _old_gaussian_amplitude(t, center, sigma)), (center, sigma)


# The pointer request's steps as they were before one label walk served
# every measured tuple, kept as oracles: the generic pair loop, a walk per
# measured tuple over every product label, the post-selection built and
# then pruned, and grid sizing by a plain bisection.

def _old_pair_sums(terms, tables):
    n_axes = len(tables)
    norm = 0.0
    moments = [[0.0] * n_axes for _ in tables[0][0, 0][1:]]
    for keys_i, ci in terms:
        for keys_j, cj in terms:
            cross = (ci.conjugate() * cj).real
            if cross == 0.0:
                continue
            sums = [table[a, b] for table, a, b in zip(tables, keys_i, keys_j)]
            norm += cross * math.prod(s[0] for s in sums)
            for ax, integrals in enumerate(sums):
                rest = cross * math.prod(s[0] for s in sums[:ax] + sums[ax + 1:])
                for moment, integral in zip(moments, integrals[1:]):
                    moment[ax] += rest * integral
    return norm, moments


def _old_pointer_terms(pre, post, measured, spec):
    if not (len(measured) in (1, 2) and len(set(measured)) == len(measured)):
        raise StructureError("measure one photon or an ordered pair")
    if pre.structure != post.structure:
        raise StructureError("pre- and post-selection must share a structure")
    if not (pre.normalized and post.normalized):
        raise ValueError("pre- and post-selection must be normalized")
    names = pre.structure.names
    if any(m not in names for m in measured):
        raise StructureError(f"measured photons must be among {names}")
    delay = weakvalues.polarization_delays(pre.structure, measured, spec.gamma, spec.epsilon)
    collected = {}
    for label in pre.structure.product_labels():
        cross = post.amplitude(label).conjugate() * pre.amplitude(label)
        if cross == 0j:
            continue
        key = tuple(label.level(m) for m in measured)
        collected[key] = collected.get(key, 0j) + cross
    return tuple((tuple(delay[level] for level in key), coeff)
                 for key, coeff in sorted(collected.items()))


def _old_analyzer_post_selection(phi):
    row = (("H", math.cos(-phi)), ("V", -math.sin(-phi)))
    s = photon_structure()
    return StateVector(s, {
        s.label(l2, l4): a * f for l2, a in row for l4, f in row
    }).prune()


def _outcome(fn, *args):
    """``fn``'s result with every float as hex, or its error and message."""
    try:
        return _exact(fn(*args))
    except Exception as exc:  # both routes must refuse alike
        return type(exc), str(exc)


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, PointerSpec):
        return _exact([value.gamma, value.epsilon, value.sigma]) + [value.n_points]
    if isinstance(value, pointer.PointerMoments):
        return _exact([value.mean, value.variance, value.success_probability])
    return value


def _draw_complex(rng: random.Random) -> complex:
    kind = rng.random()
    if kind < 0.1:
        return complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
    if kind < 0.2:
        return complex(rng.uniform(-1.0, 1.0), rng.choice([0.0, -0.0]))
    if kind < 0.3:
        return complex(rng.choice([0.0, -0.0]), rng.uniform(-1.0, 1.0))
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _draw_terms(rng: random.Random, n_axes: int, n_basis: int):
    """Basis terms of one or two axes; some keys repeat and some
    coefficients are signed zeros, real or imaginary, so that some cross
    terms vanish."""
    return tuple((tuple(rng.randrange(n_basis) for _ in range(n_axes)), _draw_complex(rng))
                 for _ in range(rng.randint(1, 6)))


def _draw_table(rng: random.Random, order: int, n_basis: int):
    table = {}
    for p in range(n_basis):
        for q in range(p, n_basis):
            table[p, q] = table[q, p] = tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-3, 3)
                                              for _ in range(order + 1))
    return table


# An unmeasured photon with a third level: its labels add to one key of
# each measured tuple, so the order of those additions shows.
THREE_PHOTONS = Structure.of(("2", ("H", "V")), ("3", ("a", "b", "c")), ("4", ("H", "V")))
MEASURED_SETS = (("2",), ("4",), ("2", "4"))


def _draw_state(rng: random.Random, structure: Structure, gamma: bool = False) -> StateVector:
    """A normalized state with absent and signed-zero amplitudes."""
    amps = {label: _draw_complex(rng) for label in structure.product_labels()
            if rng.random() < 0.8}
    if gamma:
        amps[GAMMA] = _draw_complex(rng)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values())) or 1.0
    return StateVector(structure, {label: a / norm for label, a in amps.items()})


class TestRequestOracles:
    def test_pair_sums_are_the_generic_loop_bit_for_bit(self):
        rng = random.Random("pair sums")
        specs = [PointerSpec.default(0.0, 1.0, 0.7, 64), PointerSpec.default(0.5, 0.5, 2.0, 64),
                 PointerSpec.default(-0.0, 0.0, 1.0, 64), budget_spec(1.0, -3.0, 0.4)]
        for _ in range(400):
            n_axes = rng.randint(1, 2)
            spec = rng.choice(specs)
            n_basis = 1 if spec.gamma == spec.epsilon else 2
            terms = _draw_terms(rng, n_axes, n_basis)
            centre = rng.uniform(-3.0, 3.0)
            tables = [fsum_table.basis_integrals(spec), spec.closed_integrals,
                      pointer._about(spec, centre)[1],
                      _draw_table(rng, 1, n_basis), _draw_table(rng, 2, n_basis)]
            for table in tables:
                # One table on every axis, or another of its order on the second.
                other = _draw_table(rng, len(table[0, 0]) - 1, n_basis)
                for per_axis in ((table,) * n_axes, (table, other)[:n_axes]):
                    assert _outcome(pointer._pair_sums, terms, *per_axis) == _outcome(
                        _old_pair_sums, terms, per_axis), (terms, per_axis)

    def test_pair_sums_of_walked_terms_are_the_generic_loop_bit_for_bit(self):
        pre = run_entanglement_swap().conditional_state()
        for phi in (-math.pi / 4.0, -math.atan(0.5) + 1e-7, 0.3, 1.2):
            for gamma, epsilon in ((0.0, 1.0), (1.0, 1.0), (-0.0, 0.0), (2.0, -1.5)):
                spec = budget_spec(gamma, epsilon, 1.5)
                for profile in pointer.pointer_profiles(
                        pre, analyzer_post_selection(phi), MEASURED_SETS, spec):
                    terms = pointer._basis_terms(profile.terms, spec)
                    for table in (fsum_table.basis_integrals(spec), spec.closed_integrals):
                        tables = (table,) * len(profile.measured)
                        assert _outcome(pointer._pair_sums, terms, *tables) == _outcome(
                            _old_pair_sums, terms, tables)

    def test_post_selection_is_the_pruned_state_bit_for_bit(self):
        rng = random.Random("analyzer")
        phis = [-math.pi / 4.0, -math.atan(0.5), -math.atan(0.5) + 1e-7, math.pi / 2.0,
                -math.pi / 2.0, 0.0, -0.0, math.pi, 1e-300, 1e-16]
        phis += [rng.uniform(-math.pi, math.pi) for _ in range(200)]
        # Amplitudes on both sides of PRUNE_THRESHOLD, and at it.
        phis += [1e-15, math.asin(PRUNE_THRESHOLD), math.pi / 2.0 - 1e-14]
        phis += [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -6.0) for _ in range(100)]
        for phi in phis:
            got, want = analyzer_post_selection(phi), _old_analyzer_post_selection(phi)
            assert list(got.amplitudes) == list(want.amplitudes), phi
            assert _exact(list(got.amplitudes.values())) == _exact(
                list(want.amplitudes.values())), phi
            assert got.normalized == want.normalized

    def test_one_walk_is_the_walk_per_measured_tuple_bit_for_bit(self):
        # The request's own states, and seeded states on a structure with
        # an unmeasured photon, some of them carrying GAMMA.
        rng = random.Random("label walk")
        pre = run_entanglement_swap().conditional_state()
        phis = [-math.pi / 4.0, -math.atan(0.5), -math.atan(0.5) + 1e-7, math.pi / 2.0]
        cases = [(pre, analyzer_post_selection(phi), _old_analyzer_post_selection(phi))
                 for phi in phis + [rng.uniform(-math.pi, math.pi) for _ in range(40)]]
        for _ in range(150):
            structure = rng.choice([photon_structure(), THREE_PHOTONS])
            post = _draw_state(rng, structure)
            cases.append((_draw_state(rng, structure, gamma=rng.random() < 0.3), post, post))
        for pre_state, post, old_post in cases:
            gamma, epsilon = rng.choice([(0.0, 1.0), (1.0, 1.0), (-0.5, 2.0)])
            spec = PointerSpec.default(gamma, epsilon, 1.0)
            profiles = pointer.pointer_profiles(pre_state, post, MEASURED_SETS, spec)
            for measured, profile in zip(MEASURED_SETS, profiles):
                want = _old_pointer_terms(pre_state, old_post, measured, spec)
                assert profile.measured == measured
                assert _exact(profile.terms) == _exact(want)
                assert _exact(pointer_terms(pre_state, post, measured, spec)) == _exact(want)
                old = pointer.PointerProfile(spec, measured, want)
                for route in (weak_prediction, pointer_moments):
                    assert _outcome(route, profile) == _outcome(route, old), (measured, route)

    def test_orthogonal_analyzers_are_refused_alike(self):
        pre = run_entanglement_swap().conditional_state()
        spec = PointerSpec.default(0.0, 1.0, 8.0)
        for phi in (-math.atan(0.5), math.pi / 2.0):
            post, old_post = analyzer_post_selection(phi), _old_analyzer_post_selection(phi)
            profiles = pointer.pointer_profiles(pre, post, MEASURED_SETS, spec)
            refusals = 0
            for measured, profile in zip(MEASURED_SETS, profiles):
                old = pointer.PointerProfile(
                    spec, measured, _old_pointer_terms(pre, old_post, measured, spec))
                got = _outcome(weak_prediction, profile)
                assert got == _outcome(weak_prediction, old)
                refusals += got[0] is OrthogonalPostSelectionError
            assert refusals >= 1, phi

    @pytest.mark.parametrize("pre,post,measured", [
        ("pair", "pair", ("2", "2")),
        ("pair", "pair", ("2", "4", "2")),
        ("pair", "pair", ()),
        ("pair", "three", ("2",)),
        ("half", "pair", ("2",)),
        ("pair", "pair", ("9",)),
        ("three", "three", ("3",)),
        ("three", "three", ("4", "3")),
    ])
    def test_walks_refuse_bad_inputs_alike(self, pre, post, measured):
        rng = random.Random("refusals")
        states = {"pair": _draw_state(rng, photon_structure()),
                  "three": _draw_state(rng, THREE_PHOTONS),
                  "half": _draw_state(rng, photon_structure()).scaled(0.5)}
        spec = PointerSpec.default(0.0, 1.0, 1.0)
        pre, post = states[pre], states[post]
        want = _outcome(_old_pointer_terms, pre, post, measured, spec)
        assert isinstance(want[0], type) and issubclass(want[0], Exception)
        assert _outcome(pointer_terms, pre, post, measured, spec) == want
        assert _outcome(pointer.pointer_profiles, pre, post, [measured], spec) == want

    def test_a_spec_without_a_grid_refuses_what_a_budget_grid_refuses_but_resolution(self):
        rng = random.Random("default sizing")
        cases = [(0.0, 1.0, 8.0), (0.0, 1.0, 0.00025), (0.0, 1.0, 0.00016), (0.0, 1.0, 0.00014),
                 (0.0, 1.0, 1e-5), (1.0, 1.0, 1e-300), (0.0, 0.0, 1.18e153), (1e20, 1e20, 1.0),
                 (0.0, 1.0, 0.0), (0.0, 1.0, -1.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
                 (math.nan, 1.0, 1.0), (0.0, -math.inf, 1.0), (0.0, 1e308, 1e300),
                 (-0.0, 0.0, 5e-324), (0.0, 1.0, 1e200)]
        for _ in range(300):
            gamma = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 3)
            epsilon = gamma + rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 3)
            sigma = abs(epsilon - gamma) * 10.0 ** rng.uniform(-4.5, 1.0) or 1.0
            cases.append((gamma, epsilon, sigma))
        outcomes = set()
        for gamma, epsilon, sigma in cases:
            bare = _outcome(PointerSpec.default, gamma, epsilon, sigma)
            sized = _outcome(budget_spec, gamma, epsilon, sigma)
            if isinstance(sized, list):  # the same spec, but for its grid
                assert bare == sized[:3] + [None], (gamma, epsilon, sigma)
                outcomes.add("both accept")
            elif isinstance(bare, list):
                assert sized[0] is GridError, (gamma, epsilon, sigma)
                assert sized[1].startswith(budget_grid.RESOLUTION_REFUSALS), sized
                outcomes.add("only the grid refuses")
            else:  # the input itself: one validation path refuses it by name
                assert bare[0] is GridError, (gamma, epsilon, sigma)
                assert "grid" not in bare[1], bare
                assert bare == sized
                outcomes.add("both refuse")
        assert outcomes == {"both accept", "only the grid refuses", "both refuse"}


class TestWorkCount:
    @staticmethod
    def count_samplings(monkeypatch) -> list[float]:
        centers = []
        original = pointer._ramp_gaussian
        monkeypatch.setattr(pointer, "_ramp_gaussian",
                            lambda spec, center: centers.append(center) or original(spec, center))
        return centers

    @pytest.mark.parametrize("argv,want", [
        # A pointer's three profiles are checked against one sampling of
        # their spec's grid, a sweep width against its own: each samples
        # f_gamma on the index ramp and mirrors it for f_epsilon.
        (["--scenario=pointer"], 1),
        (["--scenario=pointer", "--gamma=1", "--epsilon=1"], 1),
        (["--scenario=pointer-sweep"], 6),
        (["--scenario=pointer-sweep", "--sweep", "sigma=1,2,3"], 3),
        (["--scenario=pointer-sweep", "--gamma=1", "--epsilon=1"], 6),
    ])
    def test_one_sampling_per_spec(self, monkeypatch, capsys, argv, want):
        centers = self.count_samplings(monkeypatch)
        assert run_cli(["run", *argv, "--grid-points=128"]) == 0
        assert len(centers) == want
        capsys.readouterr()

    def test_one_profile_per_profile_build(self, monkeypatch):
        # build_pointer_profile and pointer_terms each build the one profile
        # their walk gives, and the terms are that profile's.
        pre, post = _pre_post()
        spec = PointerSpec.default(0.3, 1.7, 2.0)
        built = []
        original = pointer.PointerProfile
        monkeypatch.setattr(pointer, "PointerProfile",
                            lambda *args: built.append(args) or original(*args))
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        assert len(built) == 1 and type(profile) is original
        assert pointer_terms(pre, post, ("2", "4"), spec) == profile.terms
        assert len(built) == 2

    @pytest.mark.parametrize("argv,walks", [
        (["--scenario=pointer"], 1),  # photon 2, photon 4 and the pair
        (["--scenario=pointer-sweep"], 1),  # six default widths
        (["--scenario=photonic-weak"], 0),  # weights the once-per-process table
    ])
    def test_one_label_contraction_per_run(self, monkeypatch, capsys, argv, walks):
        # A pointer reads its weak-value prediction off the joint profile's
        # terms, which do not depend on sigma; the joint arrival-time weak
        # value holds both photons' values.  One walk fills the terms of
        # every measured tuple of a request, and no request builds an operator.
        scenarios._standard_selection()  # the once-per-process walk
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        projector_sum = WeightedProjectorSum
        walk = counting("walk", weakvalues.level_coefficients)
        for module in (pointer, scenarios):
            monkeypatch.setattr(module, "level_coefficients", walk)
        monkeypatch.setattr(projector_sum, "__post_init__",
                            counting("sum", projector_sum.__post_init__))
        assert run_cli(["run", *argv]) == 0
        capsys.readouterr()
        assert calls.count("walk") == walks
        assert calls.count("sum") == 0

    @staticmethod
    def count_budgets(monkeypatch) -> list[PointerSpec]:
        budgets = []
        original = pointer.grid_error_budget
        monkeypatch.setattr(pointer, "grid_error_budget",
                            lambda spec: budgets.append(spec) or original(spec))
        return budgets

    @staticmethod
    def count_grid_checks(monkeypatch) -> list[tuple[PointerSpec, int]]:
        built = []
        original = pointer._GridCheck

        class Counting(original):
            def __init__(self, spec, order):
                built.append((spec, order))
                super().__init__(spec, order)

        monkeypatch.setattr(pointer, "_GridCheck", Counting)
        return built

    @pytest.mark.parametrize("argv", [
        ["--scenario=pointer"],
        ["--scenario=pointer", "--format=json"],
        ["--scenario=pointer-sweep"],
        ["--scenario=pointer-sweep", "--format=csv"],
        ["--scenario=pointer-sweep", "--format=json"],
    ])
    def test_default_runs_sample_no_grid(self, monkeypatch, capsys, argv):
        centers = self.count_samplings(monkeypatch)
        checks = self.count_grid_checks(monkeypatch)
        budgets = self.count_budgets(monkeypatch)
        assert run_cli(["run", *argv]) == 0
        assert "grid_points" not in capsys.readouterr().out
        assert (centers, checks, budgets) == ([], [], [])

    @pytest.mark.parametrize("argv,checked", [
        (["--scenario=pointer"], [(8.0, 2)]),
        (["--scenario=pointer", "--format=json"], [(8.0, 2)]),
        (["--scenario=pointer-sweep"], [(k, 1) for k in DEFAULT_SWEEP_MULTIPLES]),
        (["--scenario=pointer-sweep", "--format=csv", "--sweep=sigma=1,3"], [(1.0, 1), (3.0, 1)]),
    ])
    def test_a_grid_points_run_builds_one_grid_check_per_spec(self, monkeypatch, capsys, argv,
                                                               checked):
        checks = self.count_grid_checks(monkeypatch)
        assert run_cli(["run", *argv, "--grid-points=128"]) == 0
        capsys.readouterr()
        assert [(spec.sigma, order) for spec, order in checks] == checked
        assert {spec.n_points for spec, _ in checks} == {128}

    def test_a_grid_points_run_evaluates_its_budget_once(self, monkeypatch, capsys):
        budgets = self.count_budgets(monkeypatch)
        assert run_cli(["run", "--scenario=pointer", "--grid-points=64"]) == 0
        assert "grid_points=64\n" in capsys.readouterr().out
        # The tolerance every table of the spec is checked to.
        assert len(budgets) == 1

    @pytest.mark.parametrize("grid", [[], ["--grid-points=128"]])
    def test_the_norm_and_means_are_one_first_order_pass(self, monkeypatch, capsys, grid):
        # A pointer request sums each of its three profiles twice, the norm
        # and means to first order and then the variances at the table's
        # order; a sweep width sums its norm and means once, to first order.
        orders = []
        original = pointer._pair_sums

        def counting(terms, *tables, order=None):
            orders.append(order)
            return original(terms, *tables, order=order)

        monkeypatch.setattr(pointer, "_pair_sums", counting)
        assert run_cli(["run", "--scenario=pointer", *grid]) == 0
        assert orders == [1, None] * 3
        orders.clear()
        assert run_cli(["run", "--scenario=pointer-sweep", *grid]) == 0
        capsys.readouterr()
        assert orders == [1] * len(DEFAULT_SWEEP_MULTIPLES)

    @pytest.fixture
    def fsums(self, monkeypatch):
        # An exactly summed pass over the grid would go through math.fsum.
        calls = []
        original = math.fsum

        def counting(values):
            calls.append(1)
            return original(values)

        monkeypatch.setattr(math, "fsum", counting)
        return calls

    def test_one_sampling_per_spec_on_its_first_moments(self, monkeypatch, fsums):
        centers = self.count_samplings(monkeypatch)
        pre, post = _pre_post()
        for gamma in (0.0, 1.0):
            spec = PointerSpec.default(gamma, 1.0, 8.0, 128)
            for first, measured in zip((True, False, False), (("2",), ("4",), ("2", "4"))):
                centers.clear()
                profile = build_pointer_profile(pre, post, measured, spec)
                assert centers == []
                pointer_moments(profile)
                assert centers == ([gamma] if first else [])
        assert fsums == []

    @pytest.mark.parametrize("argv", [
        ["--scenario=pointer"],
        ["--scenario=pointer", "--gamma=1", "--epsilon=1"],
        ["--scenario=pointer", "--sigma=0.00025", "--format=json"],
        ["--scenario=pointer-sweep"],
        ["--scenario=pointer-sweep", "--sweep", "sigma=1,2,3"],
        ["--scenario=pointer-sweep", "--gamma=1", "--epsilon=1"],
    ])
    def test_no_exact_sums_on_any_run(self, fsums, capsys, argv):
        assert run_cli(["run", *argv]) == 0
        assert fsums == []
        capsys.readouterr()


def _prediction_cases(count: int):
    """Seeded gamma, epsilon and phi, with delays from 1e-300 to 1e150,
    equal and zero delays, and the orthogonal and standard analyzers."""
    rng = random.Random("weak-prediction")
    special = (0.0, -0.0, math.pi / 4.0, -math.pi / 4.0, math.pi / 2.0, -math.atan(0.5))

    def delay() -> float:
        kind = rng.random()
        if kind < 0.5:
            return rng.uniform(-3.0, 3.0)
        if kind < 0.8:
            return math.copysign(10.0 ** rng.uniform(-300.0, 150.0), rng.random() - 0.5)
        return float(rng.randint(-2, 2))

    for index in range(count):
        phi = rng.choice(special) if index % 10 == 0 else rng.uniform(-math.pi / 2, math.pi / 2)
        yield delay(), delay(), phi


def _both_routes(pre, post, measured, gamma, epsilon):
    """The terms route and its oracle: each prediction, or its error message."""
    spec = PointerSpec.default(gamma, epsilon, max(abs(gamma), abs(epsilon), 1.0), 64)
    profile = build_pointer_profile(pre, post, measured, spec)
    results = []
    for route in (
        lambda: weak_prediction(profile),
        lambda: tuple(w.real for w in weak_value(
            arrival_time_operator(pre.structure, measured, gamma, epsilon), pre, post).value),
    ):
        try:
            results.append(route())
        except OrthogonalPostSelectionError as exc:
            results.append(str(exc))
    return profile, results


class TestWeakPrediction:
    """The weak prediction from the pointer terms against weak_value of
    arrival_time_operator, the operator route photonic-weak prints."""

    def test_joint_prediction_is_the_operator_weak_value_bit_for_bit(self):
        pre = run_entanglement_swap().conditional_state()
        refused = 0
        for gamma, epsilon, phi in _prediction_cases(3000):
            _, (got, want) = _both_routes(
                pre, analyzer_post_selection(phi), ("2", "4"), gamma, epsilon)
            if isinstance(want, str):
                refused += 1
                assert got == want
            else:
                assert [x.hex() for x in got] == [x.hex() for x in want], (gamma, epsilon, phi)
        assert 0 < refused < 3000

    def test_single_photon_prediction_matches_the_operator_weak_value(self):
        # The terms add a photon's two labels per delay before weighting, so
        # rounding differs: compare against the largest summand over the
        # overlap, max|d| sum|c| / |sum c|, as the value itself may cancel.
        pre = run_entanglement_swap().conditional_state()
        for gamma, epsilon, phi in _prediction_cases(3000):
            post = analyzer_post_selection(phi)
            for measured in (("2",), ("4",)):
                profile, (got, want) = _both_routes(pre, post, measured, gamma, epsilon)
                if isinstance(want, str) or isinstance(got, str):
                    assert isinstance(got, str) and isinstance(want, str)
                    continue
                coeffs = [c for _, c in profile.terms]
                scale = (max(abs(gamma), abs(epsilon)) * sum(map(abs, coeffs))
                         / abs(sum(coeffs)))
                assert abs(got[0] - want[0]) <= 1e-14 * scale, (measured, gamma, epsilon, phi)

    @pytest.mark.parametrize("measured", [("2",), ("4",), ("2", "4")])
    def test_orthogonal_post_selection_is_refused(self, measured):
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(math.pi / 2.0)  # V V, absent from the pair
        profile = build_pointer_profile(pre, post, measured, PointerSpec.default(0.0, 1.0, 1.0))
        with pytest.raises(OrthogonalPostSelectionError) as exc:
            weak_prediction(profile)
        assert str(exc.value) == "post-selection overlap 0.000e+00 below threshold"


class TestSinglePhotonExactness:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0, 32.0])
    @pytest.mark.parametrize("photon", ["2", "4"])
    def test_mean_is_epsilon_at_any_strength(self, sigma, photon):
        # The H coefficient cancels exactly for these states, leaving one
        # displaced Gaussian: the mean must not move with the strength.
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, sigma, 1024)
        profile = build_pointer_profile(pre, post, (photon,), spec)
        moments = pointer_moments(profile)
        assert abs(moments.mean[0] - 1.0) < 1e-9


class TestJointMoments:
    @pytest.mark.parametrize("u", [0.1 * k for k in range(1, 10)])
    def test_grid_matches_closed_form_across_overlaps(self, u):
        pre, post = _pre_post()
        sigma = 1.0 / math.sqrt(-8.0 * math.log(u))
        spec = PointerSpec.default(0.0, 1.0, sigma, 2048)
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        moments = pointer_moments(profile)
        want = joint_mean_formula(0.0, 1.0, sigma)
        for axis in (0, 1):
            assert abs(moments.mean[axis] - want) < 1e-8

    def test_analytic_route_matches_formula(self):
        pre, post = _pre_post()
        for gamma, epsilon, sigma in [(0.0, 1.0, 0.6), (0.3, 1.7, 2.0), (0.0, 1.0, 32.0)]:
            spec = PointerSpec.default(gamma, epsilon, sigma, 1024)
            terms = pointer_terms(pre, post, ("2", "4"), spec)
            moments = analytic_moments(terms, spec)
            want = joint_mean_formula(gamma, epsilon, sigma)
            for axis in (0, 1):
                assert abs(moments.mean[axis] - want) < 1e-12

    def test_weak_regime_mean_approaches_weak_value(self):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 32.0, 1024)
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        moments = pointer_moments(profile)
        for axis in (0, 1):
            assert abs(moments.mean[axis] - 1.0) < 1e-3

    def test_strong_regime_mean_is_epsilon_over_three(self):
        # With negligible pointer overlap the three branches resolve and
        # the measured photon is late in only one of them.
        pre, post = _pre_post()
        spec = PointerSpec.default(0.0, 1.0, 0.05, 2048)
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        moments = pointer_moments(profile)
        for axis in (0, 1):
            assert abs(moments.mean[axis] - 1.0 / 3.0) < 1e-6

    def test_general_delays_shift_covariantly(self):
        pre, post = _pre_post()
        spec = PointerSpec.default(0.3, 1.7, 1.1, 1024)
        profile = build_pointer_profile(pre, post, ("2", "4"), spec)
        moments = pointer_moments(profile)
        want = joint_mean_formula(0.3, 1.7, 1.1)
        for axis in (0, 1):
            assert abs(moments.mean[axis] - want) < 1e-8

    def test_grid_refinement_is_stable(self):
        pre, post = _pre_post()
        spec1 = PointerSpec.default(0.0, 1.0, 8.0, 4096)
        m1 = pointer_moments(build_pointer_profile(pre, post, ("2",), spec1))
        m2 = pointer_moments(build_pointer_profile(
            pre, post, ("2",), replace(spec1, n_points=2 * spec1.n_points)))
        assert abs(m1.mean[0] - m2.mean[0]) < 1e-8
        assert abs(m1.variance[0] - m2.variance[0]) < 1e-8
        spec2 = PointerSpec.default(0.0, 1.0, 1.0, 1024)
        j1 = pointer_moments(build_pointer_profile(pre, post, ("2", "4"), spec2))
        j2 = pointer_moments(build_pointer_profile(
            pre, post, ("2", "4"), replace(spec2, n_points=2 * spec2.n_points)))
        for axis in (0, 1):
            assert abs(j1.mean[axis] - j2.mean[axis]) < 1e-8
        assert abs(j1.success_probability - j2.success_probability) < 1e-8


class TestWeakLimitSweep:
    def test_joint_deviation_shrinks_monotonically(self):
        pre, post = _pre_post()
        rows = weak_limit_sweep(
            pre, post, ("2", "4"), 0.0, 1.0, [1, 2, 4, 8, 16, 32], n_points=1024
        )
        deviations = [row.deviation[0] for row in rows]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < 1e-3
        assert rows[-1].weakness_ratio == 1.0 / 32.0

    def test_single_photon_rows_sit_on_the_weak_value(self):
        pre, post = _pre_post()
        rows = weak_limit_sweep(
            pre, post, ("2",), 0.0, 1.0, [0.5, 1, 4, 32], n_points=1024
        )
        for row in rows:
            assert row.deviation[0] < 1e-9

    def test_degenerate_delays_have_no_deviation(self):
        pre, post = _pre_post()
        rows = weak_limit_sweep(pre, post, ("2", "4"), 1.0, 1.0, [1, 2], n_points=1024)
        for row in rows:
            assert row.weakness_ratio == 0.0
            for axis in (0, 1):
                assert row.deviation[axis] < 1e-9

    @pytest.mark.parametrize("n_points", [64, 1024, 8192])
    def test_means_are_the_analytic_moments_bit_for_bit(self, n_points):
        # A width prints the closed-form means of the terms at its width.
        rng = random.Random(f"sweep means {n_points}")
        pre = run_entanglement_swap().conditional_state()
        cases = [(0.0, 1.0, -math.atan(0.5) + 1e-7), (0.7, 0.7, 0.3), (-0.0, -0.0, 1.1)]
        while len(cases) < 5:
            gamma, epsilon, _, phi = _draw_pointer(rng)
            cases.append((gamma, epsilon, phi))
        for gamma, epsilon, phi in cases:
            post = analyzer_post_selection(phi)
            scale = abs(epsilon - gamma) or 1.0
            sigmas = sorted({scale * 2.0 ** rng.uniform(-2.0, 4.0) for _ in range(3)})
            for measured in (("2",), ("4",), ("2", "4")):
                rows = weak_limit_sweep(pre, post, measured, gamma, epsilon, sigmas, n_points)
                terms = pointer_terms(pre, post, measured, PointerSpec.default(
                    gamma, epsilon, sigmas[0], n_points))
                for row in rows:
                    spec = PointerSpec.default(gamma, epsilon, row.sigma, n_points)
                    assert _hex(row.mean) == _hex(analytic_moments(terms, spec).mean)

    def test_means_match_50_digits_on_benchmark_draws(self):
        # The independent check of the printed route: a plain delay-keyed
        # double sum of the overlaps, in 50-digit arithmetic.
        rng = random.Random("sweep 50 digits")
        pre = run_entanglement_swap().conditional_state()
        for _ in range(20):
            gamma, epsilon, sigma, phi = _draw_pointer(rng)
            post = analyzer_post_selection(phi)
            sigmas = sorted({abs(epsilon - gamma) * 2.0 ** rng.uniform(-2.0, 4.0)
                             for _ in range(6)})
            spec = PointerSpec.default(gamma, epsilon, sigmas[0])
            for measured in (("2",), ("4",), ("2", "4")):
                terms = pointer_terms(pre, post, measured, spec)
                rows = weak_limit_sweep(pre, post, measured, gamma, epsilon, sigmas, 1024)
                for row in rows:
                    _, mean, _ = _mp_moments(terms, row.sigma)
                    for got, want in zip(row.mean, mean):
                        scale = 1.0 + abs(gamma) + abs(epsilon) + row.sigma
                        assert abs(got - want) <= 1e-13 * scale, (measured, row.sigma)

    def test_sweep_validation(self):
        pre, post = _pre_post()
        with pytest.raises(GridError):
            weak_limit_sweep(pre, post, ("2",), 0.0, 1.0, [])
        with pytest.raises(GridError):
            weak_limit_sweep(pre, post, ("2",), 0.0, 1.0, [2.0, 1.0])
        with pytest.raises(GridError):
            weak_limit_sweep(pre, post, ("2",), 0.0, 1.0, [-1.0, 2.0])


def _mp_moments(terms, sigma: float):
    """Norm, means and variances of the terms' Gaussian mixture in 50-digit
    arithmetic: a pair of delay tuples a, b overlaps by the product over
    axes of exp(-(a - b)^2 / (8 sigma^2)), and its product of pointers is
    that overlap times a normal density of width sigma at (a + b) / 2."""
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma)
        norm = mpmath.mpf(0)
        first = [mpmath.mpf(0)] * len(terms[0][0])
        second = list(first)
        for di, ci in terms:
            for dj, cj in terms:
                cross = mpmath.re(mpmath.conj(mpmath.mpc(ci)) * mpmath.mpc(cj))
                a, b = [mpmath.mpf(x) for x in di], [mpmath.mpf(x) for x in dj]
                weight = cross * mpmath.fprod(
                    mpmath.exp(-((x - y) ** 2) / (8 * s * s)) for x, y in zip(a, b))
                norm += weight
                first = [f + weight * (x + y) / 2 for f, x, y in zip(first, a, b)]
                second = [f + weight * (s * s + ((x + y) / 2) ** 2)
                          for f, x, y in zip(second, a, b)]
        mean = [f / norm for f in first]
        return norm, mean, [f / norm - m * m for f, m in zip(second, mean)]


class TestNearOrthogonalAnalyzer:
    # Just off the analyzer orthogonal to the pair (tan phi = -1/2) the
    # post-selected norm is about (delta phi)^2 and the mean is large: the
    # grid route has to add delay coefficients that nearly cancel.
    @pytest.mark.parametrize("sigma", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("offset", [1e-5, 1e-6])
    def test_grid_matches_a_50_digit_closed_form(self, offset, sigma):
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(-math.atan(0.5) + offset)
        spec = PointerSpec.default(0.0, 1.0, sigma, 1024)
        for measured in (("2",), ("4",), ("2", "4")):
            profile = build_pointer_profile(pre, post, measured, spec)
            moments = pointer_moments(profile)
            norm, mean, _ = _mp_moments(profile.terms, sigma)
            assert abs(moments.success_probability - norm) <= 1e-10 * norm, measured
            for got, want in zip(moments.mean, mean):
                assert abs(got - want) <= 1e-11 * sigma, measured

    @pytest.mark.parametrize("sigma", [1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("offset", [1e-5, 1e-6, 1e-7])
    def test_closed_form_matches_a_50_digit_closed_form(self, offset, sigma):
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(-math.atan(0.5) + offset)
        spec = PointerSpec.default(0.0, 1.0, sigma)
        for measured in (("2",), ("4",), ("2", "4")):
            profile = build_pointer_profile(pre, post, measured, spec)
            norm, mean, _ = _mp_moments(profile.terms, sigma)
            if norm <= 1e-12:  # the fixed floor of ``_closed_means`` (ROADMAP item 4)
                assert (offset, sigma) == (1e-7, 1e6)
                with pytest.raises(EmptyPostSelectionError):
                    analytic_moments(profile.terms, spec)
                # The pass that refuses it still sums the norm to 1e-14.
                basis = pointer._basis_terms(profile.terms, spec)
                closed = pointer._pair_sums(basis, spec.closed_integrals, order=1)[0]
                assert abs(closed - norm) <= 1e-14 * norm, measured
                continue
            moments = analytic_moments(profile.terms, spec)
            assert abs(moments.success_probability - norm) <= 1e-14 * norm, measured
            for got, want in zip(moments.mean, mean):
                assert abs(got - want) <= 1e-14 * sigma, measured


def _mp_table(spec: PointerSpec, centre: float = 0.0, anchor: int = 0):
    """J_k(p, q) = int (t - centre)^k b_p b_q dt over the line, k = 0, 1, 2,
    with b0 at the ``anchor`` delay, in 50-digit arithmetic, and the overlap
    u.  With a and o the delays less the centre, D = o - a, m the midpoint
    and e = u - 1:
    J(0,0) = (1, a, sigma^2 + a^2),
    J(0,1) = (e, e m + D/2, e (sigma^2 + m^2) + (m - a)(m + a)),
    J(1,1) = (-2e, -2e m, -2e (sigma^2 + m^2) + D^2/2)."""
    with mpmath.workdps(50):
        delays = [mpmath.mpf(d) - mpmath.mpf(centre) for d in (spec.gamma, spec.epsilon)]
        a, o, s = delays[anchor], delays[1 - anchor], mpmath.mpf(spec.sigma)
        d = o - a
        m = a + d / 2
        e = mpmath.expm1(-d * d / (8 * s * s))
        mixed = (e, e * m + d / 2, e * (s * s + m * m) + (m - a) * (m + a))
        table = {
            (0, 0): (mpmath.mpf(1), a, s * s + a * a),
            (0, 1): mixed,
            (1, 0): mixed,
            (1, 1): (-2 * e, -2 * e * m, -2 * e * (s * s + m * m) + d * d / 2),
        }
        return table, float(e + 1)


def _table_errors(spec: PointerSpec, table, centre: float = 0.0, anchor: int = 0):
    """Each entry's distance from its line integral about ``centre`` with b0
    at the ``anchor`` delay, with the scale w (c + sigma)^k that
    ``grid_error_budget`` is relative to, c the farther delay from the centre."""
    exact, u = _mp_table(spec, centre, anchor)
    weight = (1.0, 1.0 + u, 2.0 + 2.0 * u)  # unit densities in b0 b0, b0 b1, b1 b1
    c = max(abs(spec.gamma - centre), abs(spec.epsilon - centre))
    for (p, q), sums in table.items():
        for k, value in enumerate(sums):
            yield abs(value - float(exact[p, q][k])), weight[p + q] * (c + spec.sigma) ** k


# 2 exp(-a^2/2) (1 + a^2) = 1e-9 at a = 2 pi sigma / h for h = 0.88221 sigma.
STEP_LIMIT = 0.88


@st.composite
def accepted_specs(draw):
    """Specs of at most 512 points with equal delays, or with delays as far
    apart as a drawn step of up to ``STEP_LIMIT`` sigma sets them (the
    window spans their distance and 16 sigma), either one the later."""
    n = draw(st.integers(MIN_N_POINTS, 512))
    ratio = draw(st.floats(16.0 / (n - 1), STEP_LIMIT))
    sigma = 2.0 ** draw(st.floats(-8.0, 8.0))
    gamma = draw(st.floats(-4.0, 4.0))
    delta = (ratio * (n - 1) - 16.0) * sigma
    if draw(st.booleans()):
        delta = 0.0
    if draw(st.booleans()):
        delta = -delta
    return PointerSpec(gamma, gamma + delta, sigma, n)


@st.composite
def aliased_samplings(draw):
    """Grids of at most 512 points at a step of 0.8 to ``STEP_LIMIT``
    sigma, placed anywhere around two delays within sigma of 0 with
    ``DEFAULT_PADDING`` sigma or more on each side.  The budget holds for
    any placement.  A window reaches such a step only with its delays 34
    sigma or more apart, and its step fixes where the delays fall between
    grid points, so these grids are placed by the test instead."""
    n = draw(st.integers(MIN_N_POINTS, 512))
    sigma = 2.0 ** draw(st.floats(-8.0, 8.0))
    span = (n - 1) * draw(st.floats(0.8, STEP_LIMIT)) * sigma
    gamma = draw(st.floats(-1.0, 1.0)) * sigma
    delta = 0.0 if draw(st.booleans()) else draw(st.floats(0.0, 1.0)) * (sigma - abs(gamma))
    room = span - 2.0 * pointer.DEFAULT_PADDING * sigma - delta
    t_min = gamma - pointer.DEFAULT_PADDING * sigma - draw(st.floats(0.0, 1.0)) * room
    return fsum_table.Sampling(gamma, gamma + delta, sigma, t_min, t_min + span, n)


@st.composite
def wide_specs(draw):
    """Budget-sized specs of sigma between 2^8 and 2^26, delays as in
    ``accepted_specs``."""
    sigma = 2.0 ** draw(st.floats(8.0, 26.0))
    gamma = draw(st.floats(-4.0, 4.0))
    delta = 0.0 if draw(st.booleans()) else draw(st.floats(0.0, 8.0)) * sigma
    return budget_spec(gamma, gamma + delta, sigma)


@st.composite
def mirrored_specs(draw):
    """Specs of an odd or even number of points, sigma from 2^-8 to 2^26
    and delays up to 1e6 in size, either one the later, at most as far
    apart as the points resolve."""
    n = draw(st.integers(MIN_N_POINTS, MAX_N_POINTS))
    sigma = 2.0 ** draw(st.floats(-8.0, 26.0))
    gamma = draw(st.floats(-1e6, 1e6))
    reach = (STEP_LIMIT * (n - 1) - 16.0) * sigma
    epsilon = min(1e6, max(-1e6, gamma + draw(st.floats(-1.0, 1.0)) * reach))
    return PointerSpec(gamma, epsilon, sigma, n)


class TestClosedIntegrals:
    @given(st.one_of(accepted_specs(), wide_specs()))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_entry_is_within_4_ulp_of_its_scale(self, spec):
        table = spec.closed_integrals
        want = {(0, 0)} if spec.gamma == spec.epsilon else set(product((0, 1), repeat=2))
        assert set(table) == want
        for error, scale in _table_errors(spec, table):
            assert error <= 4 * math.ulp(scale)

    @given(st.one_of(accepted_specs(), wide_specs()), st.floats(-2.0, 2.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_entry_about_a_centre_is_within_4_ulp_of_its_scale(self, spec, offset):
        # About a centre near or beyond the delays, with b0 at either one.
        middle, spread = (spec.gamma + spec.epsilon) / 2.0, spec.epsilon - spec.gamma
        centre = middle + offset * (spread + spec.sigma)
        for anchor in ((0, 1) if spec.gamma != spec.epsilon else (0,)):
            table = pointer._closed_table(spec, centre, anchor)
            for error, scale in _table_errors(spec, table, centre, anchor):
                assert error <= 4 * math.ulp(scale), (centre, anchor)

    def test_about_picks_the_nearer_delay(self):
        spec = PointerSpec.default(0.0, 1.0, 1.0)
        assert [pointer._about(spec, c)[0] for c in (-1.0, 0.0, 0.5, 0.75, 1.0, 2.0)] == [
            0, 0, 0, 1, 1, 1]
        assert pointer._about(spec, 0.0)[1] == spec.closed_integrals
        assert pointer._about(PointerSpec.default(2.0, 2.0, 3.0), 5.0) == (
            0, {(0, 0): (1.0, -3.0, 18.0)})

    def test_half_overlap_displacement(self):
        sigma = 1.7
        spec = PointerSpec.default(0.0, sigma * math.sqrt(8.0 * math.log(2.0)), sigma)
        assert abs(1.0 + spec.closed_integrals[0, 1][0] - 0.5) < 1e-15

    def test_no_displacement(self):
        assert PointerSpec.default(2.0, 2.0, 3.0).closed_integrals == {(0, 0): (1.0, 2.0, 13.0)}


class TestGridErrorBudget:
    @given(accepted_specs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_budget_bounds_every_table_entry(self, spec):
        aliasing, truncation = grid_error_budget(spec)
        for error, scale in _table_errors(spec, fsum_table.basis_integrals(spec)):
            assert error <= scale * (aliasing + truncation + 32 * sys.float_info.epsilon)

    @given(aliased_samplings())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_budget_is_tight_where_aliasing_dominates(self, spec):
        # So the budget-sized grid cannot creep up: where aliasing is far
        # above rounding, the budget overstates the worst entry at most
        # 100-fold, for a grid at any placement.
        budget = sum(grid_error_budget(spec))
        assert budget > 1e-12
        errors = _table_errors(spec, fsum_table.basis_integrals(spec))
        assert max(error / scale for error, scale in errors) >= budget / 100

    def test_step_limit_is_the_aliasing_tolerance(self):
        # 99 steps span the delays' distance and 16 sigma of padding.
        spec = PointerSpec(0.0, 0.8821 * 99 - 16.0, 1.0, 100)
        assert spec.step == pytest.approx(0.8821, rel=1e-14)
        with pytest.raises(GridError, match="^grid step 0.8823 does not resolve sigma 1: "
                                            "need step > 0 with an aliasing error of at most "
                                            r"1e-09 \(here 1.0[0-9]e-09\)$"):
            PointerSpec(0.0, 0.8823 * 99 - 16.0, 1.0, 100)


class TestGridSizing:
    @staticmethod
    def smallest(gamma: float, epsilon: float, sigma: float) -> int:
        """The budget grid's size, checked to be the smallest within budget."""
        spec = budget_spec(gamma, epsilon, sigma)
        aliasing, truncation = grid_error_budget(spec)
        assert aliasing <= truncation
        if spec.n_points > MIN_N_POINTS:
            coarser = PointerSpec.default(gamma, epsilon, sigma, spec.n_points - 1)
            aliasing, truncation = grid_error_budget(coarser)
            assert aliasing > truncation
        return spec.n_points

    def test_default_pointer_and_sweep_widths_need_64_points(self):
        assert self.smallest(0.0, 1.0, 8.0) == 64
        for multiple in DEFAULT_SWEEP_MULTIPLES:
            assert self.smallest(0.0, 1.0, multiple) == 64

    def test_benchmark_pointers_need_64_points(self):
        rng = random.Random("sizing")
        for _ in range(200):
            gamma, epsilon, sigma, _ = _draw_pointer(rng)
            assert self.smallest(gamma, epsilon, sigma) == 64

    @pytest.mark.parametrize("sigma,n_points", [(0.00025, 5246), (0.0002, 6551), (0.00016, 8184)])
    def test_strong_regime_grows_the_grid(self, sigma, n_points):
        assert self.smallest(0.0, 1.0, sigma) == n_points

    def test_no_grid_within_budget_is_an_error(self):
        # At 8192 points the step is 0.87 sigma: accepted, yet over budget.
        PointerSpec.default(0.0, 1.0, 0.00014, MAX_N_POINTS)
        with pytest.raises(GridError, match="grid error budget needs more than 8192 points"):
            budget_spec(0.0, 1.0, 0.00014)

    def test_a_pointer_no_budget_grid_resolves_prints_its_closed_form(self, capsys):
        # Refused while every run sized a grid; without one it needs none.
        assert run_cli(["run", "--scenario=pointer", "--sigma=0.00014", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "grid_points" not in payload
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(-math.pi / 4.0)
        spec = PointerSpec.default(0.0, 1.0, 0.00014)
        for name, measured in zip(("photon2", "photon4", "joint"), MEASURED_SETS):
            terms = pointer_terms(pre, post, measured, spec)
            _, mean, variance = _mp_moments(terms, 0.00014)
            block = payload[name]
            got_mean, got_variance = (
                [block[key]] if len(measured) == 1 else block[key] for key in ("mean", "variance"))
            for got, want in zip(got_mean + got_variance, mean + variance):
                assert abs(got - want) <= 1e-12 * abs(want), name

    @pytest.mark.parametrize("sigma", [0.00025, 0.0002, 0.00016])
    def test_strong_regime_moments_match_50_digits(self, sigma):
        # One displaced Gaussian per photon (variance sigma^2) and the
        # resolved branches of the pair: narrow pointers far from 0 and from
        # each other, where an uncentred variance loses ulp (1/sigma)^2.
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(-math.pi / 4.0)
        spec = budget_spec(0.0, 1.0, sigma)
        for measured in (("2",), ("4",), ("2", "4")):
            profile = build_pointer_profile(pre, post, measured, spec)
            moments = pointer_moments(profile)
            norm, mean, variance = _mp_moments(profile.terms, sigma)
            assert abs(moments.success_probability - norm) <= 1e-13 * norm, measured
            for got, want in zip(moments.mean, mean):
                assert abs(got - want) <= 1e-13 * (2.0 + sigma), measured
            for got, want in zip(moments.variance, variance):
                assert abs(got - want) <= 1e-12 * want, measured
        assert pointer_moments(build_pointer_profile(pre, post, ("2",), spec)).variance[0] == (
            pytest.approx(sigma**2, rel=1e-12, abs=0.0))

    def test_benchmark_pointers_match_50_digits(self):
        rng = random.Random(11)
        pre = run_entanglement_swap().conditional_state()
        for _ in range(40):
            gamma, epsilon, sigma, phi = _draw_pointer(rng)
            spec = budget_spec(gamma, epsilon, sigma)
            post = analyzer_post_selection(phi)
            for measured in (("2",), ("4",), ("2", "4")):
                profile = build_pointer_profile(pre, post, measured, spec)
                moments = pointer_moments(profile)
                norm, mean, variance = _mp_moments(profile.terms, sigma)
                assert abs(moments.success_probability - norm) <= 1e-13 * norm
                for got, want in zip(moments.mean, mean):
                    assert abs(got - want) <= 1e-13 * (1.0 + abs(gamma) + abs(epsilon) + sigma)
                for got, want in zip(moments.variance, variance):
                    assert abs(got - want) <= 1e-12 * want

    def test_a_sweep_without_a_grid_takes_widths_no_budget_grid_resolves(self):
        pre, post = _pre_post()
        sigmas = [0.00014, 0.00025, 1.0]
        rows = weak_limit_sweep(pre, post, ("2", "4"), 0.0, 1.0, sigmas)
        terms = pointer_terms(pre, post, ("2", "4"), PointerSpec.default(0.0, 1.0, 1.0))
        for row, sigma in zip(rows, sigmas):
            spec = PointerSpec.default(0.0, 1.0, sigma)
            assert row.mean == analytic_moments(terms, spec).mean
            _, mean, _ = _mp_moments(terms, sigma)
            for got, want in zip(row.mean, mean):
                assert abs(got - want) <= 1e-13 * (2.0 + sigma)


def _check_specs():
    """Default specs as a sweep builds them: benchmark draws at three grid
    sizes, equal delays, and grids far wider than sigma."""
    rng = random.Random("grid check")
    specs = [PointerSpec.default(0.0, 1.0, 1.0, 128), budget_spec(0.7, 0.7, 0.3),
             PointerSpec.default(1e6, 1e6 + 1.0, 1.0, 1024),
             PointerSpec.default(-1e12, -1e12 + 3.0, 2.0, 64),
             PointerSpec.default(-1e150, 1e150, 1e149, 4096),
             budget_spec(0.0, 1.0, 0.00025)]
    for n_points in (64, 1024, MAX_N_POINTS):
        for _ in range(10):
            gamma, epsilon, sigma, _ = _draw_pointer(rng)
            specs.append(PointerSpec.default(gamma, epsilon, sigma, n_points))
    return specs


def _difference_basis_table(spec: PointerSpec):
    """The reference for the first-order grid table: b1 = f_epsilon -
    f_gamma formed from normalised samples of both pointers at the grid
    times, then each product of basis functions summed over t."""
    t, h = fsum_table.grid(spec), spec.step
    early = fsum_table.gaussian_amplitude(t, spec.gamma, spec.sigma)
    basis = [early]
    if spec.epsilon != spec.gamma:
        late = fsum_table.gaussian_amplitude(t, spec.epsilon, spec.sigma)
        basis.append(list(map(sub, late, early)))
    table = {}
    for p, q in combinations_with_replacement(range(len(basis)), 2):
        y = list(map(mul, basis[p], basis[q]))
        table[p, q] = table[q, p] = (
            h * (sum(y) - (y[0] + y[-1]) / 2.0),
            h * (sum(map(mul, t, y)) - (t[0] * y[0] + t[-1] * y[-1]) / 2.0))
    return table


def _fsum_reference(spec: PointerSpec, centre: float, anchor: int):
    """The exactly summed table (``fsum_table``) about ``centre`` with b0 at
    the ``anchor`` delay: that of the spec shifted by the centre, its
    delays swapped when b0 is at epsilon."""
    delays = (spec.gamma - centre, spec.epsilon - centre)
    return fsum_table.basis_integrals(fsum_table.Sampling(
        delays[anchor], delays[1 - anchor], spec.sigma,
        spec.t_min - centre, spec.t_max - centre, spec.n_points))


def _sampled_sums(spec: PointerSpec, order: int):
    """``pointer._grid_sums`` with f_epsilon sampled on the index ramp in
    its own right rather than mirrored from f_gamma."""
    squares = pointer._index_squares(spec.n_points) if order == 2 else None
    ramps = [pointer._ramp_gaussian(spec, d) for d in dict.fromkeys((spec.gamma, spec.epsilon))]
    return {(p, q): pointer._trapezoid_sums(list(map(mul, ramps[p], ramps[q])), squares)
            for p, q in combinations_with_replacement(range(len(ramps)), 2)}


def _frames(spec: PointerSpec):
    """Centres and anchors to check a table about: 0 with b0 at gamma, as
    the means read it, and the delays' midpoint with b0 at either delay."""
    middle = (spec.gamma + spec.epsilon) / 2.0
    return [(0.0, 0), (middle, 0)] + ([(middle, 1)] if spec.gamma != spec.epsilon else [])


def _scales(spec: PointerSpec, centre: float = 0.0, order: int = 1):
    """(p, q, k) and the ``grid_error_budget`` scale w (c + sigma)^k of the
    entry about ``centre``, c the farther delay from the centre."""
    overlap = 1.0 + spec.closed_integrals[0, 1][0] if spec.gamma != spec.epsilon else 1.0
    weight = (1.0, 1.0 + overlap, 2.0 + 2.0 * overlap)
    c = max(abs(spec.gamma - centre), abs(spec.epsilon - centre)) + spec.sigma
    for p, q in spec.closed_integrals:
        for k in range(order + 1):
            yield (p, q, k), weight[p + q] * c ** k


def _rounding_scales(spec: PointerSpec, centre: float = 0.0, order: int = 1):
    """(p, q, k) and the entry's scale times the check's rounding term."""
    for key, scale in _scales(spec, centre, order):
        yield key, scale * pointer._grid_rounding(spec)


def _check_bounds(spec: PointerSpec, centre: float = 0.0, order: int = 1):
    """(p, q, k) -> how far the grid check lets the entry about ``centre``
    lie from its closed form: its scale times aliasing + truncation +
    rounding."""
    tolerance = sum(grid_error_budget(spec)) + pointer._grid_rounding(spec)
    return {key: scale * tolerance for key, scale in _scales(spec, centre, order)}


def _shifted_entry(monkeypatch, p: int, q: int, k: int, shift: float) -> None:
    """Add ``shift`` to entry J_k(p, q) of every closed-form table."""
    closed = pointer._closed_table

    def shifted(spec, centre, anchor):
        table = dict(closed(spec, centre, anchor))
        row = list(table[p, q])
        row[k] += shift
        table[p, q] = table[q, p] = tuple(row)
        return table

    monkeypatch.setattr(pointer, "_closed_table", shifted)


class TestGridCheck:
    """Every printed pointer and sweep moment reads closed-form tables,
    which the spec's grid checks entry by entry: a sweep width the
    first-order table its means read, a pointer that and, about each
    mean, the second-order table its variance reads."""

    @pytest.mark.parametrize("scenario,entry,sigma", [
        *(("pointer-sweep", entry, 1.0) for entry in [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]),
        *(("pointer", entry, 1.0) for entry in [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
            (1, 1, 0), (1, 1, 1), (1, 1, 2)]),
        # The weak regime, where the four sums that make up b1 b1 cancel most.
        ("pointer-sweep", (1, 1, 0), 1e4), ("pointer-sweep", (1, 1, 1), 1e4),
        ("pointer", (1, 1, 0), 1e4), ("pointer", (1, 1, 1), 1e4), ("pointer", (1, 1, 2), 1e4)])
    def test_a_shifted_closed_form_entry_exits_2(self, monkeypatch, capsys, scenario, entry,
                                                 sigma):
        p, q, k = entry
        argv = ["run", f"--scenario={scenario}", "--grid-points=128"]
        if sigma != 1.0:
            argv.append(f"--sweep=sigma={sigma:g}" if scenario == "pointer-sweep"
                        else f"--sigma={sigma:g}")
        elif scenario == "pointer":
            argv.append("--sigma=1")
        assert run_cli(argv) == 0
        capsys.readouterr()
        spec = PointerSpec.default(0.0, 1.0, sigma, 128)
        where, bounds = "", _check_bounds(spec)
        if k == 2:  # checked about photon 2's mean, the first variance read
            pre, post = _pre_post()
            centre = analytic_moments(pointer_terms(pre, post, ("2",), spec), spec).mean[0]
            where, bounds = f" about {centre:g}", _check_bounds(spec, centre, 2)
        shift = 1e-6 * sigma**k if k == 2 else 1e-6
        _shifted_entry(monkeypatch, p, q, k, shift)
        assert run_cli(argv) == 2
        bound = bounds[p, q, k]
        assert 0.0 < bound < 1e-9 * sigma**k
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: domain: grid check failed at sigma {sigma:g}: J{k}({p}, {q})"
                       f"{where} is off its closed form by {shift:.3g}, above its bound "
                       f"{bound:.3g}\n")

    @pytest.mark.parametrize("spec", [
        *_check_specs(), PointerSpec.default(2.0, 0.5, 1.0, 129),
        PointerSpec.default(1e6, 1e6 - 3.0, 2.0, 1025)])
    def test_mirrored_and_sampled_late_pointers_agree(self, spec):
        mirrored = pointer._grid_sums(spec, 2)
        sampled = _sampled_sums(spec, 2)
        assert set(mirrored) == set(sampled)
        for centre, anchor in _frames(spec):
            got = pointer._grid_table(spec, mirrored, centre, anchor)
            want = pointer._grid_table(spec, sampled, centre, anchor)
            for (p, q, k), bound in _rounding_scales(spec, centre, 2):
                if p <= q:
                    assert abs(got[p, q][k] - want[p, q][k]) <= bound, (centre, anchor, p, q, k)

    @given(mirrored_specs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_window_is_symmetric_about_the_delays_midpoint(self, spec):
        # The mirror f_epsilon(t_i) = f_gamma(t_(N-1-i)) holds while t_min +
        # t_max is gamma + epsilon, to the position error of 4 eps T that
        # ``_grid_rounding`` allows, T the larger end.
        asymmetry = (spec.t_min + spec.t_max) - (spec.gamma + spec.epsilon)
        extent = max(abs(spec.t_min), abs(spec.t_max))
        assert abs(asymmetry) <= 4.0 * sys.float_info.epsilon * extent

    @staticmethod
    def assert_matches_the_difference_basis(spec):
        got = pointer._grid_table(spec, pointer._grid_sums(spec, 1), 0.0, 0)
        want = _difference_basis_table(spec)
        assert set(got) == {key for key in want if key[0] <= key[1]}
        for (p, q, k), bound in _rounding_scales(spec):
            if p <= q:
                assert abs(got[p, q][k] - want[p, q][k]) <= bound, (p, q, k)

    @staticmethod
    def assert_matches_the_fsum_table(spec):
        sums = pointer._grid_sums(spec, 2)
        for centre, anchor in _frames(spec):
            got = pointer._grid_table(spec, sums, centre, anchor)
            want = _fsum_reference(spec, centre, anchor)
            for (p, q, k), bound in _rounding_scales(spec, centre, 2):
                if p <= q:
                    assert abs(got[p, q][k] - want[p, q][k]) <= bound, (centre, anchor, p, q, k)

    @pytest.mark.parametrize("spec", [
        *_check_specs(),
        # Odd sizes put the mirror's middle point on the grid; gamma > epsilon.
        PointerSpec.default(0.0, 1.0, 1.0, 129), PointerSpec.default(1e6, 1e6 - 3.0, 2.0, 1025),
        PointerSpec.default(2.0, 0.5, 1.0, 65)])
    def test_sweep_grids_match_the_difference_basis(self, spec):
        self.assert_matches_the_difference_basis(spec)

    @given(st.one_of(accepted_specs(), wide_specs()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_accepted_grids_match_the_difference_basis(self, spec):
        self.assert_matches_the_difference_basis(spec)

    @pytest.mark.parametrize("spec", [
        *_check_specs(), PointerSpec.default(0.0, 1.0, 1.0, 129),
        PointerSpec.default(1e6, 1e6 - 3.0, 2.0, 1025), PointerSpec.default(2.0, 0.5, 1.0, 65)])
    def test_second_order_grids_match_the_fsum_table(self, spec):
        self.assert_matches_the_fsum_table(spec)

    @given(st.one_of(accepted_specs(), wide_specs()))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_accepted_second_order_grids_match_the_fsum_table(self, spec):
        self.assert_matches_the_fsum_table(spec)

    @pytest.mark.parametrize("spec", _check_specs())
    def test_every_sweep_grid_passes_with_room(self, spec):
        # The bound holds the grid's actual residual with a wide margin, so
        # rounding does not refuse a grid the budget admits.  At second
        # order the padding's truncation takes up to half of it.
        sums = pointer._grid_sums(spec, 2)
        for centre, anchor in _frames(spec):
            closed = pointer._closed_table(spec, centre, anchor)
            grid = pointer._grid_table(spec, sums, centre, anchor)
            for (p, q, k), bound in _check_bounds(spec, centre, 2).items():
                if p <= q:
                    room = 4 if k < 2 else 2
                    assert abs(grid[p, q][k] - closed[p, q][k]) <= bound / room, (p, q, k)

    @given(st.one_of(accepted_specs(), wide_specs()), st.floats(-1.0, 2.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_no_accepted_spec_is_refused(self, spec, offset):
        pointer._GridCheck(spec, 1)  # a sweep width's check
        check = pointer._GridCheck(spec, 2)  # a pointer's, the first-order table too
        centre = spec.gamma + offset * (spec.epsilon - spec.gamma + spec.sigma)
        for c in (spec.gamma, spec.epsilon, centre):
            check.check(c)

    @staticmethod
    def record_checks(monkeypatch) -> list[tuple]:
        """Record, in order, each closed-form means pass (``_closed_means``),
        each sampling (``_grid_sums``) and each table checked on a grid."""
        events = []
        means, sums, check = pointer._closed_means, pointer._grid_sums, pointer._GridCheck.check

        def recording_means(basis, spec):
            events.append(("means",))
            return means(basis, spec)

        def recording_sums(spec, order):
            events.append(("sampling", spec, order))
            return sums(spec, order)

        def recording_check(self, centre=None):
            events.append(("check", self.spec, centre))
            return check(self, centre)

        monkeypatch.setattr(pointer, "_closed_means", recording_means)
        monkeypatch.setattr(pointer, "_grid_sums", recording_sums)
        monkeypatch.setattr(pointer._GridCheck, "check", recording_check)
        return events

    def test_every_width_is_checked_on_its_grid(self, monkeypatch):
        events = self.record_checks(monkeypatch)
        pre, post = _pre_post()
        weak_limit_sweep(pre, post, ("2", "4"), 0.0, 1.0, [0.00025, 1.0, 2.0])
        assert events == [("means",)] * 3  # no grid, no check
        events.clear()
        weak_limit_sweep(pre, post, ("2", "4"), 0.0, 1.0, [1.0, 2.0], n_points=96)
        # Each width's means, then its first-order table on its own grid.
        specs = [PointerSpec.default(0.0, 1.0, s, 96) for s in (1.0, 2.0)]
        assert events == [event for spec in specs for event in (
            ("means",), ("sampling", spec, 1), ("check", spec, None))]

    def test_every_pointer_table_is_checked_on_its_grid(self, monkeypatch, capsys):
        events = self.record_checks(monkeypatch)
        assert run_cli(["run", "--scenario=pointer", "--grid-points=96"]) == 0
        capsys.readouterr()
        got = events.copy()
        # Each profile's closed-form means come first.  The first profile's
        # check samples the spec once for all three and checks the means'
        # table; each profile then checks the table about each of its
        # distinct means.
        spec = PointerSpec.default(0.0, 1.0, 8.0, 96)
        pre = run_entanglement_swap().conditional_state()
        profiles = pointer.pointer_profiles(
            pre, analyzer_post_selection(-math.pi / 4.0), MEASURED_SETS, spec)
        want = []
        for profile in profiles:
            want.append(("means",))
            if len(want) == 1:
                want += [("sampling", spec, 2), ("check", spec, None)]
            mean = analytic_moments(profile.terms, spec).mean
            want += [("check", spec, centre) for centre in dict.fromkeys(mean)]
        assert len({event for event in want if event[0] == "check"}) > 2
        assert got == want

    @pytest.mark.parametrize("n_points", [None, 256])
    def test_an_empty_post_selection_reads_alike_with_or_without_a_grid(self, n_points):
        # A vanishing norm is a closed-form fact: a grid does not change
        # its message, for a pointer or for a sweep.
        pre = run_entanglement_swap().conditional_state()
        post = analyzer_post_selection(-math.atan(0.5) + 1e-7)
        spec = PointerSpec.default(0.0, 1.0, 1e6, n_points)
        for measured in MEASURED_SETS:
            with pytest.raises(EmptyPostSelectionError,
                               match="^post-selected pointer norm vanishes$"):
                pointer_moments(build_pointer_profile(pre, post, measured, spec))
            with pytest.raises(EmptyPostSelectionError,
                               match="^post-selected pointer norm vanishes$"):
                weak_limit_sweep(pre, post, measured, 0.0, 1.0, [1e6], n_points)


def _corpus_configs():
    """The checked config of every ``pointer`` and ``pointer-sweep`` argv
    of the byte corpus that exits 0, read from the root of the checkout."""
    configs = []
    for entry in json.loads(CORPUS.read_text()):
        if entry["exit"] != 0:
            continue
        try:
            config = assemble_config(entry["argv"])
        except HelpRequested:
            continue
        if config.scenario in POINTER_SCENARIOS:
            configs.append(config)
    return configs


def test_every_corpus_pointer_passes_the_grid_check_on_its_budget_grid(monkeypatch):
    # A run without --grid-points samples no grid: the tests run its check
    # on the grid such a run once sized, for every spec its report reads.
    monkeypatch.chdir(ROOT)
    configs = _corpus_configs()
    counts = {scenario: 0 for scenario in POINTER_SCENARIOS}
    for config in configs:
        counts[config.scenario] += budget_grid.check_on_budget_grids(config)
    # pointer-dense and the pointer goldens and edges; six widths for each
    # sweep-cached argv, golden and edge.
    assert counts["pointer"] >= 200 and counts["pointer-sweep"] >= 6 * 40, counts

