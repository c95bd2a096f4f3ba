"""Finite-strength Gaussian arrival-time pointer for post-selected photons.

The pointer wavefunction is f(t) = (2 pi sigma^2)^(-1/4) exp(-t^2/(4 sigma^2)),
so |f|^2 is a normal density of standard deviation sigma and two pointers
displaced by delta overlap by exp(-delta^2 / (8 sigma^2)).  A measured
photon shifts its pointer by gamma when it is H and by epsilon when it is
V; post-selection leaves a small coherent mixture of shifted Gaussians
whose moments interpolate between the strong regime and the weak values.
``pointer_profiles`` gives the levels of one label walk their delays: a
coefficient per tuple of measured delays, summing to <post|pre>; a ``pointer``
request walks once for photon 2, photon 4 and the pair.  The weak values
are read off the same sigma-free terms (``weak_prediction``).

Both routes to every moment write the terms in the difference basis
b0 = f_gamma, b1 = f_epsilon - f_gamma and run one loop over pairs of
terms, which factorises over the axes.  They differ only in the spec's
table of one-axis integrals of b_p b_q: in closed form, or by the
trapezoid rule on the grid.  Near an orthogonal post-selection the delay
coefficients nearly cancel: the basis adds them before any integral
enters, where f_gamma f_epsilon products would cancel large integrals.

The routes are forked until ROADMAP item 3 centres the moments.  A
``pointer`` report prints its grid moments, nine exactly rounded sums
per spec (three at equal delays), because the uncentred closed-form
variance loses more digits than the grid in the strong regime.  A sweep
width prints its means from the closed form and checks its grid against
it: ``_first_order_grid_table`` samples f_gamma once on a cached index
ramp and fills int and int t of each b_p b_q in plain sums, by linearity
from f_gamma^2, f_gamma f_epsilon and f_epsilon^2 and, on every default
grid, by the mirror f_epsilon(t_i) = f_gamma(t_(N-1-i)).  ``_check_grid``
refuses the width (``GridError``) when an entry is off its closed form by
more than its budget plus a rounding term of 4 eps (N + T/sigma).

The trapezoid rule converges exponentially on a Gaussian, and
``grid_error_budget`` bounds its error by aliasing from the step plus
truncation at the padding.  A spec that aliases more than
``ALIASING_TOLERANCE`` is refused, and a default grid is the smallest
that aliases no more than it truncates.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, count, islice, product
from operator import mul, sub
from typing import Sequence

from .states import StateVector
from .weakvalues import coefficient_weak_value, level_coefficients, polarization_delays

DEFAULT_PADDING = 8.0
MIN_N_POINTS = 64
MAX_N_POINTS = 8192
MIN_PADDING = 6.0
# The most aliasing any grid may carry: the accuracy PointerProfile promises.
ALIASING_TOLERANCE = 1e-9
_EMPTY_ON_GRID = "post-selected pointer norm vanishes on grid"


class GridError(ValueError):
    """The sampling grid cannot support the requested pointer."""


class EmptyPostSelectionError(ValueError):
    """No amplitude survived post-selection; moments are undefined."""


@dataclass(frozen=True)
class PointerSpec:
    """Delays, pointer width, and the sampling grid used per time axis."""

    gamma: float
    epsilon: float
    sigma: float
    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self) -> None:
        for name in ("gamma", "epsilon", "sigma"):
            _require_finite(self, name)
        if self.sigma <= 0.0:
            raise GridError("sigma must be positive")
        if self.n_points < MIN_N_POINTS:
            raise GridError(f"need at least {MIN_N_POINTS} grid points")
        if self.n_points > MAX_N_POINTS:
            raise GridError(f"need at most {MAX_N_POINTS} grid points")
        lo = min(self.gamma, self.epsilon) - MIN_PADDING * self.sigma
        hi = max(self.gamma, self.epsilon) + MIN_PADDING * self.sigma
        if self.t_min > lo or self.t_max < hi:
            raise GridError(
                f"grid [{self.t_min}, {self.t_max}] narrower than required "
                f"[{lo}, {hi}]"
            )
        # The step must keep the aliasing within its tolerance (about
        # step <= 0.88 sigma), and sigma**2 must not underflow (gamma ==
        # epsilon passes the step test).  An infinite grid end fails here; a
        # nan one passes every comparison and is named below.
        step = self.step
        tiny = sys.float_info.min
        aliasing = math.inf if step <= 0.0 else _aliasing(step / self.sigma)
        if aliasing > ALIASING_TOLERANCE or self.sigma * self.sigma < tiny:
            raise GridError(
                f"grid step {step:g} does not resolve sigma {self.sigma:g}: "
                f"need step > 0 with an aliasing error of at most "
                f"{ALIASING_TOLERANCE:g} (here {aliasing:.3g}) and "
                f"sigma**2 >= {tiny:g}"
            )
        for name in ("t_min", "t_max"):
            _require_finite(self, name)
        # Second moments add squared grid times, which must stay finite.
        if not math.isfinite(2.0 * max(t * t for t in (self.t_min, self.t_max))):
            raise GridError(f"grid [{self.t_min:g}, {self.t_max:g}] is too wide: "
                            "its squared extent overflows")

    @classmethod
    def default(
        cls,
        gamma: float = 0.0,
        epsilon: float = 1.0,
        sigma: float = 8.0,
        n_points: int | None = None,
    ) -> PointerSpec:
        """The grid padded by ``DEFAULT_PADDING`` sigma beyond both delays.

        Without ``n_points`` it has the fewest points, at least
        ``MIN_N_POINTS``, whose aliasing is no larger than its truncation.
        """
        lo = min(gamma, epsilon) - DEFAULT_PADDING * sigma
        hi = max(gamma, epsilon) + DEFAULT_PADDING * sigma
        if n_points is not None:
            return cls(gamma, epsilon, sigma, lo, hi, n_points)
        try:  # names a bad input before any budget is evaluated
            spec = cls(gamma, epsilon, sigma, lo, hi, MIN_N_POINTS)
        except GridError:  # a bad input, or a step that aliases at 64 points
            spec = cls(gamma, epsilon, sigma, lo, hi, MAX_N_POINTS)
        padding = spec.padding / sigma

        def budget(n: int) -> tuple[float, float]:
            return _budget((hi - lo) / (n - 1) / sigma, padding)

        def within(n: int) -> bool:
            aliasing, truncation = budget(n)
            return aliasing <= truncation

        if spec.n_points == MIN_N_POINTS and within(MIN_N_POINTS):
            return spec
        sizes = range(MIN_N_POINTS, MAX_N_POINTS + 1)
        index = bisect_left(sizes, True, key=within)
        if index == len(sizes):
            aliasing, truncation = budget(MAX_N_POINTS)
            raise GridError(
                f"grid error budget needs more than {MAX_N_POINTS} points for "
                f"sigma {sigma:g}: at {MAX_N_POINTS} the aliasing {aliasing:.3g} "
                f"exceeds the truncation {truncation:.3g} of the padding"
            )
        return replace(spec, n_points=sizes[index])

    @property
    def weakness_ratio(self) -> float:
        return abs(self.epsilon - self.gamma) / self.sigma

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    @property
    def padding(self) -> float:
        """The grid's extent beyond the nearer delay, on its narrower side."""
        return min(min(self.gamma, self.epsilon) - self.t_min,
                   self.t_max - max(self.gamma, self.epsilon))

    def grid(self) -> list[float]:
        """``numpy.linspace(t_min, t_max, n_points)`` bit for bit."""
        step, t_min = self.step, self.t_min
        # Float indices (exact below 2**53) multiply as the ints would.
        indices = islice(count(0.0, 1.0), self.n_points - 1)
        return [i * step + t_min for i in indices] + [self.t_max]

    @cached_property
    def quadrature(self) -> tuple[list[float], list[float]]:
        """The grid t and its trapezoid weights w: fsum(w * y) integrates y."""
        t = self.grid()
        w = [(t[1] - t[0]) * 0.5, *[(b - a) * 0.5 for a, b in zip(t, t[2:])],
             (t[-1] - t[-2]) * 0.5]
        return t, w

    @cached_property
    def samples(self) -> dict[float, list[float]]:
        """The pointer amplitude on the grid, once per distinct delay."""
        t = self.quadrature[0]
        return {d: gaussian_amplitude(t, d, self.sigma)
                for d in dict.fromkeys((self.gamma, self.epsilon))}

    @cached_property
    def basis_integrals(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        """The table ``pointer_moments`` reads: ``_grid_integrals`` of b_p b_q
        per pair of basis indices, nine exact sums, or three when the delays
        are equal.

        b0 = f_gamma and, unless the delays are equal, b1 = f_epsilon - f_gamma.
        """
        f = self.samples
        basis = [f[self.gamma]]
        if self.epsilon != self.gamma:
            basis.append(list(map(sub, f[self.epsilon], f[self.gamma])))
        table = {}
        for p, q in combinations_with_replacement(range(len(basis)), 2):
            table[p, q] = table[q, p] = _grid_integrals(self, list(map(mul, basis[p], basis[q])))
        return table

    @cached_property
    def closed_integrals(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        """``basis_integrals`` over the whole line, in closed form free of
        cancellation.  With D = epsilon - gamma, midpoint m and
        e = expm1(-D^2/(8 sigma^2)), J(0,1) = (e, e m + D/2, e (sigma^2 + m^2)
        + (m - gamma)(m + gamma)) and J(1,1) = (-2e, -2e m, -2e (sigma^2 + m^2)
        + D^2/2)."""
        g, s2 = self.gamma, self.sigma * self.sigma
        table = {(0, 0): (1.0, g, s2 + g * g)}
        if self.epsilon != g:
            d, m = self.epsilon - g, (g + self.epsilon) / 2.0
            e = math.expm1(-(d * d) / (8.0 * s2))
            table[0, 1] = table[1, 0] = (e, e * m + d / 2.0,
                                         e * (s2 + m * m) + (m - g) * (m + g))
            table[1, 1] = (-2.0 * e, -2.0 * e * m, -2.0 * e * (s2 + m * m) + d * d / 2.0)
        return table


def _require_finite(spec: PointerSpec, name: str) -> None:
    value = getattr(spec, name)
    if not math.isfinite(value):
        raise GridError(f"{name} must be finite, got {value}")


def _budget(step_ratio: float, padding: float) -> tuple[float, float]:
    """``grid_error_budget`` at a step of ``step_ratio`` sigma and a padding
    of ``padding`` sigma."""
    tail = math.exp(-padding * padding / 2.0) / math.sqrt(2.0 * math.pi)
    truncation = (math.erfc(padding / math.sqrt(2.0))
                  + (2.0 + step_ratio * padding) * padding * tail)
    return _aliasing(step_ratio), truncation


def _aliasing(step_ratio: float) -> float:
    a2 = (2.0 * math.pi / step_ratio) ** 2
    return 2.0 * math.exp(-a2 / 2.0) * (1.0 + a2)


def grid_error_budget(spec: PointerSpec) -> tuple[float, float]:
    """The trapezoid error of the spec's grid: (aliasing, truncation).

    Each ``basis_integrals`` entry J_k(p, q), k = 0, 1, 2, integrates t^k
    against w unit normal densities of width sigma centred between the
    delays: w = 1 for b0 b0, 1 + u for b0 b1 and 2 + 2u for b1 b1, with u
    the overlap.  Its grid value lies within w (c + sigma)^k (aliasing +
    truncation) of the exact one, c = max(|gamma|, |epsilon|), rounding
    aside.  At step h and a = 2 pi sigma / h, aliasing is the leading
    Poisson-summation term 2 exp(-a^2/2) times the 1 + a^2 that t^2 brings
    to it.  Truncation is what the grid leaves out beyond its padding
    p sigma: the two tails of t^2 under the density, erfc(p/sqrt 2) +
    2 p phi(p), and the half-weighted end points, (h/sigma) p^2 phi(p),
    with phi the standard normal density.  See Trefethen & Weideman, SIAM
    Review 56, 385 (2014).
    """
    return _budget(spec.step / spec.sigma, spec.padding / spec.sigma)


def gaussian_amplitude(t: Sequence[float], center: float, sigma: float) -> list[float]:
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.25)
    scale = -4.0 * sigma * sigma  # d * d / scale rounds as -(d * d) / (4 sigma^2)
    return [norm * math.exp((d := x - center) * d / scale) for x in t]


def _grid_integrals(spec: PointerSpec, y: list[float]) -> tuple[float, float, float]:
    """Trapezoidal int y, int t y and int t^2 y on the spec's grid, each an
    exactly rounded sum.

    The weights multiply last: w * t^2 would overflow on grids whose
    squared extent is finite but close to the largest float.
    """
    t, w = spec.quadrature
    ty = list(map(mul, t, y))
    return (math.fsum(map(mul, w, y)), math.fsum(map(mul, w, ty)),
            math.fsum(map(mul, w, map(mul, t, ty))))


@lru_cache(maxsize=4)  # bounded: a process may meet every size up to MAX_N_POINTS
def _index_ramp(n_points: int) -> tuple[float, ...]:
    """0.0, 1.0, ..., n_points - 1: float indices, exact below 2**53."""
    return tuple(map(float, range(n_points)))


def _ramp_gaussian(spec: PointerSpec, center: float) -> list[float]:
    """exp(-(t_i - center)^2 / (4 sigma^2)) at t_i = t_min + i h: the
    pointer at ``center`` on the spec's grid, without its norm."""
    h, a, k = spec.step, spec.t_min - center, -0.25 / (spec.sigma * spec.sigma)
    return [math.exp(k * (x := i * h + a) * x) for i in _index_ramp(spec.n_points)]


def _trapezoid_sums(y: list[float], ramp: tuple[float, ...]) -> tuple[float, float]:
    """sum w_i y_i and sum w_i i y_i, with the trapezoid's half end weights."""
    return (sum(y) - (y[0] + y[-1]) / 2.0,
            sum(map(mul, ramp, y)) - ramp[-1] / 2.0 * y[-1])


def _first_order_grid_table(spec: PointerSpec) -> dict[tuple[int, int], tuple[float, float]]:
    """int b_p b_q and int t b_p b_q on the spec's grid, for ``_check_grid``.

    One sampling of f_gamma on the index ramp fills all six entries.  The
    trapezoid rule at the uniform step h takes, for each product y of
    f_gamma and f_epsilon, S = sum w y and I = sum w i y in plain sums,
    with int y = H S and int t y = H (t_min S + h I), H = h (2 pi
    sigma^2)^(-1/2) applied once.  The difference basis follows by
    linearity: b0 b1 = f_gamma f_epsilon - f_gamma^2 and b1 b1 = f_epsilon^2
    - 2 f_gamma f_epsilon + f_gamma^2.  On a grid symmetric about the
    delays' midpoint (``_is_mirrored``: every ``PointerSpec.default`` grid)
    f_epsilon is f_gamma reversed: f_epsilon^2 has the sums S and (N - 1) S
    - I of f_gamma^2, and f_gamma f_epsilon, itself symmetric, is summed
    over half the grid with I = (N - 1) S / 2.  Other grids sample
    f_epsilon too.
    """
    ramp, h, t_min = _index_ramp(spec.n_points), spec.step, spec.t_min
    early = _ramp_gaussian(spec, spec.gamma)
    s00, i00 = _trapezoid_sums(list(map(mul, early, early)), ramp)
    sums = {(0, 0): (s00, i00)}
    if spec.epsilon != spec.gamma:
        if _is_mirrored(spec):
            half = len(early) // 2
            middle = early[half] * early[half] if len(early) % 2 else 0.0
            cross = (2.0 * sum(map(mul, islice(early, half), reversed(early))) + middle
                     - early[0] * early[-1])
            i_cross, s_late, i_late = ramp[-1] / 2.0 * cross, s00, ramp[-1] * s00 - i00
        else:
            late = _ramp_gaussian(spec, spec.epsilon)
            cross, i_cross = _trapezoid_sums(list(map(mul, early, late)), ramp)
            s_late, i_late = _trapezoid_sums(list(map(mul, late, late)), ramp)
        sums[0, 1] = (cross - s00, i_cross - i00)
        sums[1, 1] = (s_late - 2.0 * cross + s00, i_late - 2.0 * i_cross + i00)
    scale = h / (math.sqrt(2.0 * math.pi) * spec.sigma)
    table = {}
    for (p, q), (s, i) in sums.items():
        table[p, q] = table[q, p] = (scale * s, scale * (t_min * s + h * i))
    return table


def _extent(spec: PointerSpec) -> float:
    return max(abs(spec.t_min), abs(spec.t_max))


def _is_mirrored(spec: PointerSpec) -> bool:
    """Whether t_min + t_max is the delays' sum within 4 ulps of the grid's
    extent T = max(|t_min|, |t_max|); every default grid is, within 3."""
    asymmetry = (spec.t_min + spec.t_max) - (spec.gamma + spec.epsilon)
    return abs(asymmetry) <= 4.0 * sys.float_info.epsilon * _extent(spec)


def _grid_rounding(spec: PointerSpec) -> float:
    """The check's rounding term, relative to the ``grid_error_budget``
    scale: 4 eps (N + T / sigma).

    4 eps N covers the plain sums: at most N ulps for each sum of a
    unit-mass Gaussian product, and b1 b1 combines four of them (f_epsilon^2
    - 2 f_gamma f_epsilon + f_gamma^2), which cancel in the weak regime but
    fit under its weight 2 + 2u.  4 eps T / sigma covers, per sigma of
    extent, the position errors of the ramp times t_min + i h, of t_min S
    + h I, and of the mirror, each of which shifts a Gaussian by a
    fraction of sigma."""
    return 4.0 * sys.float_info.epsilon * (spec.n_points + _extent(spec) / spec.sigma)


def _grid_check_bounds(spec: PointerSpec) -> dict[tuple[int, int], tuple[float, float]]:
    """How far each entry J_k(p, q), k = 0, 1, p <= q, of the first-order
    grid table may lie from its closed form: w (c + sigma)^k, the
    ``grid_error_budget`` scale, times aliasing + truncation +
    ``_grid_rounding``."""
    closed = spec.closed_integrals
    overlap = 1.0 + closed[0, 1][0] if (0, 1) in closed else 1.0
    weight = (1.0, 1.0 + overlap, 2.0 + 2.0 * overlap)  # b0 b0, b0 b1, b1 b1
    allowed = sum(grid_error_budget(spec)) + _grid_rounding(spec)
    scale = max(abs(spec.gamma), abs(spec.epsilon)) + spec.sigma
    return {(p, q): (weight[p + q] * allowed, weight[p + q] * scale * allowed)
            for p, q in closed if p <= q}


def _check_grid(spec: PointerSpec) -> None:
    """Refuse the spec (``GridError``) if an entry of its first-order grid
    table is off its closed form by more than ``_grid_check_bounds``."""
    closed, grid = spec.closed_integrals, _first_order_grid_table(spec)
    for (p, q), bounds in _grid_check_bounds(spec).items():
        for k, (value, bound) in enumerate(zip(grid[p, q], bounds)):
            residual = abs(value - closed[p, q][k])
            if not residual <= bound:
                raise GridError(
                    f"grid check failed at sigma {spec.sigma:g}: J{k}({p}, {q}) is "
                    f"off its closed form by {residual:.3g}, above its bound {bound:.3g}")


@dataclass(frozen=True)
class PointerProfile:
    """Post-selected pointer on a spec: its mixture and closed-form norm.

    ``terms`` holds per measured axis a delay, with a complex coefficient
    each; they do not depend on sigma, so any width of the same delays may
    share them.  ``success_probability`` is the closed-form squared norm,
    summed when first read.  Every grid integral lies within the spec's
    ``grid_error_budget`` of its closed form.
    """

    spec: PointerSpec
    measured: tuple[str, ...]
    terms: tuple[tuple[tuple[float, ...], complex], ...]

    @cached_property
    def success_probability(self) -> float:
        return _pair_sums(_basis_terms(self.terms, self.spec), self.spec.closed_integrals)[0]


@dataclass(frozen=True)
class PointerMoments:
    mean: tuple[float, ...]
    variance: tuple[float, ...]
    success_probability: float


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    weakness_ratio: float
    mean: tuple[float, ...]
    deviation: tuple[float, ...]
    n_points: int


def pointer_terms(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    spec: PointerSpec,
) -> tuple[tuple[tuple[float, ...], complex], ...]:
    """Collapse unmeasured photons: coefficient per measured-delay tuple."""
    return pointer_profiles(pre, post, (measured,), spec)[0].terms


def pointer_profiles(
    pre: StateVector,
    post: StateVector,
    measured_sets: Sequence[Sequence[str]],
    spec: PointerSpec,
) -> list[PointerProfile]:
    """``build_pointer_profile`` for each measured tuple, from one walk over
    the labels (``level_coefficients``): each level becomes its delay."""
    tables = level_coefficients(pre, post, measured_sets)
    delays = [polarization_delays(pre.structure, m, spec.gamma, spec.epsilon)
              for m in measured_sets]
    return [PointerProfile(spec, tuple(measured), tuple(
                (tuple(delay[level] for level in levels), coeff) for levels, coeff in table))
            for measured, delay, table in zip(measured_sets, delays, tables)]


def _pair_sums(terms, table) -> tuple[float, list[list[float]]]:
    """Norm and, per order k >= 1 of the table, the k-th moment sums of the
    basis terms' mixture per axis.

    ``table[p, q]`` gives int t^k b_p b_q from k = 0 to the table's order.
    A pair of terms contributes the product over axes of the k = 0
    integrals, with the k-th on the axis whose sums are taken.  Terms have
    one axis or two.
    """
    n_axes = len(terms[0][0]) if terms else 0
    norm = 0.0
    moments = [[0.0] * n_axes for _ in table[0, 0][1:]]
    for keys_i, ci in terms:
        bra = ci.conjugate()
        for keys_j, cj in terms:
            cross = (bra * cj).real
            if cross == 0.0:
                continue
            if n_axes == 1:
                (a,), (b,) = keys_i, keys_j
                first = table[a, b]
                norm += cross * first[0]
                for moment, integral in zip(moments, first[1:]):
                    moment[0] += cross * integral
            else:
                (a, c), (b, d) = keys_i, keys_j
                first, second = table[a, b], table[c, d]
                norm += cross * (first[0] * second[0])
                rest_first, rest_second = cross * second[0], cross * first[0]
                for moment, f, s in zip(moments, first[1:], second[1:]):
                    moment[0] += rest_first * f
                    moment[1] += rest_second * s
    return norm, moments


def _basis_terms(terms, spec: PointerSpec) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """The terms over basis indices: f_gamma = b0, f_epsilon = b0 + b1."""
    feeds = {spec.epsilon: (0, 1), spec.gamma: (0,)}  # equal delays: b0 only
    coeffs: dict[tuple[int, ...], complex] = {}
    for delays, coeff in terms:
        for key in product(*(feeds[d] for d in delays)):
            coeffs[key] = coeffs.get(key, 0j) + coeff
    return tuple(coeffs.items())


def _means(sums: tuple[float, list[list[float]]], empty: str) -> tuple[float, ...]:
    norm, (first, *_) = sums
    if norm <= 1e-12:
        raise EmptyPostSelectionError(empty)
    return tuple(f / norm for f in first)


def _moments(sums: tuple[float, list[list[float]]], empty: str) -> PointerMoments:
    mean = _means(sums, empty)
    norm, (_, second) = sums
    return PointerMoments(mean, tuple(s / norm - m * m for s, m in zip(second, mean)), norm)


def analytic_moments(
    terms: Sequence[tuple[tuple[float, ...], complex]], spec: PointerSpec
) -> PointerMoments:
    """Closed-form moments of the Gaussian mixture, no grid involved."""
    sums = _pair_sums(_basis_terms(terms, spec), spec.closed_integrals)
    return _moments(sums, "post-selected pointer norm vanishes")


def build_pointer_profile(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    spec: PointerSpec,
) -> PointerProfile:
    """The post-selected pointer's terms and closed-form success probability."""
    return PointerProfile(spec, tuple(measured), pointer_terms(pre, post, measured, spec))


def pointer_moments(profile: PointerProfile) -> PointerMoments:
    """Trapezoidal mean and variance per axis, normalized on the grid."""
    sums = _pair_sums(_basis_terms(profile.terms, profile.spec),
                      profile.spec.basis_integrals)
    return _moments(sums, _EMPTY_ON_GRID)


def weak_prediction(profile: PointerProfile) -> tuple[float, ...]:
    """Where the pointer means go in the weak limit, one per measured photon:
    the real part of ``coefficient_weak_value`` of the terms, the arrival-time
    weak value that ``photonic-weak`` prints.  For a pair this is ``weak_value``
    of ``arrival_time_operator`` bit for bit."""
    return tuple(w.real for w in coefficient_weak_value(profile.terms).value)


def weak_limit_sweep(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    gamma: float,
    epsilon: float,
    sigmas: Sequence[float],
    n_points: int | None = None,
) -> list[SweepRow]:
    """Pointer means against the weak-value prediction across widths.

    ``sigmas`` must be positive and ascending so the rows read as an
    approach to the weak limit.  Without ``n_points`` every width gets the
    largest default grid that any of them needs.  A width prints the
    closed-form means, ``analytic_moments`` bit for bit, and checks its
    grid against the closed form first (``_check_grid``): the width's
    grid, at ``n_points``, sets how closely its means are checked.
    """
    if not sigmas:
        raise GridError("sweep needs at least one value")
    if any(s <= 0 for s in sigmas):
        raise GridError("sweep value must be positive")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise GridError("sweep values must be strictly ascending")
    sized = [None] * len(sigmas)
    if n_points is None:
        sized = [PointerSpec.default(gamma, epsilon, s) for s in sigmas]
        n_points = max(spec.n_points for spec in sized)
    rows: list[SweepRow] = []
    for sigma, spec in zip(sigmas, sized):
        if spec is None or spec.n_points != n_points:
            spec = PointerSpec.default(gamma, epsilon, sigma, n_points)
        if not rows:  # terms and prediction are sigma-free: one walk, before any grid
            profile = build_pointer_profile(pre, post, measured, spec)
            prediction = weak_prediction(profile)
            terms = _basis_terms(profile.terms, spec)  # reads the delays only
        _check_grid(spec)
        # The checked grid agrees with the closed form, so its message stands.
        mean = _means(_pair_sums(terms, spec.closed_integrals), _EMPTY_ON_GRID)
        deviation = tuple(abs(m - w) for m, w in zip(mean, prediction))
        rows.append(SweepRow(sigma, spec.weakness_ratio, mean, deviation, n_points))
    return rows
