"""Finite-strength Gaussian arrival-time pointer for post-selected photons.

The pointer wavefunction is f(t) = (2 pi sigma^2)^(-1/4) exp(-t^2/(4 sigma^2)),
so |f|^2 is a normal density of standard deviation sigma and two pointers
displaced by delta overlap by exp(-delta^2 / (8 sigma^2)).  A measured
photon shifts its pointer by gamma when it is H and by epsilon when it is
V; post-selection leaves a small coherent mixture of shifted Gaussians
whose moments interpolate between the strong regime and the weak values.

Two independent routes to every moment are kept side by side: closed-form
pairwise-overlap algebra, and trapezoidal integration on a grid.  The
trapezoid rule on a product grid factorises, so the grid route samples one
marginal density per measured photon and its cost is linear in the points.
A spec samples its grid, its trapezoid weights and the Gaussian at each
distinct delay once, for every profile built on it; each moment is then
one exact weighted sum over the grid.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from operator import mul
from typing import Sequence

from .states import StateVector, StructureError
from .weakvalues import arrival_time_operator, weak_value

DEFAULT_N_POINTS = 4096
DEFAULT_PADDING = 8.0
MIN_N_POINTS = 64
MAX_N_POINTS = 8192
MIN_PADDING = 6.0


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
        # Sampling a Gaussian needs a step no wider than its width, and
        # sigma**2 must not underflow (gamma == epsilon passes the step test).
        # An infinite grid end fails here; a nan one passes every comparison
        # and is named below.
        step = (self.t_max - self.t_min) / (self.n_points - 1)
        tiny = sys.float_info.min
        if step <= 0.0 or step > self.sigma or self.sigma * self.sigma < tiny:
            raise GridError(
                f"grid step {step:g} does not resolve sigma {self.sigma:g}: "
                f"need 0 < step <= sigma and sigma**2 >= {tiny:g}"
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
        n_points: int = DEFAULT_N_POINTS,
    ) -> PointerSpec:
        lo = min(gamma, epsilon) - DEFAULT_PADDING * sigma
        hi = max(gamma, epsilon) + DEFAULT_PADDING * sigma
        return cls(gamma, epsilon, sigma, lo, hi, n_points)

    @property
    def weakness_ratio(self) -> float:
        return abs(self.epsilon - self.gamma) / self.sigma

    def grid(self) -> list[float]:
        """``numpy.linspace(t_min, t_max, n_points)`` bit for bit."""
        step = (self.t_max - self.t_min) / (self.n_points - 1)
        return [i * step + self.t_min for i in range(self.n_points - 1)] + [self.t_max]

    @cached_property
    def quadrature(self) -> tuple[list[float], list[float]]:
        """The grid t and its trapezoid weights w: fsum(w * y) integrates y."""
        t = self.grid()
        w = ([(t[1] - t[0]) / 2.0] + [(b - a) / 2.0 for a, b in zip(t, t[2:])]
             + [(t[-1] - t[-2]) / 2.0])
        return t, w

    @cached_property
    def samples(self) -> dict[float, list[float]]:
        """The pointer amplitude on the grid, once per distinct delay."""
        t = self.quadrature[0]
        return {d: gaussian_amplitude(t, d, self.sigma)
                for d in dict.fromkeys((self.gamma, self.epsilon))}

    def delay(self, level: str) -> float:
        if level == "H":
            return self.gamma
        if level == "V":
            return self.epsilon
        raise StructureError(f"no pointer delay for level {level!r}")

    def refined(self, factor: int = 2) -> PointerSpec:
        return PointerSpec(
            self.gamma, self.epsilon, self.sigma,
            self.t_min, self.t_max, self.n_points * factor,
        )


def _require_finite(spec: PointerSpec, name: str) -> None:
    value = getattr(spec, name)
    if not math.isfinite(value):
        raise GridError(f"{name} must be finite, got {value}")


def gaussian_amplitude(t: Sequence[float], center: float, sigma: float) -> list[float]:
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.25)
    width = 4.0 * sigma * sigma
    return [norm * math.exp(-((x - center) * (x - center)) / width) for x in t]


def _grid_integrals(spec: PointerSpec, y: list[float]) -> tuple[float, float, float]:
    """Trapezoidal int y, int t y and int t^2 y on the spec's grid.

    The weights multiply last: w * t^2 would overflow on grids whose
    squared extent is finite but close to the largest float.
    """
    t, w = spec.quadrature
    ty = list(map(mul, t, y))
    return (math.fsum(map(mul, w, y)), math.fsum(map(mul, w, ty)),
            math.fsum(map(mul, w, map(mul, t, ty))))


def gaussian_overlap(delta: float, sigma: float) -> float:
    """<f | f shifted by delta> = exp(-delta^2 / (8 sigma^2))."""
    if sigma <= 0.0:
        raise GridError("sigma must be positive")
    return math.exp(-(delta * delta) / (8.0 * sigma * sigma))


@dataclass(frozen=True)
class PointerProfile:
    """Sampled post-selected pointer density, one marginal per measured axis.

    ``marginals[a]`` is |amplitude|^2 on the spec's grid for axis ``a``
    with every other axis integrated out by the trapezoid rule.
    ``terms`` keeps the underlying mixture (per-axis delays with a complex
    coefficient each): it is what the closed-form route consumes.
    ``success_probability`` is the closed-form squared norm; the grid
    integral of a marginal must reproduce it to 1e-9 on a sane grid.
    """

    spec: PointerSpec
    measured: tuple[str, ...]
    terms: tuple[tuple[tuple[float, ...], complex], ...]
    marginals: tuple[list[float], ...]
    success_probability: float


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


def pointer_terms(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    spec: PointerSpec,
) -> tuple[tuple[tuple[float, ...], complex], ...]:
    """Collapse unmeasured photons: coefficient per measured-delay tuple."""
    if pre.structure != post.structure:
        raise StructureError("pre- and post-selection must share a structure")
    if not (pre.normalized and post.normalized):
        raise ValueError("pre- and post-selection must be normalized")
    names = pre.structure.names
    if not measured or any(m not in names for m in measured):
        raise StructureError(f"measured photons must be among {names}")
    for sub in pre.structure.subsystems:
        if set(sub.levels) != {"H", "V"}:
            raise StructureError("pointer profiles need H/V photons throughout")
    collected: dict[tuple[str, ...], complex] = {}
    for label in pre.structure.product_labels():
        cross = post.amplitude(label).conjugate() * pre.amplitude(label)
        if cross == 0j:
            continue
        key = tuple(label.level(m) for m in measured)
        collected[key] = collected.get(key, 0j) + cross
    return tuple(
        (tuple(spec.delay(level) for level in key), coeff)
        for key, coeff in sorted(collected.items())
    )


def _pair_sums(terms, sigma: float) -> tuple[float, list[float], list[float]]:
    """Closed-form integrals of the mixture, summed over pairs of terms.

    A pair of centers a, b with overlap u and midpoint m per axis gives
    int f_a f_b = u, int t f_a f_b = u m and int t^2 f_a f_b =
    u (sigma^2 + m^2); returns the norm and, per axis, the first and
    second sums.
    """
    n_axes = len(terms[0][0]) if terms else 0
    norm = 0.0
    first = [0.0] * n_axes
    second = [0.0] * n_axes
    for delays_i, ci in terms:
        for delays_j, cj in terms:
            cross = (ci.conjugate() * cj).real
            if cross == 0.0:
                continue
            weight = cross * math.prod(
                gaussian_overlap(di - dj, sigma) for di, dj in zip(delays_i, delays_j)
            )
            norm += weight
            for ax, (di, dj) in enumerate(zip(delays_i, delays_j)):
                mid = (di + dj) / 2.0
                first[ax] += weight * mid
                second[ax] += weight * (sigma**2 + mid**2)
    return norm, first, second


def analytic_moments(
    terms: Sequence[tuple[tuple[float, ...], complex]], spec: PointerSpec
) -> PointerMoments:
    """Closed-form moments of the Gaussian mixture, no grid involved."""
    if not terms:
        raise EmptyPostSelectionError("no surviving pointer amplitude")
    norm, first, second = _pair_sums(terms, spec.sigma)
    if norm <= 1e-12:
        raise EmptyPostSelectionError("post-selected pointer norm vanishes")
    mean = tuple(f / norm for f in first)
    variance = tuple(s / norm - m * m for s, m in zip(second, mean))
    return PointerMoments(mean, variance, norm)


def build_pointer_profile(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    spec: PointerSpec,
) -> PointerProfile:
    """Sample the post-selected pointer's marginals on the spec's grid.

    On each axis, the terms that share their other-axis delays form a
    group whose amplitude is sampled on that axis; the marginal is the sum
    over pairs of groups of Re(conj(a_g) a_h), weighted by the trapezoid
    overlaps of the two groups' Gaussians on every other axis.  A group's
    amplitude is squared point by point, never expanded in the samples.
    """
    terms = pointer_terms(pre, post, measured, spec)
    samples = spec.samples
    overlap: dict[tuple[float, float], float] = {}
    if len(measured) > 1:
        w = spec.quadrature[1]
        for a, b in combinations_with_replacement(samples, 2):
            overlap[a, b] = overlap[b, a] = math.fsum(
                map(mul, w, map(mul, samples[a], samples[b])))
    marginals = []
    for ax in range(len(measured)):
        groups: dict[tuple[float, ...], dict[float, complex]] = {}
        for delays, coeff in terms:
            group = groups.setdefault(delays[:ax] + delays[ax + 1:], {})
            group[delays[ax]] = group.get(delays[ax], 0j) + coeff
        sampled = []
        for rest, group in groups.items():
            vectors = [samples[d] for d in group]
            sampled.append((rest, _combine([c.real for c in group.values()], vectors),
                            _combine([c.imag for c in group.values()], vectors)))
        marginal = [0.0] * spec.n_points
        for i, (g, re_g, im_g) in enumerate(sampled):
            for h, re_h, im_h in sampled[i:]:
                weight = math.prod(overlap[p, q] for p, q in zip(g, h))
                if h != g:
                    weight *= 2.0
                marginal = [m + weight * (a * c + b * d) for m, a, b, c, d
                            in zip(marginal, re_g, im_g, re_h, im_h)]
        marginals.append(marginal)
    success = _pair_sums(terms, spec.sigma)[0]
    return PointerProfile(spec, tuple(measured), terms, tuple(marginals), success)


def _combine(coeffs: list[float], vectors: list[list[float]]) -> list[float]:
    """sum_d c_d f_d point by point over a group's one or two delays."""
    if len(vectors) == 1:
        return [coeffs[0] * x for x in vectors[0]]
    (c0, c1), (f0, f1) = coeffs, vectors
    return [c0 * x + c1 * y for x, y in zip(f0, f1)]


def pointer_moments(profile: PointerProfile) -> PointerMoments:
    """Trapezoidal mean and variance per axis, normalized on the grid."""
    sums = [_grid_integrals(profile.spec, y) for y in profile.marginals]
    norm = sums[0][0]
    if norm <= 1e-12:
        raise EmptyPostSelectionError("post-selected pointer norm vanishes on grid")
    means = []
    variances = []
    for _, first, second in sums:
        m1 = first / norm
        means.append(m1)
        variances.append(second / norm - m1 * m1)
    return PointerMoments(tuple(means), tuple(variances), norm)


def pointer_readout(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    spec: PointerSpec,
) -> tuple[PointerMoments, tuple[float, ...], tuple[float, ...]]:
    """Grid moments at one pointer width, the weak-value prediction and
    their distance, one per measured photon.

    The prediction is the real part of the arrival-time weak value; it is
    taken before any grid is built.
    """
    op = arrival_time_operator(pre.structure, measured, spec.gamma, spec.epsilon)
    prediction = tuple(w.real for w in weak_value(op, pre, post).value)
    moments = pointer_moments(build_pointer_profile(pre, post, measured, spec))
    deviation = tuple(abs(m - w) for m, w in zip(moments.mean, prediction))
    return moments, prediction, deviation


def weak_limit_sweep(
    pre: StateVector,
    post: StateVector,
    measured: Sequence[str],
    gamma: float,
    epsilon: float,
    sigmas: Sequence[float],
    n_points: int = DEFAULT_N_POINTS,
) -> list[SweepRow]:
    """Pointer means against the weak-value prediction across widths.

    ``sigmas`` must be positive and ascending so the rows read as an
    approach to the weak limit.
    """
    if not sigmas:
        raise GridError("sweep needs at least one sigma")
    if any(s <= 0 for s in sigmas):
        raise GridError("sweep sigmas must be positive")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise GridError("sweep sigmas must be strictly ascending")
    rows = []
    for sigma in sigmas:
        spec = PointerSpec.default(gamma, epsilon, sigma, n_points)
        moments, _, deviation = pointer_readout(pre, post, measured, spec)
        rows.append(SweepRow(sigma, spec.weakness_ratio, moments.mean, deviation))
    return rows
