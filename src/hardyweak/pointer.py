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

Every moment writes the terms in a difference basis, b0 = f at one delay
and b1 = f at the other minus b0, which adds nearly cancelling delay
coefficients before any integral enters, and sums pairs of terms against
a closed-form table of one-axis integrals of b_p b_q (``_closed_table``;
Kofman, Ashhab & Nori, Phys. Rep. 520, 43 (2012)).  The norm and the
means read the table about 0 with b0 = f_gamma (``closed_integrals``);
each variance reads the table about its mean c with b0 at the delay
nearer c, so E[(t - c)^2] - E[t - c]^2 subtracts no large squares.

The grid prints nothing; it checks the closed form (``_GridCheck``) after
it, and only on a spec with ``n_points``: a run without ``--grid-points``
samples nothing.  Every grid spans the window ``DEFAULT_PADDING`` sigma
beyond both delays, so one sampling of f_gamma per spec on a cached index
ramp gives plain trapezoid sums of f_gamma^2, f_gamma f_epsilon and
f_epsilon^2 (by the mirror f_epsilon(t_i) = f_gamma(t_(N-1-i))), which
make up every table, about any centre and with either anchor.  A sweep
width checks the first-order table its means read, a ``pointer`` spec
that and the second-order table about each mean.  An entry off its
closed form by more than ``grid_error_budget`` (aliasing from the step
plus truncation at the padding) plus 4 eps (N + T/sigma) of rounding
refuses the spec (``GridError``), as does a grid that aliases more than
``ALIASING_TOLERANCE``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import islice, product
from operator import getitem, mul
from typing import Sequence

from .states import StateVector
from .weakvalues import coefficient_weak_value, level_coefficients, polarization_delays

DEFAULT_PADDING = 8.0
MIN_N_POINTS = 64
MAX_N_POINTS = 8192
# The most aliasing any grid may carry: the accuracy PointerProfile promises.
ALIASING_TOLERANCE = 1e-9
_EMPTY = "post-selected pointer norm vanishes"
_Table = dict[tuple[int, int], tuple[float, ...]]  # (p, q): int t^k b_p b_q, k = 0, ...


class GridError(ValueError):
    """The sampling grid cannot support the requested pointer."""


class EmptyPostSelectionError(ValueError):
    """No amplitude survived post-selection; moments are undefined."""


@dataclass(frozen=True)
class PointerSpec:
    """Delays, pointer width and, if the closed form is to be checked, the
    number of grid points per time axis.  The grid, if any, spans the
    window [``t_min``, ``t_max``], ``DEFAULT_PADDING`` sigma beyond both
    delays, which the closed form's second moments read out to."""

    gamma: float
    epsilon: float
    sigma: float
    n_points: int | None = None

    def __post_init__(self) -> None:
        for name in ("gamma", "epsilon", "sigma"):
            _require_finite(self, name)
        if self.sigma <= 0.0:
            raise GridError("sigma must be positive")
        # The closed form reads sigma**2 and second moments out to the
        # window, which must neither underflow nor overflow.
        tiny = sys.float_info.min
        if self.sigma * self.sigma < tiny:
            raise GridError(f"sigma {self.sigma:g} is too small: sigma**2 "
                            f"underflows below {tiny:g}")
        lo, hi = self.t_min, self.t_max
        if not math.isfinite(2.0 * max(lo * lo, hi * hi)):
            raise GridError(f"pointer window [{lo:g}, {hi:g}], {DEFAULT_PADDING:g} sigma "
                            "beyond the delays, is too wide: its squared extent overflows")
        if self.n_points is None:
            return
        if self.n_points < MIN_N_POINTS:
            raise GridError(f"need at least {MIN_N_POINTS} grid points")
        if self.n_points > MAX_N_POINTS:
            raise GridError(f"need at most {MAX_N_POINTS} grid points")
        # The step must keep the aliasing within its tolerance (about
        # step <= 0.88 sigma); a window too narrow to round apart has none.
        step = self.step
        aliasing = math.inf if step <= 0.0 else _aliasing(step / self.sigma)
        if aliasing > ALIASING_TOLERANCE:
            raise GridError(
                f"grid step {step:g} does not resolve sigma {self.sigma:g}: "
                f"need step > 0 with an aliasing error of at most "
                f"{ALIASING_TOLERANCE:g} (here {aliasing:.3g})"
            )

    @classmethod
    def default(cls, gamma: float = 0.0, epsilon: float = 1.0, sigma: float = 8.0,
                n_points: int | None = None) -> PointerSpec:
        """The spec, with a grid of ``n_points`` on its window if given."""
        return cls(gamma, epsilon, sigma, n_points)

    @property
    def t_min(self) -> float:
        return min(self.gamma, self.epsilon) - DEFAULT_PADDING * self.sigma

    @property
    def t_max(self) -> float:
        return max(self.gamma, self.epsilon) + DEFAULT_PADDING * self.sigma

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

    @cached_property
    def closed_integrals(self) -> _Table:
        """``_closed_table`` about 0 with b0 = f_gamma, read by norm and means."""
        return _closed_table(self, 0.0, 0)

    @cached_property
    def grid_check(self) -> _GridCheck:
        """The ``_GridCheck`` every ``pointer_moments`` of the spec reads."""
        return _GridCheck(self, 2)


def _closed_table(spec: PointerSpec, centre: float, anchor: int) -> _Table:
    """J_k(p, q) = int (t - centre)^k b_p b_q over the line, k = 0, 1, 2, free
    of cancellation: b0 = f_a at the ``anchor`` delay (0 for gamma, 1 for
    epsilon), b1 = f_o - f_a.  With a and o the delays less the centre,
    D = o - a, midpoint m and e = expm1(-D^2/(8 sigma^2)): J(0,0) = (1, a,
    sigma^2 + a^2), J(0,1) = (e, e m + D/2, e (sigma^2 + m^2) + (m - a)(m + a))
    and J(1,1) = (-2e, -2e m, -2e (sigma^2 + m^2) + D^2/2)."""
    delays = (spec.gamma - centre, spec.epsilon - centre)
    a, o, s2 = delays[anchor], delays[1 - anchor], spec.sigma * spec.sigma
    table = {(0, 0): (1.0, a, s2 + a * a)}
    if spec.epsilon != spec.gamma:
        d, m = o - a, (a + o) / 2.0
        e = math.expm1(-(d * d) / (8.0 * s2))
        table[0, 1] = table[1, 0] = (e, e * m + d / 2.0, e * (s2 + m * m) + (m - a) * (m + a))
        table[1, 1] = (-2.0 * e, -2.0 * e * m, -2.0 * e * (s2 + m * m) + d * d / 2.0)
    return table


def _about(spec: PointerSpec, centre: float) -> tuple[int, _Table]:
    """The delay nearer ``centre``, and ``_closed_table`` about it with b0 there."""
    anchor = int(abs(spec.epsilon - centre) < abs(spec.gamma - centre))
    return anchor, _closed_table(spec, centre, anchor)


def _require_finite(spec: PointerSpec, name: str) -> None:
    value = getattr(spec, name)
    if not math.isfinite(value):
        raise GridError(f"{name} must be finite, got {value}")


def _aliasing(step_ratio: float) -> float:
    a2 = (2.0 * math.pi / step_ratio) ** 2
    return 2.0 * math.exp(-a2 / 2.0) * (1.0 + a2)


def grid_error_budget(spec: PointerSpec) -> tuple[float, float]:
    """The trapezoid error of the spec's grid: (aliasing, truncation).

    Each entry J_k(p, q), k = 0, 1, 2, of a table about a centre integrates
    (t - centre)^k against w unit normal densities of width sigma centred
    between the delays: w = 1 for b0 b0, 1 + u for b0 b1 and 2 + 2u for
    b1 b1, with u the overlap.  Its grid value lies within w (c + sigma)^k
    (aliasing + truncation) of the exact one, c the farther delay from the
    centre, rounding aside.  At step h and a = 2 pi sigma / h, aliasing is
    the leading Poisson-summation term 2 exp(-a^2/2) times the 1 + a^2
    that t^2 brings to it.  Truncation is what the grid leaves out beyond
    its padding p sigma: the two tails of t^2 under the density,
    erfc(p/sqrt 2) + 2 p phi(p), and the half-weighted end points,
    (h/sigma) p^2 phi(p), with phi the standard normal density.  See
    Trefethen & Weideman, SIAM Review 56, 385 (2014).
    """
    step_ratio, padding = spec.step / spec.sigma, spec.padding / spec.sigma
    tail = math.exp(-padding * padding / 2.0) / math.sqrt(2.0 * math.pi)
    truncation = (math.erfc(padding / math.sqrt(2.0))
                  + (2.0 + step_ratio * padding) * padding * tail)
    return _aliasing(step_ratio), truncation


@lru_cache(maxsize=4)  # bounded: a process may meet every size up to MAX_N_POINTS
def _index_ramp(n_points: int) -> tuple[float, ...]:
    """0.0, 1.0, ..., n_points - 1: float indices, exact below 2**53."""
    return tuple(map(float, range(n_points)))


@lru_cache(maxsize=4)
def _index_squares(n_points: int) -> tuple[float, ...]:
    """(i - M)^2 per index i about the middle index M = (N - 1)/2, a
    half-integer: exact, and no padding inflates it."""
    middle = (n_points - 1) / 2.0
    return tuple((i - middle) ** 2 for i in _index_ramp(n_points))


def _ramp_gaussian(spec: PointerSpec, center: float) -> list[float]:
    """exp(-(t_i - center)^2 / (4 sigma^2)) at t_i = t_min + i h: the
    pointer at ``center`` on the spec's grid, without its norm."""
    h, a, k = spec.step, spec.t_min - center, -0.25 / (spec.sigma * spec.sigma)
    return [math.exp(k * (x := i * h + a) * x) for i in _index_ramp(spec.n_points)]


def _trapezoid_sums(y: list[float], squares: tuple[float, ...] | None) -> tuple[float, ...]:
    """sum w_i y_i, sum w_i i y_i and, given them, sum w_i squares_i y_i,
    with the trapezoid's half end weights."""
    ramp = _index_ramp(len(y))
    sums = (sum(y) - (y[0] + y[-1]) / 2.0, sum(map(mul, ramp, y)) - ramp[-1] / 2.0 * y[-1])
    return sums if squares is None else (
        *sums, sum(map(mul, squares, y)) - (squares[0] * y[0] + squares[-1] * y[-1]) / 2.0)


def _grid_sums(spec: PointerSpec, order: int) -> _Table:
    """``_trapezoid_sums`` S, I and, at order 2, J about the middle index of
    each product f_d f_d' of the unnormalised pointers at the delays (0 for
    gamma, 1 for epsilon).  The window is symmetric about the delays'
    midpoint, so f_epsilon is f_gamma reversed: f_epsilon^2 has the sums S,
    (N - 1) S - I and J of f_gamma^2, and f_gamma f_epsilon, symmetric, is
    summed over half the grid."""
    squares = _index_squares(spec.n_points) if order == 2 else None
    early = _ramp_gaussian(spec, spec.gamma)
    sums = {(0, 0): _trapezoid_sums(list(map(mul, early, early)), squares)}
    if spec.epsilon == spec.gamma:
        return sums
    n, half = len(early), len(early) // 2
    pairs = map(mul, islice(early, half), reversed(early))
    pairs = list(pairs) if squares else pairs  # summed twice
    middle = early[half] * early[half] if n % 2 else 0.0
    cross = 2.0 * sum(pairs) + middle - early[0] * early[-1]
    s, i, *j = sums[0, 0]
    sums[0, 1] = (cross, (n - 1) / 2.0 * cross)
    sums[1, 1] = (s, (n - 1) * s - i, *j)
    if squares:  # the middle point, if any, sits at j = 0
        sums[0, 1] += (2.0 * sum(map(mul, squares, pairs)) - squares[0] * pairs[0],)
    return sums


def _grid_table(spec: PointerSpec, sums: _Table, centre: float, anchor: int) -> _Table:
    """``_closed_table``'s entries, p <= q, on the spec's grid to the order
    of ``sums``.  By linearity b0 b0 = f_a^2, b0 b1 = f_a f_o - f_a^2 and
    b1 b1 = f_o^2 - 2 f_a f_o + f_a^2.  With t_i - centre = l + (i - M) h,
    M = (N - 1)/2, a product's sums give int y = H S, int (t - centre) y
    = H ((t_min - centre) S + h I) and int (t - centre)^2 y = H (l^2 S +
    2 l h (I - M S) + h^2 J), H = h (2 pi sigma^2)^(-1/2), with no (8
    sigma)^2 of padding to cancel."""
    aa = sums[anchor, anchor]
    basis = {(0, 0): aa}
    if (0, 1) in sums:
        ao, oo = sums[0, 1], sums[1 - anchor, 1 - anchor]
        basis[0, 1] = [x - y for x, y in zip(ao, aa)]
        basis[1, 1] = [x - 2.0 * y + z for x, y, z in zip(oo, ao, aa)]
    h, start = spec.step, spec.t_min - centre
    scale = h / (math.sqrt(2.0 * math.pi) * spec.sigma)
    if len(aa) == 2:
        return {key: (scale * s, scale * (start * s + h * i)) for key, (s, i) in basis.items()}
    middle = (spec.n_points - 1) / 2.0
    lead = start + middle * h
    return {key: (scale * s, scale * (start * s + h * i),
                  scale * (lead * lead * s + 2.0 * lead * h * (i - middle * s) + h * h * j))
            for key, (s, i, j) in basis.items()}


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
    extent = max(abs(spec.t_min), abs(spec.t_max))
    return 4.0 * sys.float_info.epsilon * (spec.n_points + extent / spec.sigma)


class _GridCheck:
    """A spec's closed-form tables checked on one sampling, ``_grid_sums`` to
    ``order``: ``closed_integrals`` when made, a table about a centre when
    ``check``ed."""

    def __init__(self, spec: PointerSpec, order: int) -> None:
        self.spec, self.sums = spec, _grid_sums(spec, order)
        self.tolerance = sum(grid_error_budget(spec)) + _grid_rounding(spec)
        closed = spec.closed_integrals
        overlap = 1.0 + closed[0, 1][0] if (0, 1) in closed else 1.0
        weights = {(0, 0): 1.0, (0, 1): 1.0 + overlap, (1, 1): 2.0 + 2.0 * overlap}
        self.weights = {key: w for key, w in weights.items() if key in closed}
        self.check()

    def check(self, centre: float | None = None) -> None:
        """Refuse the spec (``GridError``) if an entry J_k(p, q) of a closed
        table is off its ``_grid_table`` value by more than w (c + sigma)^k,
        the ``grid_error_budget`` scale with c the farther delay from the
        centre, times aliasing + truncation + ``_grid_rounding``: to k = 1
        of ``closed_integrals`` without a centre, else to k = 2 of the table
        ``_about`` the centre."""
        spec = self.spec
        if centre is None:
            order, about, (anchor, closed) = 1, 0.0, (0, spec.closed_integrals)
        else:
            order, about, (anchor, closed) = 2, centre, _about(spec, centre)
        grid = _grid_table(spec, self.sums, about, anchor)
        scale = max(abs(spec.gamma - about), abs(spec.epsilon - about)) + spec.sigma
        for (p, q), weight in self.weights.items():
            for k, (value, exact) in enumerate(zip(grid[p, q], closed[p, q][:order + 1])):
                residual, bound = abs(value - exact), weight * scale ** k * self.tolerance
                if not residual <= bound:
                    where = "" if centre is None else f" about {centre:g}"
                    raise GridError(
                        f"grid check failed at sigma {spec.sigma:g}: J{k}({p}, {q}){where}"
                        f" is off its closed form by {residual:.3g}, above its bound {bound:.3g}")


@dataclass(frozen=True)
class PointerProfile:
    """Post-selected pointer on a spec: its mixture and closed-form norm.

    ``terms`` holds per measured axis a delay, with a complex coefficient
    each; they do not depend on sigma, so any width of the same delays may
    share them.  ``success_probability`` is the closed-form squared norm,
    summed when first read.
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


def pointer_terms(pre: StateVector, post: StateVector, measured: Sequence[str],
                  spec: PointerSpec) -> tuple[tuple[tuple[float, ...], complex], ...]:
    """Collapse unmeasured photons: coefficient per measured-delay tuple."""
    return build_pointer_profile(pre, post, measured, spec).terms


def pointer_profiles(pre: StateVector, post: StateVector,
                     measured_sets: Sequence[Sequence[str]], spec: PointerSpec
                     ) -> list[PointerProfile]:
    """``build_pointer_profile`` for each measured tuple, from one walk over
    the labels (``level_coefficients``): each level becomes its delay."""
    tables = level_coefficients(pre, post, measured_sets)
    delays = [polarization_delays(pre.structure, m, spec.gamma, spec.epsilon)
              for m in measured_sets]
    return [PointerProfile(spec, tuple(measured), tuple(
                (tuple(delay[level] for level in levels), coeff) for levels, coeff in table))
            for measured, delay, table in zip(measured_sets, delays, tables)]


def _pair_sums(terms, table, second=None, order=None) -> tuple[float, list[list[float]]]:
    """Norm and, per order 1 <= k <= ``order`` (default: the table's), the
    k-th moment sums of the basis terms' mixture per axis.  ``table[p, q]``
    (``second[p, q]`` on a second axis, if given) gives int t^k b_p b_q
    from k = 0; a pair of terms contributes the product over its one or two
    axes of the k = 0 integrals, with the k-th on the axis summed."""
    n_axes = len(terms[0][0]) if terms else 0
    second = second or table
    norm, moments = 0.0, [[0.0] * n_axes for _ in table[0, 0][1:][:order]]
    orders = list(enumerate(moments, 1))
    for keys_i, ci in terms:
        bra = ci.conjugate()
        if n_axes == 1:
            (a,) = keys_i
            for (b,), cj in terms:
                cross = (bra * cj).real
                if cross != 0.0:
                    first = table[a, b]
                    norm += cross * first[0]
                    for k, moment in orders:
                        moment[0] += cross * first[k]
        else:
            a, c = keys_i
            for (b, d), cj in terms:
                cross = (bra * cj).real
                if cross != 0.0:
                    first, other = table[a, b], second[c, d]
                    norm += cross * (first[0] * other[0])
                    rest_first, rest_second = cross * other[0], cross * first[0]
                    for k, moment in orders:
                        moment[0] += rest_first * first[k]
                        moment[1] += rest_second * other[k]
    return norm, moments


def _basis_terms(terms, spec: PointerSpec,
                 anchors: Sequence[int] = (0, 0)) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """The terms over basis indices: on each axis the pointer at the
    axis's anchor delay (0 for gamma, 1 for epsilon) is b0, the other
    b0 + b1."""
    delays = (spec.gamma, spec.epsilon)
    feeds = [{delays[1 - a]: (0, 1), delays[a]: (0,)} for a in anchors]  # equal delays: b0 only
    coeffs: dict[tuple[int, ...], complex] = {}
    for term_delays, coeff in terms:
        for key in product(*map(getitem, feeds, term_delays)):
            coeffs[key] = coeffs.get(key, 0j) + coeff
    return tuple(coeffs.items())


def _means(sums: tuple[float, list[list[float]]]) -> tuple[float, ...]:
    norm, (first, *_) = sums
    if norm <= 1e-12:
        raise EmptyPostSelectionError(_EMPTY)
    return tuple(f / norm for f in first)


def _moments(terms, spec: PointerSpec) -> PointerMoments:
    """The norm and means from ``closed_integrals``, then in one more pass
    each axis's variance E[(t - c)^2] - E[t - c]^2 about its mean c, from
    the table ``_about`` c: no square of a delay or of the mean is
    subtracted, however narrow the pointer."""
    basis = _basis_terms(terms, spec)
    norm, first = _pair_sums(basis, spec.closed_integrals, order=1)
    mean = _means((norm, first))
    anchors, tables = zip(*map(partial(_about, spec), mean))
    if any(anchors):
        basis = _basis_terms(terms, spec, anchors)
    total, (shift, spread) = _pair_sums(basis, *tables)
    variance = tuple(s / total - (f / total) ** 2 for f, s in zip(shift, spread))
    return PointerMoments(mean, variance, norm)


def analytic_moments(terms: Sequence[tuple[tuple[float, ...], complex]],
                     spec: PointerSpec) -> PointerMoments:
    """Closed-form moments of the Gaussian mixture (``_moments``), no grid."""
    return _moments(terms, spec)


def build_pointer_profile(pre: StateVector, post: StateVector, measured: Sequence[str],
                          spec: PointerSpec) -> PointerProfile:
    """The post-selected pointer's terms and closed-form success probability."""
    return pointer_profiles(pre, post, (measured,), spec)[0]


def pointer_moments(profile: PointerProfile) -> PointerMoments:
    """``analytic_moments`` of the profile, then, if its spec has a grid,
    the tables they read checked on it (``PointerSpec.grid_check``): the
    first-order table of the means, once per spec, and the second-order
    table about each distinct mean."""
    spec = profile.spec
    moments = _moments(profile.terms, spec)
    if spec.n_points is not None:
        check = spec.grid_check
        for centre in dict.fromkeys(moments.mean):
            check.check(centre)
    return moments


def weak_prediction(profile: PointerProfile) -> tuple[float, ...]:
    """Where the pointer means go in the weak limit, one per measured photon:
    the real part of ``coefficient_weak_value`` of the terms, the arrival-time
    weak value that ``photonic-weak`` prints, from the same walk."""
    return tuple(w.real for w in coefficient_weak_value(profile.terms).value)


def weak_limit_sweep(pre: StateVector, post: StateVector, measured: Sequence[str],
                     gamma: float, epsilon: float, sigmas: Sequence[float],
                     n_points: int | None = None) -> list[SweepRow]:
    """Pointer means against the weak-value prediction across widths.

    ``sigmas`` must be positive and ascending so the rows read as an
    approach to the weak limit.  A width prints the closed-form means,
    ``analytic_moments`` bit for bit.  With ``n_points`` each width then
    checks the table they read on its grid of that many points
    (``_GridCheck``), which sets how closely they are checked; without,
    no grid is sampled.
    """
    if not sigmas:
        raise GridError("sweep needs at least one value")
    if any(s <= 0 for s in sigmas):
        raise GridError("sweep value must be positive")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise GridError("sweep values must be strictly ascending")
    rows: list[SweepRow] = []
    for sigma in sigmas:
        spec = PointerSpec.default(gamma, epsilon, sigma, n_points)
        if not rows:  # terms and prediction are sigma-free: one walk, before any grid
            profile = build_pointer_profile(pre, post, measured, spec)
            prediction = weak_prediction(profile)
            terms = _basis_terms(profile.terms, spec)  # reads the delays only
        mean = _means(_pair_sums(terms, spec.closed_integrals))
        if n_points is not None:
            _GridCheck(spec, 1)
        deviation = tuple(abs(m - w) for m, w in zip(mean, prediction))
        rows.append(SweepRow(sigma, spec.weakness_ratio, mean, deviation))
    return rows
