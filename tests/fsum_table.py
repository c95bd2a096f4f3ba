"""The exactly summed grid table that ``pointer`` reports printed before
they printed the closed form, kept as a reference for the grid check.

The trapezoid rule on ``numpy.linspace(t_min, t_max, n_points)`` with
weights w_i = (t_(i+1) - t_(i-1)) / 2, normalised Gaussian samples once
per distinct delay, the difference basis b0 = f_gamma, b1 = f_epsilon -
f_gamma formed point by point, and int t^k b_p b_q, k = 0, 1, 2, each an
exactly rounded ``math.fsum``.

Each function reads of its spec the delays, sigma, the grid ends t_min
and t_max, ``n_points`` and ``step``: a ``PointerSpec``, whose grid is
its window, or a ``Sampling`` whose ends are given anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, count, islice
from operator import mul, sub
from typing import Sequence, Union

from hardyweak.pointer import PointerSpec


@dataclass(frozen=True)
class Sampling:
    """A pointer sampled on a grid with explicit ends, such as a spec's
    window shifted by a centre."""

    gamma: float
    epsilon: float
    sigma: float
    t_min: float
    t_max: float
    n_points: int

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    @property
    def padding(self) -> float:
        """As ``PointerSpec.padding``, which ``grid_error_budget`` reads."""
        return min(min(self.gamma, self.epsilon) - self.t_min,
                   self.t_max - max(self.gamma, self.epsilon))


Spec = Union[PointerSpec, Sampling]


def grid(spec: Spec) -> list[float]:
    """``numpy.linspace(t_min, t_max, n_points)`` bit for bit."""
    step, t_min = spec.step, spec.t_min
    # Float indices (exact below 2**53) multiply as the ints would.
    indices = islice(count(0.0, 1.0), spec.n_points - 1)
    return [i * step + t_min for i in indices] + [spec.t_max]


def quadrature(spec: Spec) -> tuple[list[float], list[float]]:
    """The grid t and its trapezoid weights w: fsum(w * y) integrates y."""
    t = grid(spec)
    w = [(t[1] - t[0]) * 0.5, *[(b - a) * 0.5 for a, b in zip(t, t[2:])],
         (t[-1] - t[-2]) * 0.5]
    return t, w


def samples(spec: Spec) -> dict[float, list[float]]:
    """The pointer amplitude on the grid, once per distinct delay."""
    t = quadrature(spec)[0]
    return {d: gaussian_amplitude(t, d, spec.sigma)
            for d in dict.fromkeys((spec.gamma, spec.epsilon))}


def basis_integrals(spec: Spec) -> dict[tuple[int, int], tuple[float, float, float]]:
    """``grid_integrals`` of b_p b_q per pair of basis indices, nine exact
    sums, or three when the delays are equal.

    b0 = f_gamma and, unless the delays are equal, b1 = f_epsilon - f_gamma.
    """
    f = samples(spec)
    basis = [f[spec.gamma]]
    if spec.epsilon != spec.gamma:
        basis.append(list(map(sub, f[spec.epsilon], f[spec.gamma])))
    table = {}
    for p, q in combinations_with_replacement(range(len(basis)), 2):
        table[p, q] = table[q, p] = grid_integrals(spec, list(map(mul, basis[p], basis[q])))
    return table


def gaussian_amplitude(t: Sequence[float], center: float, sigma: float) -> list[float]:
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.25)
    scale = -4.0 * sigma * sigma  # d * d / scale rounds as -(d * d) / (4 sigma^2)
    return [norm * math.exp((d := x - center) * d / scale) for x in t]


def grid_integrals(spec: Spec, y: list[float]) -> tuple[float, float, float]:
    """Trapezoidal int y, int t y and int t^2 y on the spec's grid, each an
    exactly rounded sum.

    The weights multiply last: w * t^2 would overflow on grids whose
    squared extent is finite but close to the largest float.
    """
    t, w = quadrature(spec)
    ty = list(map(mul, t, y))
    return (math.fsum(map(mul, w, y)), math.fsum(map(mul, w, ty)),
            math.fsum(map(mul, w, map(mul, t, ty))))
