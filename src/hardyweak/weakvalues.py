"""Weak values <post|A|pre> / <post|pre> of delay-weighted observables.

A is a real-weighted sum of product-basis projectors whose weights are
k-vectors, so a joint arrival-time observable carries one delay per
measured photon; plain occupation numbers are the k = 1 case.  Every
weak value is read off one walk over the pre-selection's labels
(``level_coefficients``): a coefficient c = <post|label><label|pre> per
tuple of measured levels.  By linearity (Aharonov et al., Phys. Lett. A
301, 130 (2002)) the weak value of the observable weighting those levels
by d is sum d c / sum c (``coefficient_weak_value``), so no operator is
built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .states import BasisLabel, StateVector, Structure, StructureError

ORTHOGONALITY_THRESHOLD = 1e-12

# Path arms of the particle picture against polarization levels of the
# photonic one: the overlapping arm plays the role of V on both photons.
PATH_TO_POLARIZATION = {"O": "V", "NO": "H"}
POLARIZATION_TO_PATH = {pol: path for path, pol in PATH_TO_POLARIZATION.items()}


class OrthogonalPostSelectionError(ValueError):
    """Pre- and post-selection are (numerically) orthogonal."""


@dataclass(frozen=True)
class WeakValueReport:
    """A weak value with the post-selection data it was conditioned on."""

    value: tuple[complex, ...]
    overlap: complex
    success_probability: float

    @property
    def scalar(self) -> complex:
        if len(self.value) != 1:
            raise ValueError("scalar view requires a k = 1 operator")
        return self.value[0]


@dataclass(frozen=True)
class ProjectorWeakValue:
    label: BasisLabel
    weight: tuple[float, ...]
    value: complex


def check_overlap(overlap: complex) -> complex:
    """<post|pre>, unless (numerically) orthogonal: no weak value is defined."""
    if abs(overlap) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalPostSelectionError(
            f"post-selection overlap {abs(overlap):.3e} below threshold"
        )
    return overlap


def level_coefficients(
    pre: StateVector, post: StateVector, measured_sets: Sequence[Sequence[str]]
) -> list[tuple[tuple[tuple[str, ...], complex], ...]]:
    """Per measured tuple, <post|label><label|pre> summed per tuple of the
    measured levels, sorted: one walk forms each cross term once, in canonical
    label order.  Labels outside the pre-selection's support add nothing."""
    if not all(len(m) in (1, 2) and len(set(m)) == len(m) for m in measured_sets):
        raise StructureError("measure one photon or an ordered pair")
    if pre.structure != post.structure:
        raise StructureError("pre- and post-selection must share a structure")
    if not (pre.normalized and post.normalized):
        raise ValueError("pre- and post-selection must be normalized")
    names = pre.structure.names
    if any(m not in names for measured in measured_sets for m in measured):
        raise StructureError(f"measured photons must be among {names}")
    # A product label's pairs follow the structure's names.
    axes = [tuple(names.index(m) for m in measured) for measured in measured_sets]
    collected: list[dict[tuple[str, ...], complex]] = [{} for _ in measured_sets]
    for label, ket in pre.amplitudes.items():
        cross = post.amplitudes.get(label, 0j).conjugate() * ket
        if label.is_gamma or cross == 0j:
            continue
        for positions, coeffs in zip(axes, collected):
            key = tuple(label.pairs[i][1] for i in positions)
            coeffs[key] = coeffs.get(key, 0j) + cross
    return [tuple(sorted(coeffs.items())) for coeffs in collected]


def coefficient_weak_value(terms: Sequence[tuple[Sequence[float], complex]]) -> WeakValueReport:
    """sum d c / sum c per component of the weights d, each sum taken in the
    terms' order: over a walk's coefficients c, the weak value of the
    observable with those weights.  An orthogonal selection is refused."""
    overlap, numerator = 0j, [0j] * (len(terms[0][0]) if terms else 0)
    for weights, coeff in terms:
        overlap += coeff
        numerator = [n + w * coeff for n, w in zip(numerator, weights)]
    overlap = check_overlap(overlap)
    return WeakValueReport(tuple(n / overlap for n in numerator), overlap, abs(overlap) ** 2)


def polarization_delays(
    structure: Structure, measured: Sequence[str], gamma: float, epsilon: float
) -> dict[str, float]:
    """Delays gamma on H and epsilon on V, for measured photons that are H/V."""
    for name in measured:
        sub = structure.subsystem(name)
        if set(sub.levels) != {"H", "V"}:
            raise StructureError(
                f"arrival time is defined on H/V photons, not {name!r} with {sub.levels}"
            )
    return {"H": float(gamma), "V": float(epsilon)}
