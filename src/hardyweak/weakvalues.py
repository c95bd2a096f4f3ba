"""Weak values of weighted projector sums between pre- and post-selection.

The central quantity is <post|A|pre> / <post|pre> for operators that are
real-weighted sums of product-basis projectors.  Weights are k-vectors so
a joint arrival-time observable can carry one delay per measured photon;
plain occupation numbers are the k = 1 case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .states import BasisLabel, StateVector, Structure, StructureError, inner

ORTHOGONALITY_THRESHOLD = 1e-12

# Path arms of the particle picture against polarization levels of the
# photonic one: the overlapping arm plays the role of V on both photons.
PATH_TO_POLARIZATION = {"O": "V", "NO": "H"}
POLARIZATION_TO_PATH = {pol: path for path, pol in PATH_TO_POLARIZATION.items()}


class OrthogonalPostSelectionError(ValueError):
    """Pre- and post-selection are (numerically) orthogonal."""


@dataclass(frozen=True)
class WeightedProjectorSum:
    """sum_i w_i |label_i><label_i| with real k-vector weights w_i."""

    structure: Structure
    terms: tuple[tuple[BasisLabel, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise StructureError("operator needs at least one projector term")
        dims = {len(w) for _, w in self.terms}
        if len(dims) != 1 or 0 in dims:
            raise StructureError("weights must share one dimension k >= 1")
        seen = set()
        for label, weight in self.terms:
            self.structure.validate_label(label)
            if label.is_gamma:
                raise StructureError("projector sums address product labels only")
            if label in seen:
                raise StructureError(f"duplicate projector label {label}")
            seen.add(label)
        canonical = tuple(
            sorted(
                ((lab, tuple(float(x) for x in w)) for lab, w in self.terms),
                key=lambda t: self.structure.sort_key(t[0]),
            )
        )
        object.__setattr__(self, "terms", canonical)

    @property
    def dimension(self) -> int:
        return len(self.terms[0][1])

    def scaled(self, factor: float) -> WeightedProjectorSum:
        return WeightedProjectorSum(
            self.structure,
            tuple((lab, tuple(factor * x for x in w)) for lab, w in self.terms),
        )

    def plus(self, other: WeightedProjectorSum) -> WeightedProjectorSum:
        if self.structure != other.structure or self.dimension != other.dimension:
            raise StructureError("operators must share structure and dimension")
        merged: dict[BasisLabel, list[float]] = {
            lab: list(w) for lab, w in self.terms
        }
        for lab, w in other.terms:
            if lab in merged:
                merged[lab] = [a + b for a, b in zip(merged[lab], w)]
            else:
                merged[lab] = list(w)
        return WeightedProjectorSum(
            self.structure, tuple((lab, tuple(w)) for lab, w in merged.items())
        )


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


def _check_selection(op_structure: Structure, pre: StateVector, post: StateVector) -> complex:
    if pre.structure != op_structure or post.structure != op_structure:
        raise StructureError("operator, pre-, and post-selection must share a structure")
    if not (pre.normalized and post.normalized):
        raise ValueError("pre- and post-selection must be normalized")
    return check_overlap(inner(post, pre))


def check_overlap(overlap: complex) -> complex:
    """<post|pre>, unless (numerically) orthogonal: no weak value is defined."""
    if abs(overlap) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalPostSelectionError(
            f"post-selection overlap {abs(overlap):.3e} below threshold"
        )
    return overlap


def weak_value(
    op: WeightedProjectorSum, pre: StateVector, post: StateVector
) -> WeakValueReport:
    """<post|A|pre> / <post|pre>, componentwise over the weight vector."""
    overlap = _check_selection(op.structure, pre, post)
    numerator = [0j] * op.dimension
    for label, weight in op.terms:
        cross = post.amplitude(label).conjugate() * pre.amplitude(label)
        for i, w in enumerate(weight):
            numerator[i] += w * cross
    value = tuple(n / overlap for n in numerator)
    return WeakValueReport(value, overlap, abs(overlap) ** 2)


def occupation_operator(
    structure: Structure, assignment: Mapping[str, str]
) -> WeightedProjectorSum:
    """Projector onto a (partial) level assignment, identity elsewhere.

    One entry gives a single-particle occupation number, two entries the
    joint two-particle one.
    """
    if not assignment:
        raise StructureError("occupation operator needs at least one arm")
    for name, level in assignment.items():
        structure.subsystem(name).index(level)
    terms = tuple(
        (label, (1.0,))
        for label in structure.product_labels()
        if all(label.level(n) == lv for n, lv in assignment.items())
    )
    return WeightedProjectorSum(structure, terms)


def identity_operator(structure: Structure) -> WeightedProjectorSum:
    return WeightedProjectorSum(
        structure, tuple((label, (1.0,)) for label in structure.product_labels())
    )


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


def arrival_time_operator(
    structure: Structure,
    measured: Sequence[str],
    gamma: float,
    epsilon: float,
) -> WeightedProjectorSum:
    """Arrival-time observable: delay gamma on H, epsilon on V, per photon.

    ``measured`` names the photons carrying a pointer; unmeasured photons
    are traced along as identity.  The weight vector has one component
    per measured photon, in the given order.
    """
    delays = polarization_delays(structure, measured, gamma, epsilon)
    terms = tuple(
        (label, tuple(delays[label.level(name)] for name in measured))
        for label in structure.product_labels()
    )
    return WeightedProjectorSum(structure, terms)


def projector_weak_decomposition(
    op: WeightedProjectorSum, pre: StateVector, post: StateVector
) -> tuple[ProjectorWeakValue, ...]:
    """Weak value of each projector in ``op`` separately.

    The weight-weighted sum of the rows reconstructs weak_value(op): the
    operator identity survives post-selection term by term.
    """
    overlap = _check_selection(op.structure, pre, post)
    rows = []
    for label, weight in op.terms:
        value = post.amplitude(label).conjugate() * pre.amplitude(label) / overlap
        rows.append(ProjectorWeakValue(label, weight, value))
    return tuple(rows)
