"""Weak values of weighted projector sums between pre- and post-selection.

The central quantity is <post|A|pre> / <post|pre> for operators that are
real-weighted sums of product-basis projectors.  Weights are k-vectors so
a joint arrival-time observable can carry one delay per measured photon;
plain occupation numbers are the k = 1 case.

Reports weight one label walk's coefficients, sum d c / sum c, by
linearity (Aharonov et al., Phys. Lett. A 301, 130 (2002)); ``weak_value``
of an explicit ``WeightedProjectorSum`` is the independent cross-check.
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
    """sum d c / sum c per component of the weights d, in ``weak_value``'s
    order: over a walk's coefficients c, the weak value of the operator
    with those weights.  An orthogonal selection is refused."""
    overlap, numerator = 0j, [0j] * (len(terms[0][0]) if terms else 0)
    for weights, coeff in terms:
        overlap += coeff
        numerator = [n + w * coeff for n, w in zip(numerator, weights)]
    overlap = check_overlap(overlap)
    return WeakValueReport(tuple(n / overlap for n in numerator), overlap, abs(overlap) ** 2)


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
