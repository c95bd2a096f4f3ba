"""The operator route to a weak value, kept as the reference for the one
route the program prints.

The program forms every weak value from one label walk's coefficients
(``weakvalues.level_coefficients``) weighted by Σ d·c / Σ c
(``coefficient_weak_value``).  Here the observable is built explicitly, a
sum of product-basis projectors with real k-vector weights
(``WeightedProjectorSum``; one delay per measured photon, or k = 1 for an
occupation number), and <post|A|pre> / <post|pre> is summed projector by
projector over every label of the structure.  The two agree by the
linearity of weak values (Aharonov et al., Phys. Lett. A 301, 130 (2002)).

The route states its own delay convention and selection checks.  From the
package it takes the states, the orthogonality check and the report types
only; it calls neither ``level_coefficients`` nor ``coefficient_weak_value``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from hardyweak.states import BasisLabel, StateVector, Structure, StructureError, inner
from hardyweak.weakvalues import ProjectorWeakValue, WeakValueReport, check_overlap


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


def _check_selection(op_structure: Structure, pre: StateVector, post: StateVector) -> complex:
    if pre.structure != op_structure or post.structure != op_structure:
        raise StructureError("operator, pre-, and post-selection must share a structure")
    if not (pre.normalized and post.normalized):
        raise ValueError("pre- and post-selection must be normalized")
    return check_overlap(inner(post, pre))


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


def identity_operator(structure: Structure) -> WeightedProjectorSum:
    return WeightedProjectorSum(
        structure, tuple((lab, (1.0,)) for lab in structure.product_labels()))


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
    for name in measured:
        sub = structure.subsystem(name)
        if set(sub.levels) != {"H", "V"}:
            raise StructureError(
                f"arrival time is defined on H/V photons, not {name!r} with {sub.levels}"
            )
    delays = {"H": float(gamma), "V": float(epsilon)}
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
