"""Sparse labeled state vectors over small tensor products of named subsystems.

A state is a finite map from basis labels to complex amplitudes.  Labels
address every declared subsystem by name, except the distinguished GAMMA
label which marks the annihilation channel and is orthogonal to every
product label.
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

# Amplitudes below this modulus carry no physical information at double
# precision and may be dropped without moving any probability by > 1e-12.
PRUNE_THRESHOLD = 1e-15
NORM_TOLERANCE = 1e-12


class StructureError(ValueError):
    """Labels, subsystem names, or layouts do not line up."""


@dataclass(frozen=True)
class Subsystem:
    """A named degree of freedom with a fixed, ordered level alphabet."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise StructureError(f"subsystem {self.name!r} has an empty alphabet")
        if len(set(self.levels)) != len(self.levels):
            raise StructureError(f"subsystem {self.name!r} repeats a level name")

    def index(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise StructureError(
                f"level {level!r} not in alphabet of subsystem {self.name!r}"
            ) from None


@dataclass(frozen=True)
class Structure:
    """Ordered collection of subsystems defining a product basis."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise StructureError("subsystem names must be unique")

    @classmethod
    def of(cls, *specs: tuple[str, Iterable[str]]) -> Structure:
        return cls(tuple(Subsystem(name, tuple(levels)) for name, levels in specs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    def subsystem(self, name: str) -> Subsystem:
        for s in self.subsystems:
            if s.name == name:
                return s
        raise StructureError(f"unknown subsystem {name!r}")

    def label(self, *levels: str) -> BasisLabel:
        """Product label from one level per subsystem, in declaration order."""
        if len(levels) != len(self.subsystems):
            raise StructureError(
                f"expected {len(self.subsystems)} levels, got {len(levels)}"
            )
        label = BasisLabel(tuple(zip(self.names, levels)))
        self.validate_label(label)
        return label

    def product_labels(self) -> Iterator[BasisLabel]:
        """All product labels in canonical (alphabet-index) order."""
        return iter(self._label_index)

    def replace(self, name: str, levels: Iterable[str]) -> Structure:
        self.subsystem(name)
        return Structure(
            tuple(
                Subsystem(s.name, tuple(levels)) if s.name == name else s
                for s in self.subsystems
            )
        )

    def concat(self, other: Structure) -> Structure:
        if set(self.names) & set(other.names):
            raise StructureError("subsystem names collide in tensor product")
        return Structure(self.subsystems + other.subsystems)

    @cached_property
    def _label_index(self) -> dict[BasisLabel, int]:
        return _product_basis(self.subsystems)

    def validate_label(self, label: BasisLabel) -> None:
        if label.is_gamma or label in self._label_index:
            return
        # A foreign label: find the part that does not line up.
        if tuple(name for name, _ in label.pairs) != self.names:
            raise StructureError(f"label {label} does not address {self.names}")
        for (name, level), sub in zip(label.pairs, self.subsystems):
            sub.index(level)

    def sort_key(self, label: BasisLabel) -> tuple:
        # GAMMA sorts first; product labels follow alphabet declaration order.
        if label.is_gamma:
            return (0,)
        index = self._label_index.get(label)
        if index is None:
            self.validate_label(label)
        return (1, index)


@lru_cache(maxsize=64)
def _product_basis(subsystems: tuple[Subsystem, ...]) -> dict[BasisLabel, int]:
    # Product labels in canonical order (the last subsystem varies fastest).
    names = [s.name for s in subsystems]
    levels = itertools.product(*(s.levels for s in subsystems))
    return {BasisLabel(tuple(zip(names, lv))): i for i, lv in enumerate(levels)}


@dataclass(frozen=True)
class BasisLabel:
    """One basis element: a level assignment per subsystem, or GAMMA."""

    pairs: tuple[tuple[str, str], ...]
    is_gamma: bool = False
    # Labels key every amplitude map, so each is hashed once, when built.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.pairs, self.is_gamma)))

    def __hash__(self) -> int:
        return self._hash

    def level(self, name: str) -> str:
        for n, level in self.pairs:
            if n == name:
                return level
        raise StructureError(f"label {self} does not address subsystem {name!r}")

    def with_level(self, name: str, level: str) -> BasisLabel:
        return BasisLabel(
            tuple((n, level if n == name else lv) for n, lv in self.pairs)
        )

    def __str__(self) -> str:
        if self.is_gamma:
            return "gamma"
        return " ".join(f"{level}{name}" for name, level in self.pairs)


GAMMA = BasisLabel((), is_gamma=True)


@dataclass(frozen=True)
class StateVector:
    """Finite complex amplitude map over one structure's basis.

    The ``normalized`` flag is derived at construction: true iff the
    squared norm is within 1e-12 of one.  Amplitudes are stored in
    canonical label order so iteration is deterministic, behind a
    read-only view: states are shared (the swap's are memoized), so
    none may change after construction.
    """

    structure: Structure
    amplitudes: Mapping[BasisLabel, complex]
    normalized: bool = field(init=False)

    def __post_init__(self) -> None:
        # A map of product labels already in canonical order is kept as it
        # is.  Any other is sorted, and sorting validates: sort_key rejects
        # a label foreign to the structure (GAMMA has no position either).
        items = self.amplitudes.items()
        positions = list(map(self.structure._label_index.get, self.amplitudes))
        if None in positions or positions != sorted(positions):
            key = self.structure.sort_key
            items = sorted(items, key=lambda kv: key(kv[0]))
        ordered = {lab: complex(amp) for lab, amp in items}
        object.__setattr__(self, "amplitudes", MappingProxyType(ordered))
        object.__setattr__(
            self, "normalized", abs(self.norm_sq() - 1.0) <= NORM_TOLERANCE
        )

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def amplitude(self, label: BasisLabel) -> complex:
        return self.amplitudes.get(label, 0j)

    def items(self) -> Iterator[tuple[BasisLabel, complex]]:
        return iter(self.amplitudes.items())

    def prune(self) -> StateVector:
        return StateVector(
            self.structure,
            {lab: a for lab, a in self.amplitudes.items() if abs(a) >= PRUNE_THRESHOLD},
        )

    def scaled(self, factor: complex) -> StateVector:
        return StateVector(
            self.structure, {lab: factor * a for lab, a in self.amplitudes.items()}
        )

    def renormalized(self) -> StateVector:
        n = self.norm_sq()
        if n <= PRUNE_THRESHOLD:
            raise StructureError("cannot renormalize a state of vanishing norm")
        return self.scaled(1.0 / cmath.sqrt(n))

    def __str__(self) -> str:
        terms = ", ".join(f"|{lab}> {amp:.6g}" for lab, amp in self.items())
        return f"StateVector({terms})"


@dataclass(frozen=True)
class Subnormalized:
    """A conditioned state together with the probability weight of its branch."""

    state: StateVector
    weight: float

    def __post_init__(self) -> None:
        if abs(self.weight - self.state.norm_sq()) > NORM_TOLERANCE:
            raise StructureError(
                "weight must equal the squared norm of the carried state"
            )

    @classmethod
    def of(cls, state: StateVector) -> Subnormalized:
        return cls(state, state.norm_sq())


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; subsystem names must be disjoint and GAMMA-free."""
    for s in (a, b):
        if any(lab.is_gamma for lab in s.amplitudes):
            raise StructureError("tensor factors must not contain GAMMA")
    structure = a.structure.concat(b.structure)
    out: dict[BasisLabel, complex] = {}
    for la, aa in a.items():
        for lb, ab in b.items():
            out[BasisLabel(la.pairs + lb.pairs)] = aa * ab
    return StateVector(structure, out)


def inner(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> over shared labels (GAMMA included when both carry it)."""
    if bra.structure != ket.structure:
        raise StructureError("inner product requires identical structures")
    acc = 0j
    for label, amp in ket.items():
        ba = bra.amplitudes.get(label)
        if ba is not None:
            acc += ba.conjugate() * amp
    return acc
