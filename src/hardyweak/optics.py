"""Linear-optical elements acting on labeled path and polarization states.

All elements are expressed as level maps: a subsystem's alphabet is
rewritten through a linear, norm-preserving substitution while every
other subsystem (and the GAMMA channel) rides along untouched.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .states import GAMMA, BasisLabel, StateVector, Structure, StructureError

MAX_OCCUPANCY = 2

ENTRY_LEVEL = "in"
ARM_LEVELS = ("O", "NO")
PORT_LEVELS = ("c", "d")
POLARIZATION_LEVELS = ("H", "V")


class UnsupportedOccupancyError(ValueError):
    """More photons per mode than the two-photon model supports."""


@functools.cache  # a Structure is frozen: one per process
def interferometer_structure() -> Structure:
    """Particles + and -, each about to enter its interferometer."""
    return Structure.of(("+", (ENTRY_LEVEL,)), ("-", (ENTRY_LEVEL,)))


@functools.cache
def photon_pair_structure() -> Structure:
    """Photons 2 and 4, each polarized H or V."""
    return Structure.of(("2", POLARIZATION_LEVELS), ("4", POLARIZATION_LEVELS))


LevelMap = Mapping[str, Mapping[str, complex]]


# The balanced splitter, the one phase convention of the package: each
# port transmits with a real amplitude and reflects with a factor i.
TRANSMIT = 1.0 / math.sqrt(2.0)
REFLECT = 1j * TRANSMIT


def splitter_map(inputs: tuple[str, ...], outputs: tuple[str, str]) -> LevelMap:
    """The balanced splitter as a level map: the k-th input transmits to
    the k-th output and reflects to the other one.  A single input gives
    the one-port entry splitter."""
    first, second = outputs
    rows = ({first: TRANSMIT, second: REFLECT}, {first: REFLECT, second: TRANSMIT})
    return dict(zip(inputs, rows))


def apply_level_map(
    state: StateVector,
    name: str,
    mapping: LevelMap,
    new_levels: tuple[str, ...],
) -> StateVector:
    """Rewrite one subsystem's levels through a linear substitution."""
    sub = state.structure.subsystem(name)
    if set(mapping) != set(sub.levels):
        raise StructureError(
            f"level map on {name!r} covers {tuple(mapping)}, but {name!r} has {sub.levels}"
        )
    for row in mapping.values():
        for target in row:
            if target not in new_levels:
                raise StructureError(f"map targets unknown level {target!r}")
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.items():
        if label.is_gamma:
            out[GAMMA] = out.get(GAMMA, 0j) + amp
            continue
        for new_level, factor in mapping[label.level(name)].items():
            nl = label.with_level(name, new_level)
            out[nl] = out.get(nl, 0j) + amp * factor
    result = StateVector(state.structure.replace(name, new_levels), out)
    return result.prune()


def apply_first_beamsplitter(state: StateVector, particle: str) -> StateVector:
    """Split a particle waiting at its entry into the O / NO arm pair."""
    entry = state.structure.subsystem(particle).levels[:1]
    return apply_level_map(state, particle, splitter_map(entry, ("NO", "O")), ARM_LEVELS)


def apply_annihilation(state: StateVector) -> StateVector:
    """Move the all-overlapping amplitude onto the GAMMA channel.

    Norm-preserving by construction: one basis amplitude is relocated,
    nothing else changes.
    """
    for sub in state.structure.subsystems:
        if set(sub.levels) != set(ARM_LEVELS):
            raise StructureError(
                f"annihilation expects every particle in {ARM_LEVELS}, "
                f"{sub.name!r} has {sub.levels}"
            )
    meeting = state.structure.label(*(["O"] * len(state.structure.subsystems)))
    amps = dict(state.amplitudes)
    moved = amps.pop(meeting, 0j)
    if moved != 0j:
        amps[GAMMA] = amps.get(GAMMA, 0j) + moved
    return StateVector(state.structure, amps)


def apply_second_beamsplitter(
    state: StateVector, particle: str, present: bool
) -> StateVector:
    """Recombine (or, absent, merely relabel) one particle's arms into ports."""
    if present:
        mapping = splitter_map(ARM_LEVELS, PORT_LEVELS)
    else:
        mapping = {"O": {"c": 1.0}, "NO": {"d": 1.0}}
    return apply_level_map(state, particle, mapping, PORT_LEVELS)


@dataclass(frozen=True)
class FockModeState:
    """Occupation-number amplitudes over a fixed tuple of named modes."""

    modes: tuple[str, ...]
    amplitudes: dict[tuple[int, ...], complex]

    def __post_init__(self) -> None:
        for occ in self.amplitudes:
            if len(occ) != len(self.modes):
                raise StructureError("occupation tuple does not match mode count")
            if any(n < 0 or n > MAX_OCCUPANCY for n in occ):
                raise UnsupportedOccupancyError(
                    f"occupancy beyond {MAX_OCCUPANCY} photons per mode: {occ}"
                )
        ordered = dict(
            sorted((occ, complex(a)) for occ, a in self.amplitudes.items())
        )
        object.__setattr__(self, "amplitudes", ordered)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())


def hom_combine(
    state: FockModeState, out_modes: tuple[str, str] = ("c", "d")
) -> FockModeState:
    """Interfere two bosonic input modes on a balanced splitter.

    Implemented as the creation-operator substitution
    a+ -> (c+ + i d+)/sqrt2, b+ -> (i c+ + d+)/sqrt2, so one photon in
    each input bunches: the coincidence amplitude cancels exactly.
    """
    if len(state.modes) != 2:
        raise StructureError("combiner expects exactly two input modes")
    a_row, b_row = splitter_map(("a", "b"), ("c", "d")).values()
    out: dict[tuple[int, ...], complex] = {}
    for (na, nb), amp in state.amplitudes.items():
        if na + nb > MAX_OCCUPANCY:
            raise UnsupportedOccupancyError(
                f"combiner supports at most {MAX_OCCUPANCY} photons, got {na + nb}"
            )
        # Expand (a+)^na (b+)^nb over the output operators.
        poly: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0j}
        for row in [a_row] * na + [b_row] * nb:
            grown: dict[tuple[int, int], complex] = {}
            for (j, k), coeff in poly.items():
                grown[(j + 1, k)] = grown.get((j + 1, k), 0j) + coeff * row["c"]
                grown[(j, k + 1)] = grown.get((j, k + 1), 0j) + coeff * row["d"]
            poly = grown
        scale = 1.0 / math.sqrt(math.factorial(na) * math.factorial(nb))
        for (j, k), coeff in poly.items():
            boson = math.sqrt(math.factorial(j) * math.factorial(k))
            term = amp * coeff * boson * scale
            if abs(term) < 1e-15:
                continue
            out[(j, k)] = out.get((j, k), 0j) + term
    cleaned = {occ: a for occ, a in out.items() if abs(a) >= 1e-15}
    return FockModeState(out_modes, cleaned)
