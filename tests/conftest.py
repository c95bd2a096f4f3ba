"""Shared literal reference states, the optics-built routes to them, and
small helpers.

The expected amplitude tables here were derived by hand from the
interferometer convention (entry splitter sends the input to
(i|O> + |NO>)/sqrt2, exit splitter present sends O -> (|c> + i|d>)/sqrt2
and NO -> (i|c> + |d>)/sqrt2, absent relabels O -> c, NO -> d) and are
frozen: implementation changes must reproduce them, not the other way
around.
"""
from __future__ import annotations

import math

from hardyweak.optics import (
    apply_annihilation,
    apply_first_beamsplitter,
    apply_level_map,
    interferometer_structure,
    splitter_map,
)
from hardyweak.states import GAMMA, StateVector, Structure, inner

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Overlap of the surviving-paths pre-selection with the dark-port
# coincidence post-selection, expanded by hand.
PRE_POST_OVERLAP = -1.0 / (2.0 * SQRT3)


def arm_structure() -> Structure:
    return Structure.of(("+", ("O", "NO")), ("-", ("O", "NO")))


def port_structure() -> Structure:
    return Structure.of(("+", ("c", "d")), ("-", ("c", "d")))


def photon_structure() -> Structure:
    return Structure.of(("2", ("H", "V")), ("4", ("H", "V")))


def state_of(structure: Structure, table: dict[tuple[str, ...] | None, complex]) -> StateVector:
    """Build a state from {levels-tuple: amplitude}; key None means GAMMA."""
    amps = {}
    for key, amp in table.items():
        label = GAMMA if key is None else structure.label(*key)
        amps[label] = amp
    return StateVector(structure, amps)


def surviving_paths_literal() -> StateVector:
    a = 1.0 / SQRT3
    return state_of(
        arm_structure(),
        {("O", "NO"): a, ("NO", "O"): a, ("NO", "NO"): a},
    )


def dark_coincidence_literal() -> StateVector:
    # (1/2) (|NO+> - |O+>) (|NO-> - |O->)
    return state_of(
        arm_structure(),
        {("NO", "NO"): 0.5, ("NO", "O"): -0.5, ("O", "NO"): -0.5, ("O", "O"): 0.5},
    )


def annihilated_pair() -> StateVector:
    """Both particles through their entry splitters, then the annihilation."""
    s = interferometer_structure()
    sv = apply_first_beamsplitter(StateVector(s, {s.label("in", "in"): 1.0}), "+")
    return apply_annihilation(apply_first_beamsplitter(sv, "-"))


def surviving_paths_state() -> StateVector:
    """The pre-selection grown by the optics: the three arm pairs that survive
    the annihilation, renormalized.  Equals surviving_paths_literal() up to
    branch phases."""
    sv = annihilated_pair()
    survivors = {lab: amp for lab, amp in sv.items() if not lab.is_gamma}
    return StateVector(sv.structure, survivors).renormalized()


def dark_port_coincidence_state() -> StateVector:
    """The joint dark-port detection pulled back through both exit splitters
    by the adjoint splitter map.  Equals dark_coincidence_literal() up to
    branch phases."""
    split = splitter_map(("O", "NO"), ("c", "d"))
    adjoint = {port: {arm: row[port].conjugate() for arm, row in split.items()}
               for port in ("c", "d")}
    sv = state_of(port_structure(), {("d", "d"): 1.0})
    sv = apply_level_map(sv, "+", adjoint, ("O", "NO"))
    return apply_level_map(sv, "-", adjoint, ("O", "NO"))


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    return a.normalized and b.normalized and abs(inner(a, b)) >= 1.0 - 1e-9


def rotate_polarization(state: StateVector, photon: str, phi: float) -> StateVector:
    """Rotate one photon's polarization basis by phi (a real rotation)."""
    c, s = math.cos(phi), math.sin(phi)
    mapping = {"H": {"H": c, "V": -s}, "V": {"H": s, "V": c}}
    return apply_level_map(state, photon, mapping, ("H", "V"))


def entangled_target_literal() -> StateVector:
    a = 1.0 / SQRT3
    return state_of(
        photon_structure(),
        {("H", "H"): a, ("H", "V"): a, ("V", "H"): a},
    )


def analyzer_literal() -> StateVector:
    # Post-selection for both analyzers rotated to -pi/4 and firing in H.
    return state_of(
        photon_structure(),
        {("H", "H"): 0.5, ("H", "V"): -0.5, ("V", "H"): -0.5, ("V", "V"): 0.5},
    )


def expected_final_table(plus_present: bool, minus_present: bool) -> dict:
    """Frozen final amplitudes of the two-particle interferometer run.

    Keys are outcome names over {gamma, c+c-, c+d-, d+c-, d+d-}.
    """
    s = 1.0 / (2.0 * SQRT2)
    if plus_present and minus_present:
        return {
            "gamma": -0.5,
            "c+c-": -0.75,
            "c+d-": 0.25j,
            "d+c-": 0.25j,
            "d+d-": -0.25,
        }
    if not plus_present and minus_present:
        return {
            "gamma": -0.5,
            "c+c-": -s,
            "c+d-": 1j * s,
            "d+c-": 2j * s,
            "d+d-": 0.0,
        }
    if plus_present and not minus_present:
        return {
            "gamma": -0.5,
            "c+c-": -s,
            "c+d-": 2j * s,
            "d+c-": 1j * s,
            "d+d-": 0.0,
        }
    return {
        "gamma": -0.5,
        "c+c-": 0.0,
        "c+d-": 0.5j,
        "d+c-": 0.5j,
        "d+d-": 0.5,
    }


OUTCOME_LEVELS = {
    "c+c-": ("c", "c"),
    "c+d-": ("c", "d"),
    "d+c-": ("d", "c"),
    "d+d-": ("d", "d"),
}


def expected_final_state(plus_present: bool, minus_present: bool) -> StateVector:
    table = expected_final_table(plus_present, minus_present)
    keyed = {None: table["gamma"]}
    for name, levels in OUTCOME_LEVELS.items():
        if table[name] != 0.0:
            keyed[levels] = table[name]
    return state_of(port_structure(), keyed)
