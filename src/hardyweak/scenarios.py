"""End-to-end experiment configurations built from the optical elements.

Covers the two-particle interferometer runs, the counterfactual logic
argument over their outcomes, the four-photon swap that prepares the
photonic analogue, and the weak-value readout of the prepared pair.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .optics import (
    FockModeState,
    apply_annihilation,
    apply_first_beamsplitter,
    apply_second_beamsplitter,
    hom_combine,
    interferometer_structure,
    photon_pair_structure,
)
from .states import (
    GAMMA,
    PRUNE_THRESHOLD,
    BasisLabel,
    StateVector,
    Structure,
    Subnormalized,
    inner,
    tensor,
)
from .weakvalues import (
    POLARIZATION_TO_PATH,
    ProjectorWeakValue,
    WeakValueReport,
    check_overlap,
    coefficient_weak_value,
    polarization_delays,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

HARDY_OUTCOMES = ("gamma", "c+c-", "c+d-", "d+c-", "d+d-")
PORT_PAIRS = {
    "c+c-": ("c", "c"),
    "c+d-": ("c", "d"),
    "d+c-": ("d", "c"),
    "d+d-": ("d", "d"),
}

PHOTON_TO_PARTICLE = {"2": "+", "4": "-"}

# Combiner-input phase trims (radians) that rotate the three surviving
# swap branches onto a common phase; see run_entanglement_swap.
DEFAULT_SWAP_CALIBRATION = (0.0, -math.pi / 2.0)

SWAP_BRANCH_BOTH_DETECTED = "two_photon_click"
SWAP_BRANCH_V1 = "stray_v1"
SWAP_BRANCH_V3 = "stray_v3"


@dataclass(frozen=True)
class HardyConfig:
    """Which exit beamsplitter is installed on each interferometer."""

    bs2_positron_present: bool = True
    bs2_electron_present: bool = True


@dataclass(frozen=True)
class HardyResult:
    state: StateVector
    probabilities: Mapping[str, float]


def run_hardy_gedanken(config: HardyConfig = HardyConfig()) -> HardyResult:
    """Propagate the pair through both interferometers and tabulate ports."""
    return _hardy(config)  # once per configuration; the shared result is read-only


@functools.lru_cache(maxsize=8)
def _hardy(config: HardyConfig) -> HardyResult:
    s = interferometer_structure()
    sv = StateVector(s, {s.label("in", "in"): 1.0})
    sv = apply_first_beamsplitter(sv, "+")
    sv = apply_first_beamsplitter(sv, "-")
    sv = apply_annihilation(sv)
    sv = apply_second_beamsplitter(sv, "+", config.bs2_positron_present)
    sv = apply_second_beamsplitter(sv, "-", config.bs2_electron_present)
    probabilities = {"gamma": abs(sv.amplitude(GAMMA)) ** 2}
    for name, levels in PORT_PAIRS.items():
        probabilities[name] = abs(sv.amplitude(sv.structure.label(*levels))) ** 2
    return HardyResult(sv, MappingProxyType(probabilities))


@dataclass(frozen=True)
class CounterfactualAssignment:
    """Truth values for the four counterfactual detector propositions.

    c_plus / c_minus: the bright port would fire with that particle's
    exit splitter removed, i.e. the particle took the overlapping arm.
    d_plus / d_minus: the dark port fires with the splitter installed.
    """

    c_plus: bool
    c_minus: bool
    d_plus: bool
    d_minus: bool


CONSTRAINTS: tuple[tuple[str, Callable[[CounterfactualAssignment], bool]], ...] = (
    ("never-both-in-overlap", lambda a: not (a.c_plus and a.c_minus)),
    ("dark-plus-needs-minus-in-overlap", lambda a: (not a.d_plus) or a.c_minus),
    ("dark-minus-needs-plus-in-overlap", lambda a: (not a.d_minus) or a.c_plus),
    ("joint-dark-click", lambda a: a.d_plus and a.d_minus),
)

CONSTRAINT_NAMES = tuple(name for name, _ in CONSTRAINTS)


@dataclass(frozen=True)
class CounterfactualReport:
    constraints: tuple[str, ...]
    assignments: tuple[tuple[CounterfactualAssignment, tuple[str, ...]], ...]
    satisfying: tuple[CounterfactualAssignment, ...]


def counterfactual_check(
    include: Sequence[str] | None = None,
) -> CounterfactualReport:
    """Evaluate all sixteen assignments against the detector constraints.

    ``include`` restricts the active constraint set by name, e.g. to ask
    how much room is left once the observed joint dark click is dropped.
    Names count once, in any order: each set's report is built once and shared.
    """
    unknown = sorted(set(include or ()) - set(CONSTRAINT_NAMES))
    if unknown:
        raise ValueError(f"unknown constraint names: {unknown}")
    return _counterfactual(None if include is None else frozenset(include))


@functools.lru_cache(maxsize=32)
def _counterfactual(include: frozenset[str] | None) -> CounterfactualReport:
    active = CONSTRAINTS if include is None else tuple(
        (name, pred) for name, pred in CONSTRAINTS if name in include
    )
    rows = []
    satisfying = []
    for bits in itertools.product((False, True), repeat=4):
        assignment = CounterfactualAssignment(*bits)
        failed = tuple(name for name, pred in active if not pred(assignment))
        rows.append((assignment, failed))
        if not failed:
            satisfying.append(assignment)
    return CounterfactualReport(
        tuple(name for name, _ in active), tuple(rows), tuple(satisfying)
    )


def bell_pair(first: str, second: str) -> StateVector:
    s = Structure.of((first, ("H", "V")), (second, ("H", "V")))
    a = 1.0 / SQRT2
    return StateVector(s, {s.label("H", "H"): a, s.label("V", "V"): a})


@dataclass(frozen=True)
class SwapResult:
    """Post-selected photon pair left by the swap, per coherence branch.

    Branch weights always add up to the success probability.  Coherent
    mode carries a single merged branch; decohered mode keeps branches
    with distinguishable environments apart and only their weights are
    comparable to experiment.
    """

    mode: str
    branches: tuple[tuple[str, Subnormalized], ...]
    success_probability: float

    def conditional_state(self) -> StateVector:
        return self._conditional_state

    @functools.cached_property
    def _conditional_state(self) -> StateVector:
        if len(self.branches) != 1:
            raise ValueError("conditional state is defined for a single branch")
        return self.branches[0][1].state.renormalized()

    def fidelity_to(self, target: StateVector) -> float:
        return abs(inner(target, self.conditional_state())) ** 2


def run_entanglement_swap(
    mode: str = "coherent",
    phase_calibration: Sequence[float] = DEFAULT_SWAP_CALIBRATION,
) -> SwapResult:
    """Swap entanglement onto photons 2 and 4 by combining 1 and 3.

    Photons 1 and 3 pass polarizing splitters whose transmitted (H) modes
    meet on a balanced combiner; a bucket detector behind one output
    heralds success when it sees light and the other output stays dark.
    The V modes leave undetected, which is exactly why the three
    surviving branches live in distinguishable environments: ``mode``
    chooses whether to idealize them as coherent anyway.

    The result depends on nothing else, so it is computed once per mode
    and calibration and shared: callers get the same memoized, read-only
    ``SwapResult`` (its states' amplitudes cannot be written to).
    """
    if mode not in ("coherent", "decohered"):
        raise ValueError(f"unknown swap mode {mode!r}")
    if len(phase_calibration) != 2:
        raise ValueError("phase calibration needs one entry per combiner input")
    return _swap(mode, tuple(phase_calibration))


@functools.lru_cache(maxsize=8)
def _swap(mode: str, phase_calibration: tuple[float, ...]) -> SwapResult:
    phase_a, phase_b = (cmath.exp(1j * p) for p in phase_calibration)
    four = tensor(bell_pair("1", "2"), bell_pair("3", "4"))
    pair = photon_pair_structure()
    branch_amps: dict[str, dict[BasisLabel, complex]] = {}
    for label, amp in four.items():
        # Polarizing splitters transmit H to the combiner and reflect V away.
        pol1, pol3 = label.level("1"), label.level("3")
        n_a = 1 if pol1 == "H" else 0
        n_b = 1 if pol3 == "H" else 0
        trimmed = amp * (phase_a**n_a) * (phase_b**n_b)
        combined = hom_combine(
            FockModeState(("a", "b"), {(n_a, n_b): 1.0}),
            out_modes=("detector", "idle"),
        )
        pair_label = pair.label(label.level("2"), label.level("4"))
        for (n_det, n_idle), route in combined.amplitudes.items():
            if n_det < 1 or n_idle != 0:
                continue
            if pol1 == "V":
                env = SWAP_BRANCH_V1
            elif pol3 == "V":
                env = SWAP_BRANCH_V3
            else:
                env = SWAP_BRANCH_BOTH_DETECTED
            bucket = branch_amps.setdefault(env, {})
            bucket[pair_label] = bucket.get(pair_label, 0j) + trimmed * route
    if mode == "coherent":
        merged: dict[BasisLabel, complex] = {}
        for bucket in branch_amps.values():
            for lab, a in bucket.items():
                merged[lab] = merged.get(lab, 0j) + a
        branches = (("merged", Subnormalized.of(StateVector(pair, merged).prune())),)
    else:
        branches = tuple(
            (env, Subnormalized.of(StateVector(pair, bucket).prune()))
            for env, bucket in sorted(branch_amps.items())
        )
    success = sum(sub.weight for _, sub in branches)
    return SwapResult(mode, branches, success)


def entangled_target_state() -> StateVector:
    """The pair the calibrated swap is meant to leave behind."""
    s = photon_pair_structure()
    a = 1.0 / SQRT3
    return StateVector(
        s,
        {s.label("H", "H"): a, s.label("H", "V"): a, s.label("V", "H"): a},
    )


def analyzer_post_selection(phi: float = -math.pi / 4.0) -> StateVector:
    """Both photons detected in H behind analyzers rotated by phi.

    The product of cos(phi)|H> + sin(phi)|V> per photon, each amplitude
    bit for bit that of the H H ket rotated by -phi on each photon.  An
    amplitude below ``PRUNE_THRESHOLD`` is left out, as ``prune`` would.
    """
    factor = {"H": math.cos(-phi), "V": -math.sin(-phi)}
    s = photon_pair_structure()
    products = ((label, factor[label.pairs[0][1]] * factor[label.pairs[1][1]])
                for label in s.product_labels())  # photon 2, then photon 4
    return StateVector(s, {label: a for label, a in products if abs(a) >= PRUNE_THRESHOLD})


@functools.lru_cache(maxsize=1)  # the memoized pair's (level per photon, amplitude) entries
def _coherent_pair() -> tuple[tuple[dict[str, str], complex], ...]:
    pre = run_entanglement_swap("coherent").conditional_state()
    return tuple((dict(label.pairs), ket) for label, ket in pre.items())


def analyzer_coefficients(measured_sets: Sequence[Sequence[str]], phi: float = -math.pi / 4.0
                          ) -> list[tuple[tuple[tuple[str, ...], complex], ...]]:
    """``level_coefficients`` of the coherent pair at ``analyzer_post_selection(phi)``,
    bit for bit, with no state built: the pair's entries times one factor per photon."""
    factor = {"H": math.cos(-phi), "V": -math.sin(-phi)}
    collected: list[dict[tuple[str, ...], complex]] = [{} for _ in measured_sets]
    for level, ket in _coherent_pair():
        a = factor[level["2"]] * factor[level["4"]]
        cross = complex(a).conjugate() * ket
        if abs(a) >= PRUNE_THRESHOLD and cross != 0j:
            for measured, coeffs in zip(measured_sets, collected):
                key = tuple([level[photon] for photon in measured])
                coeffs[key] = coeffs.get(key, 0j) + cross
    return [tuple(sorted(coeffs.items())) for coeffs in collected]


@dataclass(frozen=True)
class OccupationRow:
    """One occupation weak value in both vocabularies."""

    photonic: str
    path: str
    value: complex


@dataclass(frozen=True)
class PhotonicWeakReport:
    gamma: float
    epsilon: float
    pre: StateVector
    post: StateVector
    overlap: complex
    success_probability: float
    photon2: WeakValueReport
    photon4: WeakValueReport
    joint: WeakValueReport
    decomposition: tuple[ProjectorWeakValue, ...]
    occupations: tuple[OccupationRow, ...]


@functools.lru_cache(maxsize=1)
def _standard_selection() -> tuple[StateVector, StateVector, tuple, tuple[OccupationRow, ...]]:
    # Everything in a photonic-weak report that does not depend on the
    # delays.  A label the pre-selection does not hold, such as V2 V4, has
    # coefficient 0 (the paper's N_{O+O-} = 0).
    pre = run_entanglement_swap("coherent").conditional_state()
    post = analyzer_post_selection()
    measured = (("2",), ("4",), ("2", "4"))
    tables = dict(zip(measured, map(dict, analyzer_coefficients(measured))))
    pair = tuple((label, tables["2", "4"].get(tuple(lv for _, lv in label.pairs), 0j))
                 for label in pre.structure.product_labels())
    # coefficient_weak_value's sum over the pair, so the overlap it reports
    overlap = check_overlap(functools.reduce(operator.add, (c for _, c in pair), 0j))
    rows = []
    for photons, levels in [*(((ph,), (lv,)) for lv in "VH" for ph in "24"),
                            *((("2", "4"), lvs) for lvs in itertools.product("VH", repeat=2))]:
        photonic = " ".join(f"{lv}{ph}" for ph, lv in zip(photons, levels))
        path = " ".join(f"{POLARIZATION_TO_PATH[lv]}{PHOTON_TO_PARTICLE[ph]}"
                        for ph, lv in zip(photons, levels))
        rows.append(OccupationRow(photonic, path, tables[photons].get(levels, 0j) / overlap))
    return pre, post, pair, tuple(rows)


def run_photonic_weak(gamma: float = 0.0, epsilon: float = 1.0) -> PhotonicWeakReport:
    """Weak arrival-time readout of the swapped pair at the standard analyzers:
    the delays weight the pair's coefficients, sum d c / sum c."""
    pre, post, pair, occupations = _standard_selection()
    delays = polarization_delays(pre.structure, ("2", "4"), gamma, epsilon)
    terms = [(tuple(delays[lv] for _, lv in label.pairs), c) for label, c in pair]
    joint = coefficient_weak_value(terms)
    # A photon's own operator (the tests' oracle) gives its joint component bit for bit.
    photon2, photon4 = (replace(joint, value=(w,)) for w in joint.value)
    return PhotonicWeakReport(
        gamma=gamma,
        epsilon=epsilon,
        pre=pre,
        post=post,
        overlap=joint.overlap,
        success_probability=joint.success_probability,
        photon2=photon2,
        photon4=photon4,
        joint=joint,
        decomposition=tuple(ProjectorWeakValue(label, w, c / joint.overlap)
                            for (label, _), (w, c) in zip(pair, terms)),
        occupations=occupations,
    )
