"""Acceptance gate: one criterion per test, one printed verdict per run.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every criterion states its tolerance inline and fails loudly instead of
loosening it.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import replace

from hardyweak.optics import FockModeState, hom_combine
from hardyweak.pointer import (
    PointerSpec,
    analytic_moments,
    build_pointer_profile,
    pointer_moments,
    pointer_terms,
)
from hardyweak.scenarios import (
    CONSTRAINT_NAMES,
    HardyConfig,
    analyzer_post_selection,
    counterfactual_check,
    entangled_target_state,
    run_entanglement_swap,
    run_hardy_gedanken,
    run_photonic_weak,
)
from hardyweak.states import StateVector
from hardyweak.cli import run_cli

from conftest import (
    dark_coincidence_literal,
    dark_port_coincidence_state,
    expected_final_state,
    surviving_paths_literal,
    surviving_paths_state,
)
from oracle import (
    arrival_time_operator,
    identity_operator,
    occupation_operator,
    projector_weak_decomposition,
    weak_value,
)

SQRT3 = math.sqrt(3.0)


def _report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}")
    assert ok, f"acceptance criterion {number:02d} {name} failed"


def test_01_final_states_match_frozen_tables():
    ok = True
    for plus, minus in itertools.product((True, False), repeat=2):
        result = run_hardy_gedanken(HardyConfig(plus, minus))
        expected = expected_final_state(plus, minus)
        for label, amp in expected.items():
            ok = ok and abs(result.state.amplitude(label) - amp) <= 1e-12
        for label, amp in result.state.items():
            ok = ok and abs(expected.amplitude(label) - amp) <= 1e-12
    _report(1, "final states, all four splitter configurations", ok)


def test_02_headline_probabilities():
    both = run_hardy_gedanken(HardyConfig(True, True)).probabilities
    neither = run_hardy_gedanken(HardyConfig(False, False)).probabilities
    ok = abs(both["d+d-"] - 1.0 / 16.0) <= 1e-12
    ok = ok and abs(both["gamma"] - 0.25) <= 1e-12
    ok = ok and abs(neither["c+c-"]) <= 1e-12
    _report(2, "joint dark click 1/16, annihilation 1/4, bright veto 0", ok)


def test_03_counterfactual_contradiction():
    full = counterfactual_check()
    relaxed_names = tuple(
        name for name in CONSTRAINT_NAMES if name != "joint-dark-click"
    )
    relaxed = counterfactual_check(include=relaxed_names)

    # Independent enumeration of the same constraint semantics.
    brute_full = set()
    brute_relaxed = set()
    for cp, cm, dp, dm in itertools.product((False, True), repeat=4):
        basic = not (cp and cm) and ((not dp) or cm) and ((not dm) or cp)
        if basic:
            brute_relaxed.add((cp, cm, dp, dm))
            if dp and dm:
                brute_full.add((cp, cm, dp, dm))

    got_full = {
        (a.c_plus, a.c_minus, a.d_plus, a.d_minus) for a in full.satisfying
    }
    got_relaxed = {
        (a.c_plus, a.c_minus, a.d_plus, a.d_minus) for a in relaxed.satisfying
    }
    ok = got_full == brute_full == set()
    ok = ok and got_relaxed == brute_relaxed and len(got_relaxed) == 5
    _report(3, "counterfactual count 0 strict, 5 without the joint click", ok)


def test_04_occupation_weak_values_two_routes():
    expected = {
        "O-": 1.0, "O+": 1.0, "NO-": 0.0, "NO+": 0.0,
        "O+ O-": 0.0, "O+ NO-": 1.0, "NO+ O-": 1.0, "NO+ NO-": -1.0,
    }
    # The literal states, then the same selection grown through the optics.
    routes = ((surviving_paths_literal(), dark_coincidence_literal()),
              (surviving_paths_state(), dark_port_coincidence_state()))
    ok = True
    for name, want in expected.items():
        # "NO+ O-" reads as {"+": "NO", "-": "O"}; both routes share the arm basis.
        op = occupation_operator(routes[0][0].structure,
                                 {part[-1]: part[:-1] for part in name.split()})
        literal, grown = (weak_value(op, pre, post).scalar for pre, post in routes)
        ok = ok and abs(literal - want) <= 1e-12 and abs(grown - want) <= 1e-12
        ok = ok and abs(literal - grown) <= 1e-12
    _report(4, "occupation weak values on both construction routes", ok)


def test_05_arrival_time_weak_values():
    ok = True
    for gamma, epsilon in ((0.0, 1.0), (0.3, 1.7), (1.0, 1.0)):
        report = run_photonic_weak(gamma, epsilon)
        ok = ok and abs(report.photon2.scalar - epsilon) <= 1e-12
        ok = ok and abs(report.photon4.scalar - epsilon) <= 1e-12
        for component in report.joint.value:
            ok = ok and abs(component - epsilon) <= 1e-12
        recombined = [0.0j, 0.0j]
        for row in report.decomposition:
            for i, w in enumerate(row.weight):
                recombined[i] += w * row.value
        for total, direct in zip(recombined, report.joint.value):
            ok = ok and abs(total - direct) <= 1e-12
    _report(5, "arrival times equal the late delay, decomposition closes", ok)


def test_06_swap_preparation():
    coherent = run_entanglement_swap("coherent")
    decohered = run_entanglement_swap("decohered")
    ok = coherent.fidelity_to(entangled_target_state()) >= 1.0 - 1e-12
    ok = ok and abs(coherent.success_probability - 0.375) <= 1e-12
    ok = ok and len(decohered.branches) == 3
    for _, sub in decohered.branches:
        ok = ok and abs(sub.weight - 0.125) <= 1e-12
    _report(6, "swap fidelity one at success 3/8, decohered thirds of 1/8", ok)


def test_07_single_photon_pointer_means():
    pre = run_entanglement_swap().conditional_state()
    post = analyzer_post_selection()
    epsilon = 1.0
    ok = True
    for ratio in (0.5, 1.0, 4.0, 32.0):
        spec = PointerSpec.default(0.0, epsilon, ratio * epsilon, 4096)
        for photon in ("2", "4"):
            moments = pointer_moments(
                build_pointer_profile(pre, post, (photon,), spec)
            )
            ok = ok and abs(moments.mean[0] - epsilon) <= 1e-9
    _report(7, "single-photon mean pinned to the late delay at any width", ok)


def _joint_mean_formula(gamma: float, epsilon: float, sigma: float) -> float:
    u = math.exp(-((epsilon - gamma) ** 2) / (8.0 * sigma * sigma))
    bias = (1.0 - u + u * u) / (3.0 - 4.0 * u + 2.0 * u * u)
    return gamma + (epsilon - gamma) * bias


def test_08_joint_pointer_mean_against_closed_form():
    pre = run_entanglement_swap().conditional_state()
    post = analyzer_post_selection()
    gamma, epsilon = 0.0, 1.0
    ok = True
    for u in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        sigma = (epsilon - gamma) / math.sqrt(-8.0 * math.log(u))
        spec = PointerSpec.default(gamma, epsilon, sigma, 2048)
        moments = pointer_moments(
            build_pointer_profile(pre, post, ("2", "4"), spec)
        )
        want = _joint_mean_formula(gamma, epsilon, sigma)
        for mean in moments.mean:
            ok = ok and abs(mean - want) <= 1e-8
    # Weak limit: wide pointer, mean within a grid-free 1e-3 of epsilon.
    weak_spec = PointerSpec.default(gamma, epsilon, 32.0 * epsilon, 2048)
    weak = pointer_moments(build_pointer_profile(pre, post, ("2", "4"), weak_spec))
    for mean in weak.mean:
        ok = ok and abs(mean - epsilon) <= 1e-3
    # Strong limit: overlap far below 1e-12, mean collapses to epsilon/3.
    strong_spec = PointerSpec.default(gamma, epsilon, 0.05, 2048)
    strong = analytic_moments(
        pointer_terms(pre, post, ("2", "4"), strong_spec), strong_spec
    )
    for mean in strong.mean:
        ok = ok and abs(mean - epsilon / 3.0) <= 1e-6
    _report(8, "joint mean follows the closed form into both limits", ok)


def test_09_structural_properties():
    ok = True

    # Unitarity of the splitter stages on an arbitrary normalized state.
    from hardyweak.optics import (
        apply_first_beamsplitter,
        apply_second_beamsplitter,
        interferometer_structure,
    )
    entry = interferometer_structure()
    state = StateVector(entry, {entry.label("in", "in"): 1.0})
    state = apply_first_beamsplitter(state, "+")
    state = apply_first_beamsplitter(state, "-")
    ok = ok and abs(state.norm_sq() - 1.0) <= 1e-12
    for present in (True, False):
        routed = apply_second_beamsplitter(state, "+", present)
        routed = apply_second_beamsplitter(routed, "-", present)
        ok = ok and abs(routed.norm_sq() - 1.0) <= 1e-12

    # Weak-value linearity and the identity sum rule.
    pre = run_entanglement_swap().conditional_state()
    post = analyzer_post_selection()
    s = pre.structure
    a = occupation_operator(s, {"2": "V"})
    b = occupation_operator(s, {"2": "H"})
    combined = arrival_time_operator(s, ("2",), -1.3, 0.7)
    direct = weak_value(combined, pre, post).scalar
    split = (
        0.7 * weak_value(a, pre, post).scalar
        - 1.3 * weak_value(b, pre, post).scalar
    )
    ok = ok and abs(direct - split) <= 1e-12
    identity_rows = projector_weak_decomposition(
        identity_operator(s), pre, post
    )
    total = sum(row.value for row in identity_rows)
    ok = ok and abs(total - 1.0) <= 1e-12

    # Photon number conservation through the two-mode combiner.
    fock = FockModeState(
        ("a", "b"),
        {(1, 1): 0.6, (2, 0): 0.8j},
    )
    combined_fock = hom_combine(fock)
    for occupancy, amp in combined_fock.amplitudes.items():
        if abs(amp) > 1e-15:
            ok = ok and sum(occupancy) == 2
    ok = ok and abs(combined_fock.norm_sq() - fock.norm_sq()) <= 1e-12

    # Grid refinement stability of the joint pointer moments.
    spec = PointerSpec.default(0.0, 1.0, 8.0, 1024)
    coarse = pointer_moments(build_pointer_profile(pre, post, ("2", "4"), spec))
    fine = pointer_moments(
        build_pointer_profile(pre, post, ("2", "4"), replace(spec, n_points=2 * spec.n_points))
    )
    for c, f in zip(coarse.mean, fine.mean):
        ok = ok and abs(c - f) <= 1e-8

    # CLI reports are byte-identical across repeat runs.
    def capture(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_cli(argv)
        return code, buffer.getvalue()

    argv = ["run", "--scenario", "hardy", "--format", "json"]
    code_one, first = capture(argv)
    code_two, second = capture(argv)
    ok = ok and code_one == code_two == 0 and first == second
    payload = json.loads(first)
    ok = ok and payload["probabilities"]["p_dd"] == 0.0625

    _report(9, "unitarity, linearity, conservation, refinement, determinism", ok)
