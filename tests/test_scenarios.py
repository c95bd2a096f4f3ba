"""End-to-end scenario checks against hand-derived outcome tables."""
from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyweak import scenarios
from hardyweak.cli import run_cli
from hardyweak.optics import photon_pair_structure
from hardyweak.scenarios import (
    CONSTRAINT_NAMES,
    DEFAULT_SWAP_CALIBRATION,
    HARDY_OUTCOMES,
    HardyConfig,
    analyzer_post_selection,
    bell_pair,
    counterfactual_check,
    entangled_target_state,
    run_entanglement_swap,
    run_hardy_gedanken,
    run_photonic_weak,
)
from hardyweak.states import GAMMA, StateVector, inner

from conftest import (
    PRE_POST_OVERLAP,
    analyzer_literal,
    annihilated_pair,
    dark_coincidence_literal,
    dark_port_coincidence_state,
    entangled_target_literal,
    equal_up_to_global_phase,
    expected_final_state,
    rotate_polarization,
    surviving_paths_literal,
    surviving_paths_state,
)
from oracle import (
    arrival_time_operator,
    occupation_operator,
    projector_weak_decomposition,
    weak_value,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------- gedanken

CONFIG_CASES = [
    (True, True),
    (False, True),
    (True, False),
    (False, False),
]


@pytest.mark.parametrize("plus,minus", CONFIG_CASES)
def test_gedanken_state_matches_frozen_tables(plus, minus):
    result = run_hardy_gedanken(HardyConfig(plus, minus))
    expected = expected_final_state(plus, minus)
    assert result.state.structure == expected.structure
    for label, amp in expected.items():
        assert result.state.amplitude(label) == pytest.approx(amp, abs=1e-12)


@pytest.mark.parametrize("plus,minus", CONFIG_CASES)
def test_gedanken_probabilities_are_complete(plus, minus):
    result = run_hardy_gedanken(HardyConfig(plus, minus))
    assert tuple(result.probabilities) == HARDY_OUTCOMES
    assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert result.probabilities["gamma"] == pytest.approx(0.25, abs=1e-12)


def test_gedanken_both_present_table():
    result = run_hardy_gedanken(HardyConfig(True, True))
    p = result.probabilities
    assert p["d+d-"] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert p["c+c-"] == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert p["c+d-"] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert p["d+c-"] == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_gedanken_removed_splitter_reveals_partner_arm():
    # With the + splitter gone, a d+ click certifies the - particle in
    # the overlapping arm, so that branch soaks up half the total.
    result = run_hardy_gedanken(HardyConfig(False, True))
    amp = result.state.amplitude(result.state.structure.label("d", "c"))
    assert amp == pytest.approx(2.0j / (2.0 * SQRT2), abs=1e-12)
    assert result.probabilities["d+c-"] == pytest.approx(0.5, abs=1e-12)
    mirrored = run_hardy_gedanken(HardyConfig(True, False))
    assert mirrored.probabilities["c+d-"] == pytest.approx(0.5, abs=1e-12)


def test_gedanken_both_absent_never_fires_both_bright():
    result = run_hardy_gedanken(HardyConfig(False, False))
    assert result.probabilities["c+c-"] == pytest.approx(0.0, abs=1e-12)
    assert result.probabilities["d+d-"] == pytest.approx(0.25, abs=1e-12)


def test_gedanken_default_config_installs_both_splitters():
    assert HardyConfig() == HardyConfig(True, True)


# ----------------------------------------------------------- counterfactual


def brute_force_satisfying(drop_joint_click: bool) -> set[tuple[bool, ...]]:
    """Re-derived truth table, written without the library's predicates."""
    found = set()
    for cp, cm, dp, dm in itertools.product((False, True), repeat=4):
        if cp and cm:
            continue
        if dp and not cm:
            continue
        if dm and not cp:
            continue
        if not drop_joint_click and not (dp and dm):
            continue
        found.add((cp, cm, dp, dm))
    return found


def test_counterfactual_full_set_is_contradictory():
    report = counterfactual_check()
    assert report.constraints == CONSTRAINT_NAMES
    assert len(report.assignments) == 16
    assert report.satisfying == ()
    assert brute_force_satisfying(drop_joint_click=False) == set()


def test_counterfactual_without_joint_click_leaves_five():
    names = tuple(n for n in CONSTRAINT_NAMES if n != "joint-dark-click")
    report = counterfactual_check(include=names)
    got = {
        (a.c_plus, a.c_minus, a.d_plus, a.d_minus) for a in report.satisfying
    }
    assert got == brute_force_satisfying(drop_joint_click=True)
    assert len(got) == 5


def test_counterfactual_every_failure_names_a_constraint():
    report = counterfactual_check()
    for assignment, failed in report.assignments:
        assert (failed == ()) == (assignment in report.satisfying)
        for name in failed:
            assert name in report.constraints


def test_counterfactual_rejects_unknown_constraint():
    with pytest.raises(ValueError, match="unknown constraint"):
        counterfactual_check(include=("joint-dark-click", "no-such-rule"))
    with pytest.raises(ValueError, match=r"names: \['no-such-rule'\]$"):
        counterfactual_check(include=("no-such-rule", "joint-dark-click", "no-such-rule"))


def test_counterfactual_repeated_constraint_counts_once():
    repeated = counterfactual_check(include=["joint-dark-click", "joint-dark-click"])
    assert repeated == counterfactual_check(include=["joint-dark-click"])
    assert repeated.constraints == ("joint-dark-click",)


class TestFixedSetupMemo:
    @pytest.fixture
    def counted(self, monkeypatch):
        # Counts the calls of one name in scenarios, with its cache emptied
        # before and after the test.
        caches = []

        def count(name, cache):
            calls = []
            original = getattr(scenarios, name)

            def counting(*args):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(scenarios, name, counting)
            cache.cache_clear()
            caches.append(cache)
            return calls

        yield count
        for cache in caches:
            cache.cache_clear()

    def test_one_cascade_per_config(self, counted, capsys):
        # Every Hardy cascade sends both particles to their exit splitters.
        exits = counted("apply_second_beamsplitter", scenarios._hardy)
        for _ in range(2):
            assert run_cli(["run", "--scenario=hardy"]) == 0
            assert run_cli(["run", "--scenario=hardy", "--format=json"]) == 0
            assert run_cli(["run", "--scenario=hardy", "--bs2-plus=false"]) == 0
        capsys.readouterr()
        assert [args[1:] for args in exits] == [
            ("+", True), ("-", True), ("+", False), ("-", True)
        ]
        assert run_hardy_gedanken() is run_hardy_gedanken(HardyConfig(True, True))

    def test_shared_hardy_result_is_read_only(self):
        result = run_hardy_gedanken()
        with pytest.raises(TypeError):
            result.probabilities["d+d-"] = 0.0
        with pytest.raises(TypeError):
            result.state.amplitudes[GAMMA] = 0.0
        assert run_hardy_gedanken().probabilities["d+d-"] == pytest.approx(1.0 / 16.0)

    def test_one_enumeration_per_constraint_set(self, counted, capsys):
        # Every enumeration builds all sixteen assignments.
        enumerations = counted("CounterfactualAssignment", scenarios._counterfactual)
        for _ in range(2):
            assert run_cli(["run", "--scenario=counterfactual"]) == 0
        capsys.readouterr()
        assert len(enumerations) == 2 * 16  # the full set and the relaxed one
        relaxed = [n for n in CONSTRAINT_NAMES if n != "joint-dark-click"]
        shared = counterfactual_check(relaxed)
        assert counterfactual_check([*reversed(relaxed), relaxed[0]]) is shared
        assert shared.constraints == tuple(relaxed)
        assert counterfactual_check() is counterfactual_check(None)
        assert len(enumerations) == 2 * 16
        # No constraint at all is its own set, not the full one.
        assert counterfactual_check([]).constraints == ()
        assert len(counterfactual_check([]).satisfying) == 16
        assert len(enumerations) == 3 * 16

    def test_unknown_constraints_raise_on_every_call(self, counted):
        enumerations = counted("CounterfactualAssignment", scenarios._counterfactual)
        counterfactual_check(["joint-dark-click"])
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown constraint"):
                counterfactual_check(["joint-dark-click", "no-such-rule"])
        assert len(enumerations) == 16

    def test_one_occupation_table_per_process(self, counted, capsys):
        # One label walk fills photon 2's, photon 4's and the pair's tables.
        walks = counted("level_coefficients", scenarios._standard_selection)
        assert run_cli(["run", "--scenario=photonic-weak"]) == 0
        assert run_cli(["run", "--scenario=photonic-weak", "--gamma=0.3"]) == 0
        capsys.readouterr()
        assert [args[2] for args in walks] == [(("2",), ("4",), ("2", "4"))]
        first, second = run_photonic_weak(0.0, 1.0), run_photonic_weak(0.3, 1.7)
        assert first.occupations is second.occupations
        assert (first.pre, first.post) == (second.pre, second.post)
        assert second.photon2.scalar == pytest.approx(1.7)
        assert len(walks) == 1


# ------------------------------------------------------------------- swap


def test_swap_calibrated_reaches_target():
    result = run_entanglement_swap()
    assert result.mode == "coherent"
    assert result.success_probability == pytest.approx(3.0 / 8.0, abs=1e-12)
    assert result.fidelity_to(entangled_target_literal()) >= 1.0 - 1e-12


def test_swap_calibrated_state_amplitudes():
    state = run_entanglement_swap().conditional_state()
    target = entangled_target_literal()
    for label, amp in target.items():
        assert state.amplitude(label) == pytest.approx(amp, abs=1e-12)
    assert equal_up_to_global_phase(state, target)


def test_swap_uncalibrated_fidelity_drops():
    result = run_entanglement_swap(phase_calibration=(0.0, 0.0))
    assert result.success_probability == pytest.approx(3.0 / 8.0, abs=1e-12)
    fidelity = result.fidelity_to(entangled_target_literal())
    assert fidelity == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_swap_decohered_branches():
    result = run_entanglement_swap(mode="decohered")
    labels = tuple(name for name, _ in result.branches)
    assert labels == ("stray_v1", "stray_v3", "two_photon_click")
    for _, sub in result.branches:
        assert sub.weight == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert result.success_probability == pytest.approx(3.0 / 8.0, abs=1e-12)
    with pytest.raises(ValueError, match="single branch"):
        result.conditional_state()


def test_swap_branches_never_hold_double_vertical():
    # The herald needs at least one transmitted H photon, which forbids
    # the V2 V4 combination in every surviving branch.
    for mode in ("coherent", "decohered"):
        result = run_entanglement_swap(mode=mode)
        for _, sub in result.branches:
            s = sub.state.structure
            assert sub.state.amplitude(s.label("V", "V")) == 0.0


def test_swap_phase_calibration_is_per_input():
    with pytest.raises(ValueError, match="per combiner input"):
        run_entanglement_swap(phase_calibration=(0.0,))


def test_conditional_state_is_built_once_per_result():
    result = run_entanglement_swap()
    assert result.conditional_state() is result.conditional_state()
    assert result.conditional_state().normalized
    decohered = run_entanglement_swap("decohered")
    for _ in range(2):
        with pytest.raises(ValueError, match="single branch"):
            decohered.conditional_state()


def test_swap_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown swap mode"):
        run_entanglement_swap(mode="classical")


class TestSwapMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        # Every swap builds its four photons as one tensor product of two pairs.
        calls = []
        original = scenarios.tensor

        def counting(a, b):
            calls.append(a.structure.names + b.structure.names)
            return original(a, b)

        monkeypatch.setattr(scenarios, "tensor", counting)
        scenarios._swap.cache_clear()
        yield calls
        scenarios._swap.cache_clear()

    def test_one_swap_serves_every_request(self, builds, capsys):
        assert run_cli(["run", "--scenario=pointer"]) == 0
        assert run_cli(["run", "--scenario=pointer", "--phi=0.3"]) == 0
        assert run_cli(["run", "--scenario=photonic-weak"]) == 0
        capsys.readouterr()
        assert builds == [("1", "2", "3", "4")]

    def test_each_mode_and_calibration_is_its_own_entry(self, builds):
        coherent = run_entanglement_swap()
        assert run_entanglement_swap("coherent", list(DEFAULT_SWAP_CALIBRATION)) is coherent
        decohered = run_entanglement_swap("decohered")
        assert decohered is not coherent and decohered.mode == "decohered"
        assert run_entanglement_swap("decohered") is decohered
        uncalibrated = run_entanglement_swap(phase_calibration=(0.0, 0.0))
        assert uncalibrated is not coherent
        assert len(builds) == 3

    def test_bad_arguments_raise_on_every_call(self, builds):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown swap mode"):
                run_entanglement_swap(mode="classical")
            with pytest.raises(ValueError, match="per combiner input"):
                run_entanglement_swap(phase_calibration=[0.0])
        assert builds == []

    def test_shared_states_are_read_only(self):
        result = run_entanglement_swap()
        with pytest.raises(TypeError):
            result.conditional_state().amplitudes[GAMMA] = 1.0
        for _, sub in run_entanglement_swap("decohered").branches:
            with pytest.raises(TypeError):
                del sub.state.amplitudes[next(iter(sub.state.amplitudes))]
        assert run_entanglement_swap().success_probability == pytest.approx(3.0 / 8.0)


def test_default_calibration_value():
    assert DEFAULT_SWAP_CALIBRATION == (0.0, -math.pi / 2.0)


def test_bell_pair_is_normalized_correlation():
    pair = bell_pair("1", "2")
    s = pair.structure
    assert pair.amplitude(s.label("H", "H")) == pytest.approx(1.0 / SQRT2)
    assert pair.amplitude(s.label("V", "V")) == pytest.approx(1.0 / SQRT2)
    assert pair.amplitude(s.label("H", "V")) == 0.0
    assert pair.norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------- photonic weak

DELAY_CASES = [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)]


@pytest.mark.parametrize("gamma,epsilon", DELAY_CASES)
def test_photonic_weak_arrival_times(gamma, epsilon):
    report = run_photonic_weak(gamma, epsilon)
    assert report.photon2.scalar == pytest.approx(epsilon, abs=1e-12)
    assert report.photon4.scalar == pytest.approx(epsilon, abs=1e-12)
    assert len(report.joint.value) == 2
    for component in report.joint.value:
        assert component == pytest.approx(epsilon, abs=1e-12)


def test_photonic_weak_overlap_and_success():
    report = run_photonic_weak()
    assert report.overlap == pytest.approx(PRE_POST_OVERLAP, abs=1e-12)
    assert report.success_probability == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_photonic_weak_pre_and_post_states():
    report = run_photonic_weak()
    assert equal_up_to_global_phase(report.pre, entangled_target_literal())
    assert equal_up_to_global_phase(report.post, analyzer_literal())


EXPECTED_OCCUPATIONS = {
    "V2": ("O+", 1.0),
    "V4": ("O-", 1.0),
    "H2": ("NO+", 0.0),
    "H4": ("NO-", 0.0),
    "V2 V4": ("O+ O-", 0.0),
    "V2 H4": ("O+ NO-", 1.0),
    "H2 V4": ("NO+ O-", 1.0),
    "H2 H4": ("NO+ NO-", -1.0),
}


@pytest.mark.parametrize("gamma,epsilon", DELAY_CASES)
def test_photonic_weak_occupation_dictionary(gamma, epsilon):
    # Occupations describe the pre/post pair alone, so the delays must
    # not leak into them.
    report = run_photonic_weak(gamma, epsilon)
    assert len(report.occupations) == 8
    for row in report.occupations:
        path, value = EXPECTED_OCCUPATIONS[row.photonic]
        assert row.path == path
        assert row.value == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize(
    "gamma,epsilon", DELAY_CASES + [(0.0, 1e8), (-1e300, 1e300)]
)
def test_photonic_weak_decomposition_recombines(gamma, epsilon):
    # The operator identity survives post-selection term by term, to a
    # few ulps of the delays.
    report = run_photonic_weak(gamma, epsilon)
    assert len(report.decomposition) == 4
    totals = [0.0j, 0.0j]
    for row in report.decomposition:
        assert len(row.weight) == 2
        for i, w in enumerate(row.weight):
            totals[i] += w * row.value
    tolerance = 1e-12 * max(1.0, abs(gamma), abs(epsilon))
    for total, direct in zip(totals, report.joint.value):
        assert total == pytest.approx(direct, abs=tolerance)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(0.0, 1.0)
@example(0.3, 1.7)
@example(1.0, 1.0)
def test_photonic_weak_is_the_operator_route_exactly(gamma, epsilon):
    # The weighted label table against the operators it stands for; == lets
    # a signed zero stand for the other, as every report prints it as 0.
    report = run_photonic_weak(gamma, epsilon)
    pre = run_entanglement_swap("coherent").conditional_state()
    post = analyzer_post_selection()
    s = pre.structure
    joint_op = arrival_time_operator(s, ("2", "4"), gamma, epsilon)
    joint = weak_value(joint_op, pre, post)
    assert report.joint.value == joint.value
    assert report.overlap == report.joint.overlap == joint.overlap == inner(post, pre)
    assert report.success_probability == joint.success_probability
    for photon, got in (("2", report.photon2), ("4", report.photon4)):
        own = weak_value(arrival_time_operator(s, (photon,), gamma, epsilon), pre, post)
        assert got.value == own.value
    rows = projector_weak_decomposition(joint_op, pre, post)
    assert [(r.label, r.weight, r.value) for r in report.decomposition] == [
        (r.label, r.weight, r.value) for r in rows]
    for row in report.occupations:
        assignment = {part[-1]: part[:-1] for part in row.photonic.split()}
        assert row.value == weak_value(occupation_operator(s, assignment), pre, post).scalar


def test_photonic_weak_decomposition_weights_are_delays():
    report = run_photonic_weak(0.3, 1.7)
    by_label = {str(row.label): row for row in report.decomposition}
    assert by_label["H2 H4"].weight == (0.3, 0.3)
    assert by_label["H2 V4"].weight == (0.3, 1.7)
    assert by_label["V2 H4"].weight == (1.7, 0.3)
    assert by_label["V2 V4"].weight == (1.7, 1.7)
    assert by_label["H2 H4"].value == pytest.approx(-1.0, abs=1e-12)
    assert by_label["V2 V4"].value == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------- state builders


def test_surviving_paths_state_phases():
    state = surviving_paths_state()
    s = state.structure
    third = 1.0 / SQRT3
    assert state.amplitude(s.label("O", "NO")) == pytest.approx(1j * third, abs=1e-12)
    assert state.amplitude(s.label("NO", "O")) == pytest.approx(1j * third, abs=1e-12)
    assert state.amplitude(s.label("NO", "NO")) == pytest.approx(third, abs=1e-12)
    assert state.amplitude(s.label("O", "O")) == 0.0
    assert state.amplitude(GAMMA) == 0.0
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_dark_port_coincidence_state_phases():
    state = dark_port_coincidence_state()
    s = state.structure
    assert state.amplitude(s.label("O", "O")) == pytest.approx(-0.5, abs=1e-12)
    assert state.amplitude(s.label("O", "NO")) == pytest.approx(-0.5j, abs=1e-12)
    assert state.amplitude(s.label("NO", "O")) == pytest.approx(-0.5j, abs=1e-12)
    assert state.amplitude(s.label("NO", "NO")) == pytest.approx(0.5, abs=1e-12)


def test_analyzer_post_selection_default_angle():
    state = analyzer_post_selection()
    target = analyzer_literal()
    for label, amp in target.items():
        assert state.amplitude(label) == pytest.approx(amp, abs=1e-12)


def test_analyzer_post_selection_zero_angle_is_plain_detection():
    state = analyzer_post_selection(0.0)
    s = state.structure
    assert state.amplitude(s.label("H", "H")) == pytest.approx(1.0, abs=1e-12)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


def _two_rotations(phi):
    # The construction the direct product replaced, kept as its oracle.
    s = photon_pair_structure()
    sv = StateVector(s, {s.label("H", "H"): 1.0})
    sv = rotate_polarization(sv, "2", -phi)
    return rotate_polarization(sv, "4", -phi)


def _bits(state):
    return [(str(lab), amp.real.hex(), amp.imag.hex()) for lab, amp in state.items()]


ANALYZER_ANGLES = [
    0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4, 1e-16, 1e-8,
    -math.atan(0.5), 0.3, 1e-15, -1e-15, 9.9e-16, math.pi, -3 * math.pi / 4,
]


@pytest.mark.parametrize("phi", ANALYZER_ANGLES + [
    random.Random(7).uniform(-4.0, 4.0) for _ in range(40)
])
def test_analyzer_post_selection_is_the_two_rotations_bit_for_bit(phi):
    got, want = analyzer_post_selection(phi), _two_rotations(phi)
    assert got.structure == want.structure
    assert _bits(got) == _bits(want)
    assert got.normalized == want.normalized


def test_entangled_target_matches_literal():
    target = entangled_target_state()
    literal = entangled_target_literal()
    for label, amp in literal.items():
        assert target.amplitude(label) == pytest.approx(amp, abs=1e-12)


# ----------------------------------------------------- route consistency


def test_paper_states_overlap_and_annihilation():
    # Acceptance 04 compares the two routes' occupation weak values.
    literal = (surviving_paths_literal(), dark_coincidence_literal())
    grown = (surviving_paths_state(), dark_port_coincidence_state())
    assert abs(annihilated_pair().amplitude(GAMMA)) ** 2 == pytest.approx(0.25, abs=1e-12)
    for pre, post in (literal, grown):
        assert inner(post, pre) == pytest.approx(PRE_POST_OVERLAP, abs=1e-12)


def test_paper_states_occupation_values():
    singles = {"O-": 1.0, "O+": 1.0, "NO-": 0.0, "NO+": 0.0}
    joints = {"O+ O-": 0.0, "O+ NO-": 1.0, "NO+ O-": 1.0, "NO+ NO-": -1.0}
    routes = ((surviving_paths_literal(), dark_coincidence_literal()),
              (surviving_paths_state(), dark_port_coincidence_state()))
    values = []
    for pre, post in routes:
        # "NO+ O-" reads as {"+": "NO", "-": "O"}.
        values.append({
            name: weak_value(occupation_operator(
                pre.structure, {part[-1]: part[:-1] for part in name.split()}),
                pre, post).scalar
            for name in (*singles, *joints)
        })
    for got in values:
        assert {n: got[n] for n in singles} == pytest.approx(singles, abs=1e-12)
        assert {n: got[n] for n in joints} == pytest.approx(joints, abs=1e-12)
    assert values[1] == pytest.approx(values[0], abs=1e-12)


def test_overlap_constant_value():
    assert PRE_POST_OVERLAP == pytest.approx(-1.0 / (2.0 * SQRT3), abs=1e-15)
