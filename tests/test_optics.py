import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OUTCOME_LEVELS,
    annihilated_pair,
    arm_structure,
    dark_port_coincidence_state,
    equal_up_to_global_phase,
    expected_final_state,
    expected_final_table,
    photon_structure,
    rotate_polarization,
    state_of,
)
from hardyweak.optics import (
    FockModeState,
    UnsupportedOccupancyError,
    apply_annihilation,
    apply_first_beamsplitter,
    apply_level_map,
    apply_second_beamsplitter,
    hom_combine,
    interferometer_structure,
    photon_pair_structure,
)
from hardyweak.states import (
    GAMMA,
    StateVector,
    StructureError,
    Structure,
    inner,
)

SQRT2 = math.sqrt(2.0)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
coeff_pairs = st.tuples(finite, finite)


def entry_pair():
    s = interferometer_structure()
    return StateVector(s, {s.label("in", "in"): 1.0})


def run_pipeline(plus_present, minus_present):
    sv = apply_second_beamsplitter(annihilated_pair(), "+", plus_present)
    return apply_second_beamsplitter(sv, "-", minus_present)


def test_fixed_structures_are_built_once_per_process():
    # A Structure is frozen, so every caller may share one.
    assert interferometer_structure() is interferometer_structure()
    assert photon_pair_structure() is photon_pair_structure()
    assert photon_pair_structure() == Structure.of(("2", ("H", "V")), ("4", ("H", "V")))
    assert interferometer_structure() == Structure.of(("+", ("in",)), ("-", ("in",)))


class TestEntrySplitter:
    def test_single_particle_amplitudes(self):
        s = Structure.of(("+", ("in",)))
        sv = apply_first_beamsplitter(StateVector(s, {s.label("in"): 1.0}), "+")
        assert abs(sv.amplitude(sv.structure.label("O")) - 1j / SQRT2) < 1e-12
        assert abs(sv.amplitude(sv.structure.label("NO")) - 1 / SQRT2) < 1e-12

    def test_two_particle_post_split_state(self):
        sv = apply_first_beamsplitter(entry_pair(), "+")
        sv = apply_first_beamsplitter(sv, "-")
        s = sv.structure
        assert abs(sv.amplitude(s.label("O", "O")) - (-0.5)) < 1e-12
        assert abs(sv.amplitude(s.label("O", "NO")) - 0.5j) < 1e-12
        assert abs(sv.amplitude(s.label("NO", "O")) - 0.5j) < 1e-12
        assert abs(sv.amplitude(s.label("NO", "NO")) - 0.5) < 1e-12

    def test_requires_single_entry_level(self):
        sv = state_of(arm_structure(), {("O", "NO"): 1.0})
        with pytest.raises(StructureError):
            apply_first_beamsplitter(sv, "+")


class TestAnnihilation:
    def test_moves_meeting_amplitude_to_gamma(self):
        sv = apply_first_beamsplitter(entry_pair(), "+")
        sv = apply_first_beamsplitter(sv, "-")
        sv = apply_annihilation(sv)
        assert abs(sv.amplitude(GAMMA) - (-0.5)) < 1e-12
        assert abs(sv.amplitude(sv.structure.label("O", "O"))) < 1e-15

    def test_norm_preserved(self):
        sv = state_of(
            arm_structure(),
            {("O", "O"): 0.5j, ("O", "NO"): -0.5, ("NO", "NO"): 1 / SQRT2},
        )
        out = apply_annihilation(sv)
        assert abs(out.norm_sq() - sv.norm_sq()) < 1e-12

    def test_no_meeting_amplitude_is_identity(self):
        sv = state_of(arm_structure(), {("O", "NO"): 1.0})
        out = apply_annihilation(sv)
        assert out.amplitudes == sv.amplitudes


class TestExitSplitter:
    def test_present_on_overlapping_arm(self):
        s = Structure.of(("-", ("O", "NO")))
        sv = apply_second_beamsplitter(StateVector(s, {s.label("O"): 1.0}), "-", True)
        assert abs(sv.amplitude(sv.structure.label("c")) - 1 / SQRT2) < 1e-12
        assert abs(sv.amplitude(sv.structure.label("d")) - 1j / SQRT2) < 1e-12

    def test_absent_is_pure_relabeling(self):
        sv = state_of(arm_structure(), {("O", "NO"): 0.6, ("NO", "O"): 0.8j})
        out = apply_second_beamsplitter(
            apply_second_beamsplitter(sv, "+", False), "-", False
        )
        s = out.structure
        assert abs(out.amplitude(s.label("c", "d")) - 0.6) < 1e-15
        assert abs(out.amplitude(s.label("d", "c")) - 0.8j) < 1e-15
        # relabeling back recovers the original amplitudes exactly
        back = apply_level_map(
            apply_level_map(out, "+", {"c": {"O": 1.0}, "d": {"NO": 1.0}}, ("O", "NO")),
            "-",
            {"c": {"O": 1.0}, "d": {"NO": 1.0}},
            ("O", "NO"),
        )
        assert back.amplitudes == sv.amplitudes

    @pytest.mark.parametrize("plus", [True, False])
    @pytest.mark.parametrize("minus", [True, False])
    def test_full_pipeline_matches_frozen_tables(self, plus, minus):
        got = run_pipeline(plus, minus)
        table = expected_final_table(plus, minus)
        assert abs(got.amplitude(GAMMA) - table["gamma"]) < 1e-12
        for name, levels in OUTCOME_LEVELS.items():
            want = table[name]
            assert abs(got.amplitude(got.structure.label(*levels)) - want) < 1e-12, name
        assert equal_up_to_global_phase(got, expected_final_state(plus, minus))

    @given(st.lists(coeff_pairs, min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_through_pipeline_stages(self, coeffs):
        labels = list(arm_structure().product_labels())
        sv = StateVector(
            arm_structure(),
            {lab: complex(re, im) for lab, (re, im) in zip(labels, coeffs)},
        )
        n0 = sv.norm_sq()
        sv = apply_annihilation(sv)
        sv = apply_second_beamsplitter(sv, "+", True)
        sv = apply_second_beamsplitter(sv, "-", True)
        assert abs(sv.norm_sq() - n0) < 1e-12

    def test_pullback_of_dark_coincidence(self):
        # Detecting |d+ d-> behind present exit splitters is the same event
        # as post-selecting (-i|O> + |NO>)/sqrt2 on each particle upstream.
        forward = run_pipeline(True, True)
        dd_amp = forward.amplitude(forward.structure.label("d", "d"))
        assert abs(inner(dark_port_coincidence_state(), annihilated_pair()) - dd_amp) < 1e-12

    def test_dark_coincidence_pullback_returns_to_the_dark_ports(self):
        # The adjoint map inverts the exit splitter: sending the pulled-back
        # post-selection forward again lands on |d+ d-> alone.
        pulled = dark_port_coincidence_state()
        assert pulled.normalized
        sv = apply_second_beamsplitter(pulled, "+", True)
        sv = apply_second_beamsplitter(sv, "-", True)
        dd = sv.structure.label("d", "d")
        assert abs(sv.amplitude(dd) - 1.0) < 1e-12
        assert all(abs(amp) < 1e-12 for lab, amp in sv.items() if lab != dd)


class TestOneAlphabetCheck:
    # apply_level_map is the only alphabet check of the elements built on it;
    # its message names the subsystem, the map's levels and the subsystem's.
    @pytest.mark.parametrize("element, levels, covers", [
        (apply_first_beamsplitter, ("O", "NO"), ("O",)),
        (lambda sv, name: apply_second_beamsplitter(sv, name, True), ("c", "d"), ("O", "NO")),
        (lambda sv, name: rotate_polarization(sv, name, 0.3), ("O", "NO"), ("H", "V")),
    ], ids=["entry", "exit", "rotation"])
    def test_wrong_alphabet_names_both_level_sets(self, element, levels, covers):
        s = Structure.of(("+", levels))
        sv = StateVector(s, {s.label(levels[0]): 1.0})
        message = f"level map on '+' covers {covers}, but '+' has {levels}"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            element(sv, "+")


class TestPolarizationElements:
    def test_rotation_at_zero_is_identity(self):
        sv = state_of(photon_structure(), {("H", "V"): 0.6, ("V", "H"): 0.8j})
        out = rotate_polarization(sv, "2", 0.0)
        assert out.amplitudes == sv.amplitudes

    def test_rotation_roundtrip(self):
        sv = state_of(photon_structure(), {("H", "V"): 0.6, ("V", "H"): 0.8j})
        out = rotate_polarization(rotate_polarization(sv, "2", 0.7), "2", -0.7)
        for lab, amp in sv.items():
            assert abs(out.amplitude(lab) - amp) < 1e-12

    def test_rotate_then_select_h_equals_rotated_ket_selection(self):
        # Measuring H after a -pi/4 rotation projects onto (|H> - |V>)/sqrt2.
        sv = state_of(
            photon_structure(),
            {("H", "H"): 0.5, ("H", "V"): 0.5, ("V", "H"): 0.5, ("V", "V"): 0.5j},
        )
        rotated = rotate_polarization(sv, "2", -math.pi / 4)
        s = sv.structure
        for m in ("H", "V"):
            direct = (sv.amplitude(s.label("H", m)) - sv.amplitude(s.label("V", m))) / SQRT2
            assert abs(rotated.amplitude(s.label("H", m)) - direct) < 1e-12

    @given(coeff_pairs, coeff_pairs, st.floats(-3.2, 3.2, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_rotation_preserves_norm(self, ch, cv, phi):
        s = Structure.of(("2", ("H", "V")))
        sv = StateVector(
            s, {s.label("H"): complex(*ch), s.label("V"): complex(*cv)}
        )
        out = rotate_polarization(sv, "2", phi)
        assert abs(out.norm_sq() - sv.norm_sq()) < 1e-12


class TestHomCombine:
    def test_single_photon_routes(self):
        one_a = FockModeState(("a", "b"), {(1, 0): 1.0})
        out = hom_combine(one_a)
        assert abs(out.amplitudes[(1, 0)] - 1 / SQRT2) < 1e-12
        assert abs(out.amplitudes[(0, 1)] - 1j / SQRT2) < 1e-12
        one_b = FockModeState(("a", "b"), {(0, 1): 1.0})
        out = hom_combine(one_b)
        assert abs(out.amplitudes[(1, 0)] - 1j / SQRT2) < 1e-12
        assert abs(out.amplitudes[(0, 1)] - 1 / SQRT2) < 1e-12

    def test_single_photon_routes_are_the_exit_splitter(self):
        # One splitter map: the combiner's amplitudes are the exit splitter's, bit for bit.
        arms = Structure.of(("+", ("O", "NO")))
        for occ, arm in (((1, 0), "O"), ((0, 1), "NO")):
            combined = hom_combine(FockModeState(("a", "b"), {occ: 1.0})).amplitudes
            split = apply_second_beamsplitter(
                StateVector(arms, {arms.label(arm): 1.0}), "+", True
            )
            ports = split.structure
            assert combined == {
                (1, 0): split.amplitude(ports.label("c")),
                (0, 1): split.amplitude(ports.label("d")),
            }

    def test_two_photon_bunching(self):
        both = FockModeState(("a", "b"), {(1, 1): 1.0})
        out = hom_combine(both)
        assert abs(out.amplitudes[(2, 0)] - 1j / SQRT2) < 1e-12
        assert abs(out.amplitudes[(0, 2)] - 1j / SQRT2) < 1e-12
        assert (1, 1) not in out.amplitudes

    def test_vacuum_passes_through(self):
        vac = FockModeState(("a", "b"), {(0, 0): 1.0})
        out = hom_combine(vac)
        assert out.amplitudes == {(0, 0): 1.0 + 0j}

    @given(st.lists(coeff_pairs, min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_photon_number_conserved(self, coeffs):
        occs = [(0, 0), (1, 0), (0, 1), (1, 1)]
        sv = FockModeState(
            ("a", "b"),
            {occ: complex(re, im) for occ, (re, im) in zip(occs, coeffs)},
        )
        out = hom_combine(sv)
        assert abs(out.norm_sq() - sv.norm_sq()) < 1e-12
        for n in (0, 1, 2):
            before = sum(a for occ, a in sv.amplitudes.items() if sum(occ) == n)
            p_before = sum(
                abs(a) ** 2 for occ, a in sv.amplitudes.items() if sum(occ) == n
            )
            p_after = sum(
                abs(a) ** 2 for occ, a in out.amplitudes.items() if sum(occ) == n
            )
            assert abs(p_before - p_after) < 1e-12, (n, before)

    def test_rejects_more_than_two_photons(self):
        with pytest.raises(UnsupportedOccupancyError):
            hom_combine(FockModeState(("a", "b"), {(2, 1): 1.0}))
        with pytest.raises(UnsupportedOccupancyError):
            FockModeState(("a", "b"), {(3, 0): 1.0})
