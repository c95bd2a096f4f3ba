import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRE_POST_OVERLAP,
    analyzer_literal,
    arm_structure,
    dark_coincidence_literal,
    entangled_target_literal,
    identity_operator,
    photon_structure,
    state_of,
    surviving_paths_literal,
)
from hardyweak.states import StateVector, StructureError
from hardyweak.weakvalues import (
    OrthogonalPostSelectionError,
    PATH_TO_POLARIZATION,
    POLARIZATION_TO_PATH,
    WeightedProjectorSum,
    arrival_time_operator,
    occupation_operator,
    projector_weak_decomposition,
    weak_value,
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _pre_post_paths():
    return surviving_paths_literal(), dark_coincidence_literal()


def _pre_post_photons():
    return entangled_target_literal(), analyzer_literal()


class TestOccupations:
    def test_single_arm_occupations(self):
        pre, post = _pre_post_paths()
        s = pre.structure
        expected = {
            ("-", "O"): 1.0,
            ("+", "O"): 1.0,
            ("-", "NO"): 0.0,
            ("+", "NO"): 0.0,
        }
        for (particle, arm), want in expected.items():
            report = weak_value(occupation_operator(s, {particle: arm}), pre, post)
            assert abs(report.scalar - want) < 1e-12, (particle, arm)
            assert abs(report.scalar.imag) < 1e-12

    def test_joint_arm_occupations(self):
        pre, post = _pre_post_paths()
        s = pre.structure
        expected = {
            ("O", "O"): 0.0,
            ("O", "NO"): 1.0,
            ("NO", "O"): 1.0,
            ("NO", "NO"): -1.0,
        }
        for (plus, minus), want in expected.items():
            op = occupation_operator(s, {"+": plus, "-": minus})
            report = weak_value(op, pre, post)
            assert abs(report.scalar - want) < 1e-12, (plus, minus)
            assert abs(report.scalar.imag) < 1e-12

    def test_same_numbers_in_polarization_vocabulary(self):
        pre, post = _pre_post_photons()
        s = pre.structure
        # V plays O: both single-V occupations are 1, both single-H are 0.
        for photon in ("2", "4"):
            v = weak_value(occupation_operator(s, {photon: "V"}), pre, post)
            h = weak_value(occupation_operator(s, {photon: "H"}), pre, post)
            assert abs(v.scalar - 1.0) < 1e-12
            assert abs(h.scalar) < 1e-12
        hh = weak_value(occupation_operator(s, {"2": "H", "4": "H"}), pre, post)
        assert abs(hh.scalar - (-1.0)) < 1e-12

    def test_dictionary_roundtrip(self):
        for arm, pol in PATH_TO_POLARIZATION.items():
            assert POLARIZATION_TO_PATH[pol] == arm

    def test_identity_weak_value_is_one(self):
        pre, post = _pre_post_paths()
        report = weak_value(identity_operator(pre.structure), pre, post)
        assert abs(report.scalar - 1.0) < 1e-12

    def test_overlap_and_success_probability(self):
        pre, post = _pre_post_paths()
        report = weak_value(identity_operator(pre.structure), pre, post)
        assert abs(report.overlap - PRE_POST_OVERLAP) < 1e-12
        assert abs(report.success_probability - 1.0 / 12.0) < 1e-12


class TestArrivalTime:
    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)])
    def test_single_photon_values(self, gamma, epsilon):
        pre, post = _pre_post_photons()
        s = pre.structure
        for photon in ("2", "4"):
            op = arrival_time_operator(s, (photon,), gamma, epsilon)
            report = weak_value(op, pre, post)
            assert abs(report.scalar - epsilon) < 1e-12

    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)])
    def test_joint_value(self, gamma, epsilon):
        pre, post = _pre_post_photons()
        op = arrival_time_operator(pre.structure, ("2", "4"), gamma, epsilon)
        report = weak_value(op, pre, post)
        assert len(report.value) == 2
        for component in report.value:
            assert abs(component - epsilon) < 1e-12

    def test_weight_vectors(self):
        s = photon_structure()
        op = arrival_time_operator(s, ("2", "4"), 0.25, 1.5)
        by_label = {tuple(lv for _, lv in lab.pairs): w for lab, w in op.terms}
        assert by_label[("H", "H")] == (0.25, 0.25)
        assert by_label[("H", "V")] == (0.25, 1.5)
        assert by_label[("V", "H")] == (1.5, 0.25)
        assert by_label[("V", "V")] == (1.5, 1.5)
        single = arrival_time_operator(s, ("4",), 0.25, 1.5)
        by_label = {tuple(lv for _, lv in lab.pairs): w for lab, w in single.terms}
        assert by_label[("H", "H")] == (0.25,)
        assert by_label[("V", "H")] == (0.25,)
        assert by_label[("H", "V")] == (1.5,)

    @given(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_single_photon_value_is_the_weighted_occupation_sum(self, gamma, epsilon):
        # A post-selection with weight on every label, so both occupations count.
        pre = entangled_target_literal()
        post = state_of(photon_structure(), {
            ("H", "H"): 0.5, ("H", "V"): 0.5j, ("V", "H"): -0.5, ("V", "V"): 0.5})
        s = pre.structure
        for photon in ("2", "4"):
            got = weak_value(arrival_time_operator(s, (photon,), gamma, epsilon), pre, post)
            h, v = (weak_value(occupation_operator(s, {photon: level}), pre, post).scalar
                    for level in ("H", "V"))
            assert abs(got.scalar - (gamma * h + epsilon * v)) < 1e-12 * (1 + abs(gamma) + abs(epsilon))

    def test_unknown_photon_rejected(self):
        with pytest.raises(StructureError):
            arrival_time_operator(photon_structure(), ("7",), 0.0, 1.0)


class TestDecomposition:
    def test_projector_values_for_joint_time_operator(self):
        pre, post = _pre_post_photons()
        op = arrival_time_operator(pre.structure, ("2", "4"), 0.0, 1.0)
        rows = projector_weak_decomposition(op, pre, post)
        values = {tuple(lv for _, lv in r.label.pairs): r.value for r in rows}
        assert abs(values[("H", "H")] - (-1.0)) < 1e-12
        assert abs(values[("H", "V")] - 1.0) < 1e-12
        assert abs(values[("V", "H")] - 1.0) < 1e-12
        assert abs(values[("V", "V")]) < 1e-15

    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)])
    def test_recombination_matches_operator_value(self, gamma, epsilon):
        pre, post = _pre_post_photons()
        op = arrival_time_operator(pre.structure, ("2", "4"), gamma, epsilon)
        rows = projector_weak_decomposition(op, pre, post)
        recombined = [0j, 0j]
        for row in rows:
            for i, w in enumerate(row.weight):
                recombined[i] += w * row.value
        direct = weak_value(op, pre, post).value
        for got, want in zip(recombined, direct):
            assert abs(got - want) < 1e-12
        for component in recombined:
            assert abs(component - epsilon) < 1e-12

    def test_projector_sum_rule(self):
        # The four joint occupations tile the identity, so their weak
        # values must add to one however strange each of them is.
        pre, post = _pre_post_paths()
        rows = projector_weak_decomposition(
            identity_operator(pre.structure), pre, post
        )
        assert abs(sum(r.value for r in rows) - 1.0) < 1e-12


class TestLinearityAndValidation:
    @given(
        st.lists(finite, min_size=4, max_size=4),
        st.lists(finite, min_size=4, max_size=4),
        finite,
        finite,
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, wa, wb, alpha, beta):
        pre, post = _pre_post_photons()
        labels = list(pre.structure.product_labels())

        def operator(weights):
            return WeightedProjectorSum(pre.structure, tuple(zip(labels, zip(weights))))

        a, b = operator(wa), operator(wb)
        combined = operator([alpha * x + beta * y for x, y in zip(wa, wb)])
        lhs = weak_value(combined, pre, post).scalar
        rhs = (
            alpha * weak_value(a, pre, post).scalar
            + beta * weak_value(b, pre, post).scalar
        )
        assert abs(lhs - rhs) < 1e-10

    def test_orthogonal_post_selection_raises(self):
        s = photon_structure()
        pre = state_of(s, {("H", "H"): 1.0})
        post = state_of(s, {("V", "V"): 1.0})
        with pytest.raises(OrthogonalPostSelectionError):
            weak_value(identity_operator(s), pre, post)
        with pytest.raises(OrthogonalPostSelectionError):
            projector_weak_decomposition(identity_operator(s), pre, post)

    def test_requires_normalized_selections(self):
        pre, post = _pre_post_photons()
        with pytest.raises(ValueError):
            weak_value(identity_operator(pre.structure), pre.scaled(0.5), post)

    def test_mixed_weight_dimensions_rejected(self):
        s = photon_structure()
        labels = list(s.product_labels())
        with pytest.raises(StructureError):
            WeightedProjectorSum(
                s, ((labels[0], (1.0,)), (labels[1], (1.0, 2.0)))
            )

    def test_duplicate_labels_rejected(self):
        s = photon_structure()
        lab = next(iter(s.product_labels()))
        with pytest.raises(StructureError):
            WeightedProjectorSum(s, ((lab, (1.0,)), (lab, (2.0,))))

    def test_structure_mismatch_rejected(self):
        pre, post = _pre_post_photons()
        other = identity_operator(arm_structure())
        with pytest.raises(StructureError):
            weak_value(other, pre, post)
