"""Weak values on the paper's selections, each computed by the program's
route (one label walk, ``level_coefficients``, weighted by
``coefficient_weak_value``) and by the operator route of ``oracle``."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRE_POST_OVERLAP,
    analyzer_literal,
    arm_structure,
    dark_coincidence_literal,
    entangled_target_literal,
    photon_structure,
    state_of,
    surviving_paths_literal,
)
from hardyweak.states import StateVector, StructureError
from hardyweak.weakvalues import (
    OrthogonalPostSelectionError,
    PATH_TO_POLARIZATION,
    POLARIZATION_TO_PATH,
    coefficient_weak_value,
    level_coefficients,
    polarization_delays,
)
from oracle import (
    WeightedProjectorSum,
    arrival_time_operator,
    identity_operator,
    occupation_operator,
    projector_weak_decomposition,
    weak_value,
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _pre_post_paths():
    return surviving_paths_literal(), dark_coincidence_literal()


def _pre_post_photons():
    return entangled_target_literal(), analyzer_literal()


def _walk(pre, post, measured, weight):
    """The program's route: one walk, each level tuple weighted by ``weight``."""
    (table,) = level_coefficients(pre, post, [measured])
    return coefficient_weak_value([(weight(levels), c) for levels, c in table])


def _walk_occupation(pre, post, assignment):
    measured = tuple(assignment)
    want = tuple(assignment[name] for name in measured)
    return _walk(pre, post, measured, lambda levels: (float(levels == want),))


def _walk_arrival_time(pre, post, measured, gamma, epsilon):
    delays = polarization_delays(pre.structure, measured, gamma, epsilon)
    return _walk(pre, post, measured, lambda levels: tuple(delays[lv] for lv in levels))


def _both_occupations(pre, post, assignment):
    op = occupation_operator(pre.structure, assignment)
    return weak_value(op, pre, post).scalar, _walk_occupation(pre, post, assignment).scalar


def _levels(label):
    return tuple(level for _, level in label.pairs)


def _seeded_state(rng: random.Random) -> StateVector:
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    if rng.random() < 0.25:
        amps[rng.randrange(4)] = 0j  # a label outside the support
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    s = photon_structure()
    return state_of(s, {_levels(lab): a / norm
                        for lab, a in zip(s.product_labels(), amps) if a})


class TestOccupations:
    def test_single_arm_occupations(self):
        pre, post = _pre_post_paths()
        expected = {
            ("-", "O"): 1.0,
            ("+", "O"): 1.0,
            ("-", "NO"): 0.0,
            ("+", "NO"): 0.0,
        }
        for (particle, arm), want in expected.items():
            for got in _both_occupations(pre, post, {particle: arm}):
                assert abs(got - want) < 1e-12, (particle, arm)
                assert abs(got.imag) < 1e-12

    def test_joint_arm_occupations(self):
        pre, post = _pre_post_paths()
        expected = {
            ("O", "O"): 0.0,
            ("O", "NO"): 1.0,
            ("NO", "O"): 1.0,
            ("NO", "NO"): -1.0,
        }
        for (plus, minus), want in expected.items():
            for got in _both_occupations(pre, post, {"+": plus, "-": minus}):
                assert abs(got - want) < 1e-12, (plus, minus)
                assert abs(got.imag) < 1e-12

    def test_same_numbers_in_polarization_vocabulary(self):
        pre, post = _pre_post_photons()
        # V plays O: both single-V occupations are 1, both single-H are 0.
        for photon in ("2", "4"):
            for v in _both_occupations(pre, post, {photon: "V"}):
                assert abs(v - 1.0) < 1e-12
            for h in _both_occupations(pre, post, {photon: "H"}):
                assert abs(h) < 1e-12
        for hh in _both_occupations(pre, post, {"2": "H", "4": "H"}):
            assert abs(hh - (-1.0)) < 1e-12

    def test_dictionary_roundtrip(self):
        for arm, pol in PATH_TO_POLARIZATION.items():
            assert POLARIZATION_TO_PATH[pol] == arm

    def test_identity_weak_value_is_one(self):
        pre, post = _pre_post_paths()
        oracle = weak_value(identity_operator(pre.structure), pre, post)
        walked = _walk(pre, post, ("+", "-"), lambda levels: (1.0,))
        for report in (oracle, walked):
            assert abs(report.scalar - 1.0) < 1e-12

    def test_overlap_and_success_probability(self):
        pre, post = _pre_post_paths()
        oracle = weak_value(identity_operator(pre.structure), pre, post)
        walked = _walk(pre, post, ("+",), lambda levels: (1.0,))
        for report in (oracle, walked):
            assert abs(report.overlap - PRE_POST_OVERLAP) < 1e-12
            assert abs(report.success_probability - 1.0 / 12.0) < 1e-12


class TestArrivalTime:
    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)])
    def test_single_photon_values(self, gamma, epsilon):
        pre, post = _pre_post_photons()
        for photon in ("2", "4"):
            op = arrival_time_operator(pre.structure, (photon,), gamma, epsilon)
            for report in (weak_value(op, pre, post),
                           _walk_arrival_time(pre, post, (photon,), gamma, epsilon)):
                assert abs(report.scalar - epsilon) < 1e-12

    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)])
    def test_joint_value(self, gamma, epsilon):
        pre, post = _pre_post_photons()
        op = arrival_time_operator(pre.structure, ("2", "4"), gamma, epsilon)
        report = weak_value(op, pre, post)
        assert len(report.value) == 2
        for component in report.value:
            assert abs(component - epsilon) < 1e-12
        assert _walk_arrival_time(pre, post, ("2", "4"), gamma, epsilon) == report

    def test_joint_value_is_the_walk_bit_for_bit_on_seeded_selections(self):
        # On a pair each level tuple is one label, so the walk forms the
        # operator's cross terms and sums them in the same order.
        rng = random.Random("oracle-walk")
        refused = 0
        for _ in range(500):
            pre, post = _seeded_state(rng), _seeded_state(rng)
            gamma, epsilon = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            op = arrival_time_operator(pre.structure, ("2", "4"), gamma, epsilon)
            try:
                want = weak_value(op, pre, post)
            except OrthogonalPostSelectionError:
                refused += 1
                with pytest.raises(OrthogonalPostSelectionError):
                    _walk_arrival_time(pre, post, ("2", "4"), gamma, epsilon)
                continue
            got = _walk_arrival_time(pre, post, ("2", "4"), gamma, epsilon)
            assert [(z.real.hex(), z.imag.hex()) for z in (*got.value, got.overlap)] == [
                (z.real.hex(), z.imag.hex()) for z in (*want.value, want.overlap)]
            assert got.success_probability.hex() == want.success_probability.hex()
        assert refused < 500

    def test_weight_vectors(self):
        s = photon_structure()
        op = arrival_time_operator(s, ("2", "4"), 0.25, 1.5)
        by_label = {_levels(lab): w for lab, w in op.terms}
        assert by_label[("H", "H")] == (0.25, 0.25)
        assert by_label[("H", "V")] == (0.25, 1.5)
        assert by_label[("V", "H")] == (1.5, 0.25)
        assert by_label[("V", "V")] == (1.5, 1.5)
        single = arrival_time_operator(s, ("4",), 0.25, 1.5)
        by_label = {_levels(lab): w for lab, w in single.terms}
        assert by_label[("H", "H")] == (0.25,)
        assert by_label[("V", "H")] == (0.25,)
        assert by_label[("H", "V")] == (1.5,)
        # The program's delay convention gives every label the same weights.
        for measured in (("2", "4"), ("4",), ("4", "2")):
            delays = polarization_delays(s, measured, 0.25, 1.5)
            op = arrival_time_operator(s, measured, 0.25, 1.5)
            for label, weight in op.terms:
                assert weight == tuple(delays[label.level(m)] for m in measured)

    @given(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_single_photon_value_is_the_weighted_occupation_sum(self, gamma, epsilon):
        # A post-selection with weight on every label, so both occupations count.
        pre = entangled_target_literal()
        post = state_of(photon_structure(), {
            ("H", "H"): 0.5, ("H", "V"): 0.5j, ("V", "H"): -0.5, ("V", "V"): 0.5})
        s = pre.structure
        tolerance = 1e-12 * (1 + abs(gamma) + abs(epsilon))
        for photon in ("2", "4"):
            got = weak_value(arrival_time_operator(s, (photon,), gamma, epsilon), pre, post)
            h, v = (weak_value(occupation_operator(s, {photon: level}), pre, post).scalar
                    for level in ("H", "V"))
            assert abs(got.scalar - (gamma * h + epsilon * v)) < tolerance
            walked = _walk_arrival_time(pre, post, (photon,), gamma, epsilon)
            assert abs(walked.scalar - got.scalar) < tolerance

    def test_unknown_photon_rejected(self):
        pre, post = _pre_post_photons()
        for call in (lambda: arrival_time_operator(photon_structure(), ("7",), 0.0, 1.0),
                     lambda: _walk_arrival_time(pre, post, ("7",), 0.0, 1.0),
                     lambda: level_coefficients(pre, post, [("7",)])):
            with pytest.raises(StructureError):
                call()


class TestDecomposition:
    def test_projector_values_for_joint_time_operator(self):
        pre, post = _pre_post_photons()
        op = arrival_time_operator(pre.structure, ("2", "4"), 0.0, 1.0)
        rows = projector_weak_decomposition(op, pre, post)
        values = {_levels(r.label): r.value for r in rows}
        assert abs(values[("H", "H")] - (-1.0)) < 1e-12
        assert abs(values[("H", "V")] - 1.0) < 1e-12
        assert abs(values[("V", "H")] - 1.0) < 1e-12
        assert abs(values[("V", "V")]) < 1e-15
        # The walk's coefficient over the overlap is each row's value.
        (table,) = level_coefficients(pre, post, [("2", "4")])
        overlap = _walk_arrival_time(pre, post, ("2", "4"), 0.0, 1.0).overlap
        assert {levels: c / overlap for levels, c in table} == {
            levels: value for levels, value in values.items() if value}

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
        walked = _walk_arrival_time(pre, post, ("2", "4"), gamma, epsilon).value
        for got, want, walk in zip(recombined, direct, walked):
            assert abs(got - want) < 1e-12
            assert abs(got - walk) < 1e-12
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
        (table,) = level_coefficients(pre, post, [("+", "-")])
        overlap = _walk(pre, post, ("+", "-"), lambda levels: (1.0,)).overlap
        assert abs(sum(c / overlap for _, c in table) - 1.0) < 1e-12


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
        weights = [alpha * x + beta * y for x, y in zip(wa, wb)]
        lhs = weak_value(operator(weights), pre, post).scalar
        rhs = (
            alpha * weak_value(a, pre, post).scalar
            + beta * weak_value(b, pre, post).scalar
        )
        assert abs(lhs - rhs) < 1e-10
        by_levels = {_levels(lab): (w,) for lab, w in zip(labels, weights)}
        walked = _walk(pre, post, ("2", "4"), by_levels.__getitem__).scalar
        assert abs(walked - lhs) < 1e-10

    def test_orthogonal_post_selection_raises(self):
        s = photon_structure()
        pre = state_of(s, {("H", "H"): 1.0})
        post = state_of(s, {("V", "V"): 1.0})
        with pytest.raises(OrthogonalPostSelectionError):
            weak_value(identity_operator(s), pre, post)
        with pytest.raises(OrthogonalPostSelectionError):
            projector_weak_decomposition(identity_operator(s), pre, post)
        with pytest.raises(OrthogonalPostSelectionError):
            _walk(pre, post, ("2",), lambda levels: (1.0,))

    def test_requires_normalized_selections(self):
        pre, post = _pre_post_photons()
        with pytest.raises(ValueError):
            weak_value(identity_operator(pre.structure), pre.scaled(0.5), post)
        with pytest.raises(ValueError, match="^pre- and post-selection must be normalized$"):
            level_coefficients(pre.scaled(0.5), post, [("2",)])

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
        with pytest.raises(StructureError, match="^pre- and post-selection must share a structure$"):
            level_coefficients(surviving_paths_literal(), post, [("2",)])
