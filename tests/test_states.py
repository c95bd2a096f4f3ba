import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRE_POST_OVERLAP,
    arm_structure,
    dark_coincidence_literal,
    equal_up_to_global_phase,
    expected_final_state,
    photon_structure,
    state_of,
    surviving_paths_literal,
)
from hardyweak.states import (
    GAMMA,
    BasisLabel,
    StateVector,
    StructureError,
    Structure,
    Subnormalized,
    inner,
    tensor,
)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
coeff_pairs = st.tuples(finite, finite)


def _state_from(structure, coeffs):
    labels = list(structure.product_labels())
    return StateVector(structure, {lab: complex(re, im) for lab, (re, im) in zip(labels, coeffs)})


def _nontrivial(coeffs):
    return sum(re * re + im * im for re, im in coeffs) > 1e-6


class TestTensor:
    def test_product_of_basis_kets(self):
        two = Structure.of(("2", ("H", "V")))
        four = Structure.of(("4", ("H", "V")))
        h2 = StateVector(two, {two.label("H"): 1.0})
        v4 = StateVector(four, {four.label("V"): 1.0})
        prod = tensor(h2, v4)
        assert prod.structure == photon_structure()
        assert prod.amplitude(prod.structure.label("H", "V")) == 1.0 + 0j
        assert prod.normalized

    def test_two_bell_pairs(self):
        def bell(a, b):
            s = Structure.of((a, ("H", "V")), (b, ("H", "V")))
            return state_of(s, {("H", "H"): 1 / math.sqrt(2), ("V", "V"): 1 / math.sqrt(2)})

        four = tensor(bell("1", "2"), bell("3", "4"))
        assert four.normalized
        expected = {
            ("H", "H", "H", "H"),
            ("V", "V", "H", "H"),
            ("H", "H", "V", "V"),
            ("V", "V", "V", "V"),
        }
        assert set(four.amplitudes) == {four.structure.label(*k) for k in expected}
        for amp in four.amplitudes.values():
            assert abs(amp - 0.5) < 1e-12

    @given(st.lists(coeff_pairs, min_size=2, max_size=2), st.lists(coeff_pairs, min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, ca, cb):
        a = _state_from(Structure.of(("x", ("0", "1"))), ca)
        b = _state_from(Structure.of(("y", ("0", "1"))), cb)
        assert abs(tensor(a, b).norm_sq() - a.norm_sq() * b.norm_sq()) < 1e-12

    def test_associativity(self):
        xs = [Structure.of((n, ("0", "1"))) for n in "abc"]
        states = [
            _state_from(s, [(0.3 + 0.1 * i, -0.2), (0.5, 0.4 * i)]) for i, s in enumerate(xs)
        ]
        left = tensor(tensor(states[0], states[1]), states[2])
        right = tensor(states[0], tensor(states[1], states[2]))
        assert left.structure == right.structure
        assert set(left.amplitudes) == set(right.amplitudes)
        for lab, amp in left.items():
            assert abs(amp - right.amplitude(lab)) < 1e-15

    def test_rejects_shared_subsystem_names(self):
        s = Structure.of(("x", ("0", "1")))
        a = StateVector(s, {s.label("0"): 1.0})
        with pytest.raises(StructureError):
            tensor(a, a)

    def test_rejects_gamma_factor(self):
        s = Structure.of(("x", ("0", "1")))
        g = StateVector(s, {GAMMA: 1.0})
        other = StateVector(Structure.of(("y", ("0", "1"))), {})
        with pytest.raises(StructureError):
            tensor(g, other)


class TestInner:
    def test_pre_post_overlap_frozen_value(self):
        got = inner(dark_coincidence_literal(), surviving_paths_literal())
        assert abs(got - PRE_POST_OVERLAP) < 1e-12
        assert abs(got.imag) < 1e-15

    def test_self_inner_is_one(self):
        pre = surviving_paths_literal()
        assert abs(inner(pre, pre) - 1.0) < 1e-12

    def test_gamma_contributes_when_shared(self):
        s = arm_structure()
        a = state_of(s, {None: 0.6, ("O", "O"): 0.8})
        b = state_of(s, {None: 1.0})
        assert abs(inner(b, a) - 0.6) < 1e-15

    @given(st.lists(coeff_pairs, min_size=4, max_size=4), st.lists(coeff_pairs, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, ca, cb):
        s = arm_structure()
        a = _state_from(s, ca)
        b = _state_from(s, cb)
        assert abs(inner(a, b) - inner(b, a).conjugate()) < 1e-12

    def test_structure_mismatch_raises(self):
        with pytest.raises(StructureError):
            inner(surviving_paths_literal(), StateVector(photon_structure(), {}))


class TestGlobalPhaseAndPruning:
    # equal_up_to_global_phase is the conftest oracle of the optics tests.
    def test_phase_rotated_state_matches(self):
        pre = surviving_paths_literal()
        rotated = pre.scaled(complex(math.cos(1.234), math.sin(1.234)))
        assert equal_up_to_global_phase(pre, rotated)

    def test_distinct_states_do_not_match(self):
        assert not equal_up_to_global_phase(
            surviving_paths_literal(), dark_coincidence_literal()
        )

    def test_requires_normalized_inputs(self):
        # |<pre|2 pre>| = 2 clears the overlap bound; only the norm check rejects it.
        pre = surviving_paths_literal()
        for factor in (0.5, 2.0):
            assert not equal_up_to_global_phase(pre, pre.scaled(factor))
            assert not equal_up_to_global_phase(pre.scaled(factor), pre)

    @given(st.lists(coeff_pairs, min_size=4, max_size=4).filter(_nontrivial))
    @settings(max_examples=60, deadline=None)
    def test_outcome_weights_sum_to_one(self, coeffs):
        s = arm_structure()
        raw = _state_from(s, coeffs)
        sv = raw.renormalized()
        assert sv.normalized
        total = sum(abs(sv.amplitude(s.label(p, m))) ** 2
                    for p in ("O", "NO") for m in ("O", "NO"))
        assert abs(total - 1.0) < 1e-12
        assert abs(abs(inner(raw, sv)) ** 2 - raw.norm_sq()) < 1e-12

    def test_renormalizing_a_vanishing_state_raises(self):
        s = arm_structure()
        for amps in ({}, {s.label("O", "O"): 1e-16}):
            with pytest.raises(StructureError, match="vanishing norm"):
                StateVector(s, amps).renormalized()

    def test_prune_leaves_reported_numbers_alone(self):
        s = arm_structure()
        dirty = state_of(
            s,
            {
                ("O", "NO"): 1 / math.sqrt(2),
                ("NO", "O"): 1 / math.sqrt(2),
                ("NO", "NO"): 3e-16,
                ("O", "O"): -4e-16j,
            },
        )
        clean = dirty.prune()
        assert len(clean.amplitudes) == 2
        for p in ("O", "NO"):
            for m in ("O", "NO"):
                dw = abs(dirty.amplitude(s.label(p, m))) ** 2
                cw = abs(clean.amplitude(s.label(p, m))) ** 2
                assert abs(dw - cw) < 1e-12
        probe = surviving_paths_literal()
        assert abs(inner(probe, dirty) - inner(probe, clean)) < 1e-12

    def test_normalized_flag(self):
        s = Structure.of(("x", ("0", "1")))
        good = StateVector(s, {s.label("0"): 1.0})
        assert good.normalized
        off = StateVector(s, {s.label("0"): 1.0 + 1e-5})
        assert not off.normalized

    def test_subnormalized_weight_checked(self):
        s = Structure.of(("x", ("0", "1")))
        sv = StateVector(s, {s.label("0"): 0.5})
        with pytest.raises(StructureError):
            Subnormalized(sv, 0.9)
        assert abs(Subnormalized.of(sv).weight - 0.25) < 1e-15

    def test_canonical_iteration_order(self):
        final = expected_final_state(True, True)
        names = [str(lab) for lab in final.amplitudes]
        assert names == ["gamma", "c+ c-", "c+ d-", "d+ c-", "d+ d-"]


@st.composite
def structures(draw):
    names = draw(st.lists(st.text("ab+-24", min_size=1, max_size=2),
                          min_size=1, max_size=3, unique=True))
    return Structure.of(*(
        (name, draw(st.lists(st.text("HVOcd", min_size=1, max_size=2),
                             min_size=1, max_size=3, unique=True)))
        for name in names
    ))


def _level_index_key(structure, label):
    # The per-level key the label index replaced.
    if label.is_gamma:
        return (0,)
    return (1,) + tuple(
        sub.levels.index(level)
        for (_, level), sub in zip(label.pairs, structure.subsystems)
    )


def _error(call, label):
    with pytest.raises(StructureError) as info:
        call(label)
    return str(info.value)


class TestLabelIndex:
    @given(structures(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_sort_matches_the_per_level_order(self, structure, rng):
        labels = [*structure.product_labels(), GAMMA]
        rng.shuffle(labels)
        by_index = sorted(labels, key=structure.sort_key)
        assert by_index == sorted(labels, key=lambda lab: _level_index_key(structure, lab))
        assert by_index == [GAMMA, *structure.product_labels()]
        for label in labels:
            structure.validate_label(label)

    @given(structures(), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_foreign_labels_keep_their_messages(self, structure, data):
        label = data.draw(st.sampled_from(list(structure.product_labels())))
        names = structure.names
        pairs = label.pairs
        i = data.draw(st.integers(0, len(pairs) - 1))
        name, level = pairs[i]
        renamed = BasisLabel(pairs[:i] + ((name + "?", level),) + pairs[i + 1:])
        relevelled = BasisLabel(pairs[:i] + ((name, level + "?"),) + pairs[i + 1:])
        shortened = BasisLabel(pairs[:-1])
        lengthened = BasisLabel(pairs + (("extra", "H"),))
        for foreign in (renamed, shortened, lengthened):
            want = f"label {foreign} does not address {names}"
            assert _error(structure.validate_label, foreign) == want
            assert _error(structure.sort_key, foreign) == want
        want = f"level {level + '?'!r} not in alphabet of subsystem {name!r}"
        assert _error(structure.validate_label, relevelled) == want
        assert _error(structure.sort_key, relevelled) == want
        with pytest.raises(StructureError, match="not in alphabet"):
            StateVector(structure, {relevelled: 1.0})

    @given(structures(), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_states_keep_the_canonical_order_however_built(self, structure, rng, gamma):
        # A map already in canonical order is kept, not re-sorted; any other
        # order, GAMMA included, comes out in the order sort_key gives.
        canonical = [GAMMA] * gamma + list(structure.product_labels())
        shuffled = canonical[:]
        rng.shuffle(shuffled)
        for labels in (canonical, shuffled, canonical[::-1]):
            state = StateVector(structure, {label: 1.0 for label in labels})
            assert list(state.amplitudes) == canonical

    @given(structures(), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_a_foreign_label_in_a_canonical_map_is_rejected(self, structure, data):
        # The in-order fast path must not let a label through unchecked,
        # wherever it stands in an otherwise canonical map.
        labels = list(structure.product_labels())
        name, level = labels[-1].pairs[-1]
        foreign = [BasisLabel(labels[-1].pairs[:-1] + ((name, level + "?"),)),
                   BasisLabel(labels[-1].pairs + (("extra", "H"),)),
                   BasisLabel(labels[-1].pairs[:-1])]
        for label in foreign:
            at = data.draw(st.integers(0, len(labels)))
            amplitudes = dict.fromkeys(labels[:at] + [label] + labels[at:], 0.5)
            with pytest.raises(StructureError) as info:
                StateVector(structure, amplitudes)
            assert str(info.value) == _error(structure.validate_label, label)

    def test_amplitudes_are_read_only(self):
        s = Structure.of(("x", ("0", "1")))
        source = {s.label("1"): 0.6, s.label("0"): 0.8}
        sv = StateVector(s, source)
        with pytest.raises(TypeError):
            sv.amplitudes[s.label("0")] = 1.0
        source[s.label("0")] = 0.0  # the caller's dict is not the state's
        assert sv.amplitude(s.label("0")) == 0.8
        assert sv.amplitudes == {s.label("0"): 0.8, s.label("1"): 0.6}
        assert sv == StateVector(s, dict(sv.amplitudes))


class TestBasisLabel:
    def test_every_constructor_gives_equal_labels_with_equal_hashes(self):
        s = Structure.of(("a", ("x", "y")), ("b", ("0", "1", "2")))
        target = BasisLabel((("a", "y"), ("b", "2")))
        left = Structure.of(("a", ("x", "y")))
        right = Structure.of(("b", ("0", "1", "2")))
        product = tensor(
            StateVector(left, {left.label("y"): 1.0}),
            StateVector(right, {right.label("2"): 1.0}),
        )
        built = [
            s.label("y", "2"),
            s.label("x", "2").with_level("a", "y"),
            next(iter(product.amplitudes)),
            list(s.product_labels())[5],
            list(Structure.of(("a", ("x", "y")), ("b", ("0", "1", "2"))).product_labels())[5],
        ]
        assert product.structure == s
        for label in built:
            assert label == target and hash(label) == hash(target)
        assert len(set(built)) == 1
        assert {label: 1 for label in built} == {target: 1}

    def test_equal_structures_share_one_basis(self):
        first = Structure.of(("a", ("x", "y")), ("b", ("0", "1")))
        again = Structure.of(("a", ("x", "y")), ("b", ("0", "1")))
        wider = first.replace("b", ("0", "1", "2"))
        assert all(p is q for p, q in zip(first.product_labels(), again.product_labels()))
        assert len(list(wider.product_labels())) == 6

    def test_gamma_is_not_the_empty_product_label(self):
        empty = BasisLabel(())
        assert GAMMA != empty and empty != GAMMA
        assert BasisLabel((), is_gamma=True) == GAMMA
        assert hash(BasisLabel((), is_gamma=True)) == hash(GAMMA)
        assert {GAMMA: 1.0}.get(empty) is None
        assert list(Structure.of().product_labels()) == [empty]
        assert not next(iter(Structure.of().product_labels())).is_gamma

    def test_canonical_order_on_mixed_alphabets(self):
        alphabets = {"+": ("O", "NO"), "2": ("H", "V", "D"), "x": ("in",)}
        s = Structure.of(*alphabets.items())
        want = [
            BasisLabel((("+", p), ("2", q), ("x", r)))
            for p in alphabets["+"] for q in alphabets["2"] for r in alphabets["x"]
        ]
        assert list(s.product_labels()) == want
        assert [str(lab) for lab in want[:3]] == ["O+ H2 inx", "O+ V2 inx", "O+ D2 inx"]
        shuffled = dict.fromkeys(reversed(want), 0.5)
        assert list(StateVector(s, shuffled).amplitudes) == want
        assert sorted([GAMMA, *reversed(want)], key=s.sort_key) == [GAMMA, *want]
