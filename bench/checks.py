"""Output checks run after every timed request.

Label scenarios are checked against references computed here from the
conventions in the README, independently of the program: the Hardy port
probabilities, the counterfactual enumeration, and the paper's numbers
(joint dark click 1/16, annihilation 1/4, joint arrival-time weak value
(epsilon, epsilon), a pair occupation of -1).  Pointer scenarios are
checked against the program's closed-form route,
``analytic_moments(pointer_terms(...))``, which shares no code with the
grid route that produces the report.

Tolerances:

* json and csv reports carry full floats.  A grid value must match the
  closed form within 4e-9 x (1 + |gamma| + |epsilon| + sigma) for means,
  4e-9 x (1 + p) for the success probability p.  The grid agrees to
  about 1e-13 and the program snaps a value at most 1e-9 onto a small
  fraction, so a change to the last ulps passes while a 1e-6 shift fails.
* table reports print six significant digits, so a table value may also
  differ by its rounding, 1e-5 of its size.
"""
from __future__ import annotations

import itertools
import json
import math
import re

from workloads import Request

GRID_TOLERANCE = 4e-9
EXACT_TOLERANCE = 1e-9
TABLE_RELATIVE = 1e-5

SQRT_HALF = math.sqrt(0.5)
HARDY_KEYS = ("p_gamma", "p_cc", "p_cd", "p_dc", "p_dd")


class CheckError(Exception):
    """A report disagrees with its reference."""


# ------------------------------------------------------- independent references

# Entry splitter (i|O> + |NO>)/sqrt(2); installed exit splitter
# |O> -> (|c> + i|d>)/sqrt(2), |NO> -> (i|c> + |d>)/sqrt(2); a removed
# one relabels O -> c, NO -> d; O x O annihilates into gamma.
ENTRY = {"O": 1j * SQRT_HALF, "NO": SQRT_HALF}
EXIT = {
    True: {"O": {"c": SQRT_HALF, "d": 1j * SQRT_HALF},
           "NO": {"c": 1j * SQRT_HALF, "d": SQRT_HALF}},
    False: {"O": {"c": 1.0}, "NO": {"d": 1.0}},
}


def hardy_reference(bs2_plus: bool, bs2_minus: bool) -> dict[str, float]:
    amplitudes = {"cc": 0j, "cd": 0j, "dc": 0j, "dd": 0j}
    for arm_plus, arm_minus in itertools.product(("O", "NO"), repeat=2):
        if arm_plus == arm_minus == "O":
            continue
        for port_plus, a in EXIT[bs2_plus][arm_plus].items():
            for port_minus, b in EXIT[bs2_minus][arm_minus].items():
                amplitudes[port_plus + port_minus] += (
                    ENTRY[arm_plus] * ENTRY[arm_minus] * a * b
                )
    out = {"p_gamma": abs(ENTRY["O"] ** 2) ** 2}
    for ports, amp in amplitudes.items():
        out["p_" + ports] = abs(amp) ** 2
    return out


def counterfactual_reference(with_joint_click: bool) -> int:
    """Assignments (c+, c-, d+, d-) meeting the detector constraints."""
    count = 0
    for c_plus, c_minus, d_plus, d_minus in itertools.product((False, True), repeat=4):
        if c_plus and c_minus:
            continue
        if (d_plus and not c_minus) or (d_minus and not c_plus):
            continue
        if with_joint_click and not (d_plus and d_minus):
            continue
        count += 1
    return count


# ---------------------------------------------------------------- parsing

def _table_value(text: str, key: str, indent: str = "") -> str:
    match = re.search(rf"^{indent}{re.escape(key)}=(.*)$", text, re.MULTILINE)
    if match is None:
        raise CheckError(f"no {key} line in report")
    return match.group(1)


def _number(text: str) -> float:
    return float(text.split()[0])


def _complex(text: str) -> complex:
    """Parse the table form re+imi, e.g. 1.7+0i or -1e-05-0.5i."""
    match = re.fullmatch(r"(.+?)([+-][^+-]*(?:e[+-]\d+)?)i", text.strip())
    if match is None:
        raise CheckError(f"not a complex number: {text!r}")
    return complex(float(match.group(1)), float(match.group(2)))


def _json_complex(value: dict) -> complex:
    return complex(value["re"], value["im"])


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.strip("()").split(",")]


# ----------------------------------------------------------------- checker

class Checker:
    """Checks one report text against the request that produced it.

    Pointer references use the program's closed-form route, so the
    ``hardyweak`` package must be importable when a checker is built.
    """

    def __init__(self) -> None:
        from hardyweak import pointer, scenarios

        self._pointer_lib = pointer
        self._scenarios_lib = scenarios
        self._pre = scenarios.run_entanglement_swap().conditional_state()

    def check(self, request: Request, text: str) -> None:
        table = request.output_format == "table"
        payload = None if request.output_format != "json" else json.loads(text)
        if payload is not None and payload.get("scenario") != request.scenario:
            raise CheckError("report is for another scenario")
        getattr(self, "_" + request.scenario.replace("-", "_"))(
            request.params, text, payload, table
        )

    @staticmethod
    def _close(got: float, want: float, tolerance: float, table: bool, what: str) -> None:
        if table:
            tolerance += TABLE_RELATIVE * abs(want)
        if not abs(got - want) <= tolerance:
            raise CheckError(f"{what}: got {got!r}, expected {want!r}")

    def _hardy(self, params, text, payload, table) -> None:
        if table:
            got = {k: _number(_table_value(text, k)) for k in HARDY_KEYS}
        else:
            got = {k: payload["probabilities"][k] for k in HARDY_KEYS}
        want = hardy_reference(params["bs2_plus"], params["bs2_minus"])
        if params["bs2_plus"] and params["bs2_minus"]:
            self._close(got["p_dd"], 1 / 16, EXACT_TOLERANCE, table, "paper p_dd")
            self._close(got["p_gamma"], 1 / 4, EXACT_TOLERANCE, table, "paper p_gamma")
        for key in HARDY_KEYS:
            self._close(got[key], want[key], EXACT_TOLERANCE, table, key)
        self._close(sum(got.values()), 1.0, EXACT_TOLERANCE, table, "probability sum")

    def _counterfactual(self, params, text, payload, table) -> None:
        if table:
            full = int(_table_value(text, "satisfying_count"))
            relaxed = int(_table_value(text, "satisfying_count", indent="  "))
        else:
            full = payload["satisfying_count"]
            relaxed = payload["without_joint_click"]["satisfying_count"]
            if len(payload["without_joint_click"]["satisfying_assignments"]) != relaxed:
                raise CheckError("relaxed assignment list disagrees with its count")
        if full != counterfactual_reference(True):
            raise CheckError(f"{full} assignments satisfy the full constraint set")
        if relaxed != counterfactual_reference(False):
            raise CheckError(f"{relaxed} assignments without the joint click")

    def _swap(self, params, text, payload, table) -> None:
        mode = params["swap_mode"]
        if table:
            success = _number(_table_value(text, "success_probability"))
            weights = [
                float(w) for w in re.findall(r"^  \S+  weight=(\S+)", text, re.MULTILINE)
            ]
            fidelity = (
                _number(_table_value(text, "fidelity_to_target"))
                if mode == "coherent" else None
            )
            got_mode = _table_value(text, "mode")
        else:
            success = payload["success_probability"]
            weights = [b["weight"] for b in payload["branches"]]
            fidelity = payload.get("fidelity_to_target")
            got_mode = payload["mode"]
        if got_mode != mode:
            raise CheckError(f"swap ran in mode {got_mode!r}, asked for {mode!r}")
        if mode == "coherent":
            if fidelity is None:
                raise CheckError("coherent swap reports no fidelity")
            self._close(fidelity, 1.0, EXACT_TOLERANCE, table, "fidelity")
        elif len(weights) != 3:
            raise CheckError(f"decohered swap has {len(weights)} branches, not 3")
        self._close(sum(weights), success, EXACT_TOLERANCE, table, "branch weights")

    def _photonic_weak(self, params, text, payload, table) -> None:
        epsilon = params["epsilon"]
        if table:
            joint = [_complex(z) for z in _table_value(text, "A24_w").strip("()").split(",")]
            pairs = [
                _complex(value)
                for value in re.findall(r"^  \S+ \S+ -> .*value=(\S+)$", text, re.MULTILINE)
            ]
        else:
            joint = [_json_complex(z) for z in payload["A24_w"]]
            pairs = [
                _json_complex(row["weak_value"])
                for row in payload["occupations"]
                if len(row["photonic"].split()) == 2
            ]
        if len(joint) != 2:
            raise CheckError("A24_w needs one component per photon")
        for z in joint:
            self._close(z.real, epsilon, EXACT_TOLERANCE, table, "A24_w")
            self._close(z.imag, 0.0, EXACT_TOLERANCE, table, "A24_w imaginary part")
        if len(pairs) != 4:
            raise CheckError(f"{len(pairs)} pair occupations, expected 4")
        if not any(abs(z - (-1.0)) <= EXACT_TOLERANCE for z in pairs):
            raise CheckError(f"no pair occupation of -1 among {pairs}")

    def _moments(self, params, sigma, measured):
        p = self._pointer_lib
        post = self._scenarios_lib.analyzer_post_selection(params["phi"])
        spec = p.PointerSpec.default(
            params["gamma"], params["epsilon"], sigma, params["grid_points"]
        )
        terms = p.pointer_terms(self._pre, post, measured, spec)
        return p.analytic_moments(terms, spec)

    def _mean_tolerance(self, params, sigma) -> float:
        return GRID_TOLERANCE * (1.0 + abs(params["gamma"]) + abs(params["epsilon"]) + sigma)

    def _compare_means(self, got, want, tolerance, table, what) -> None:
        if len(got) != len(want):
            raise CheckError(f"{what}: {len(got)} axes, expected {len(want)}")
        for g, w in zip(got, want):
            self._close(g, w, tolerance, table, what)

    def _pointer(self, params, text, payload, table) -> None:
        sigma = params["sigma"]
        tolerance = self._mean_tolerance(params, sigma)
        for block, measured in (("photon2", ("2",)), ("photon4", ("4",)), ("joint", ("2", "4"))):
            want = self._moments(params, sigma, measured)
            if table:
                _, found, section = text.partition(f"\n{block}:\n")
                if not found:
                    raise CheckError(f"no {block} block in report")
                mean = _floats(_table_value(section, "mean", indent="  "))
                success = _number(_table_value(section, "success_probability", indent="  "))
            else:
                mean = payload[block]["mean"]
                mean = mean if isinstance(mean, list) else [mean]
                success = payload[block]["success_probability"]
            self._compare_means(mean, want.mean, tolerance, table, f"{block} mean")
            self._close(
                success, want.success_probability,
                GRID_TOLERANCE * (1.0 + want.success_probability), table,
                f"{block} success probability",
            )

    def _pointer_sweep(self, params, text, payload, table) -> None:
        lines = text.strip().split("\n")
        if lines[0] != "sigma,r,mean_t2,mean_t4,deviation_t2,deviation_t4":
            raise CheckError(f"unexpected csv header {lines[0]!r}")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if len(rows) != len(params["sigmas"]):
            raise CheckError(f"{len(rows)} sweep rows for {len(params['sigmas'])} widths")
        delta = abs(params["epsilon"] - params["gamma"])
        for row, sigma in zip(rows, params["sigmas"]):
            r = delta / sigma
            self._close(row[0], sigma, EXACT_TOLERANCE * (1 + sigma), False, "sweep sigma")
            self._close(row[1], r, EXACT_TOLERANCE * (1 + r), False, "sweep r")
            want = self._moments(params, sigma, ("2", "4"))
            self._compare_means(
                row[2:4], want.mean, self._mean_tolerance(params, sigma), False,
                f"sweep mean at sigma={sigma!r}",
            )
