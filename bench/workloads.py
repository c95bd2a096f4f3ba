"""Seeded request generators for the benchmark workloads.

Each workload is an endless stream of ``Request`` values drawn from a
``random.Random`` seeded with the workload name and the seed, so one seed
always gives the same argv lists, in any process.  The program only ever
sees ``Request.argv``; ``Request.params`` keeps the drawn values for the
output checks.

Domain guards keep every input valid:

* the analyzer angle phi keeps |cos phi (cos phi + 2 sin phi)| >= 0.25,
  away from the orthogonal analyzers (cos phi = 0 or tan phi = -1/2),
  since <post|pre> is proportional to that product;
* every sigma is positive and at least a quarter of |epsilon - gamma|,
  so the grid spacing stays below sigma / 50 on every grid used here;
* sweep lists are strictly ascending.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

DENSE_GRID_POINTS = 4096
SWEEP_GRID_POINTS = 1024
SWEEP_WIDTHS = 6
PHI_MARGIN = 0.25

WORKLOADS = ("pointer-dense", "sweep-cached", "label-algebra")

# Bytes of the largest complex128 grid one request allocates.
WORKING_SET_BYTES = {
    "pointer-dense": 16 * DENSE_GRID_POINTS**2,
    "sweep-cached": 16 * SWEEP_GRID_POINTS**2,
    "label-algebra": 0,
}


@dataclass(frozen=True)
class Request:
    scenario: str
    output_format: str
    params: dict
    argv: tuple[str, ...]


def post_selection_factor(phi: float) -> float:
    """cos phi (cos phi + 2 sin phi), proportional to <post|pre>."""
    return math.cos(phi) * (math.cos(phi) + 2.0 * math.sin(phi))


def _delays(rng: random.Random) -> tuple[float, float]:
    gamma = rng.uniform(-1.0, 1.0)
    epsilon = rng.uniform(0.0, 3.0)
    while abs(epsilon - gamma) < 0.25:
        epsilon = rng.uniform(0.0, 3.0)
    return gamma, epsilon


def _phi(rng: random.Random) -> float:
    while True:
        phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        if abs(post_selection_factor(phi)) >= PHI_MARGIN:
            return phi


def _sigma(rng: random.Random, gamma: float, epsilon: float) -> float:
    return abs(epsilon - gamma) * 2.0 ** rng.uniform(-2.0, 4.0)


def make_request(scenario: str, output_format: str, params: dict, flags: list[str]) -> Request:
    # Flags and values are joined with "=": argparse reads a separate
    # value such as -6e-05 as an option and rejects the flag (exit 1).
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    argv = ["run", f"--scenario={scenario}", f"--format={output_format}", *joined]
    return Request(scenario, output_format, params, tuple(argv))


def pointer_request(rng: random.Random, grid_points: int, output_format: str) -> Request:
    gamma, epsilon = _delays(rng)
    params = {
        "gamma": gamma,
        "epsilon": epsilon,
        "sigma": _sigma(rng, gamma, epsilon),
        "phi": _phi(rng),
        "grid_points": grid_points,
    }
    flags = [
        "--gamma", repr(params["gamma"]),
        "--epsilon", repr(params["epsilon"]),
        "--sigma", repr(params["sigma"]),
        "--phi", repr(params["phi"]),
    ]
    if grid_points != DENSE_GRID_POINTS:
        flags += ["--grid-points", str(grid_points)]
    return make_request("pointer", output_format, params, flags)


def sweep_request(rng: random.Random, grid_points: int) -> Request:
    gamma, epsilon = _delays(rng)
    sigmas: list[float] = []
    while len(sigmas) != SWEEP_WIDTHS:
        sigmas = sorted({_sigma(rng, gamma, epsilon) for _ in range(SWEEP_WIDTHS)})
    params = {
        "gamma": gamma,
        "epsilon": epsilon,
        "phi": _phi(rng),
        "sigmas": tuple(sigmas),
        "grid_points": grid_points,
    }
    flags = [
        "--gamma", repr(gamma),
        "--epsilon", repr(epsilon),
        "--phi", repr(params["phi"]),
        "--grid-points", str(grid_points),
        "--sweep", "sigma=" + ",".join(repr(s) for s in sigmas),
    ]
    return make_request("pointer-sweep", "csv", params, flags)


def _label_request(rng: random.Random, group: str) -> Request:
    output_format = rng.choice(("table", "json"))
    if group == "hardy":
        plus, minus = rng.choice(((True, True), (True, False), (False, True), (False, False)))
        flags = ["--bs2-plus", str(plus).lower(), "--bs2-minus", str(minus).lower()]
        return make_request("hardy", output_format, {"bs2_plus": plus, "bs2_minus": minus}, flags)
    if group == "counterfactual":
        return make_request("counterfactual", output_format, {}, [])
    if group == "swap":
        mode = rng.choice(("coherent", "decohered"))
        return make_request("swap", output_format, {"swap_mode": mode}, ["--swap-mode", mode])
    gamma, epsilon = _delays(rng)
    flags = ["--gamma", repr(gamma), "--epsilon", repr(epsilon)]
    return make_request("photonic-weak", output_format, {"gamma": gamma, "epsilon": epsilon}, flags)


LABEL_GROUPS = ("hardy", "counterfactual", "swap", "photonic-weak")


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream of one workload; the same seed repeats it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        if workload == "pointer-dense":
            yield pointer_request(rng, DENSE_GRID_POINTS, ("table", "json")[index % 2])
            index += 1
        elif workload == "sweep-cached":
            yield sweep_request(rng, SWEEP_GRID_POINTS)
        else:
            # Each block of four holds every group once, so the mix stays
            # equal however many requests a run completes.
            for group in rng.sample(LABEL_GROUPS, len(LABEL_GROUPS)):
                yield _label_request(rng, group)


def first(workload: str, seed: int, count: int) -> list[Request]:
    return list(islice(requests(workload, seed), count))
