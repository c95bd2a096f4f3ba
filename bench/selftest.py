"""Self-tests of the benchmark's generator, checker and trace arithmetic.

    python3 bench/selftest.py

Run from the root of a hardyweak checkout.  Prints one line per test and
exits 1 if any fails.  Grids here are small, so it takes a few seconds.
"""
from __future__ import annotations

import json
import random
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hardyweak  # noqa: E402
from hardyweak import cli  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Client  # noqa: E402

SEEDS = range(5)


def _client(requests) -> Client:
    return Client(cli, Checker(), iter(requests))


def _report(request) -> str:
    code, _, text, err = _client([])._call(request)
    assert code == 0, err
    return text


def _rejects(checker: Checker, request, text: str) -> None:
    try:
        checker.check(request, text)
    except CheckError:
        return
    raise AssertionError(f"checker accepted a corrupted {request.scenario} report")


def test_generator_repeats_for_a_seed() -> None:
    for workload in workloads.WORKLOADS:
        first = workloads.first(workload, 7, 100)
        assert first == workloads.first(workload, 7, 100), workload
        assert first != workloads.first(workload, 8, 100), workload


def test_generated_inputs_stay_in_domain() -> None:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            batch = workloads.first(workload, seed, 200)
            for request in batch:
                params = request.params
                if "phi" in params:
                    factor = workloads.post_selection_factor(params["phi"])
                    assert abs(factor) >= workloads.PHI_MARGIN, params
                sigmas = params.get("sigmas", (params.get("sigma", 1.0),))
                assert all(s > 0 for s in sigmas), params
                assert all(b > a for a, b in zip(sigmas, sigmas[1:])), params
                cli.assemble_config(list(request.argv))
            if workload == "label-algebra":
                counts = {g: 0 for g in workloads.LABEL_GROUPS}
                for request in batch:
                    counts[request.scenario] += 1
                assert set(counts.values()) == {len(batch) // 4}, counts


def test_negative_exponent_values_reach_the_program() -> None:
    request = workloads.make_request(
        "photonic-weak", "table", {}, ["--gamma", repr(-6e-05), "--epsilon", "1.0"]
    )
    assert cli.assemble_config(list(request.argv)).parameters.gamma == -6e-05


def test_checker_accepts_every_label_report() -> None:
    checker = Checker()
    for request in workloads.first("label-algebra", 3, 64):
        checker.check(request, _report(request))


def test_checker_rejects_altered_p_dd() -> None:
    checker = Checker()
    for output_format in ("json", "table"):
        request = workloads.make_request(
            "hardy", output_format, {"bs2_plus": True, "bs2_minus": True}, []
        )
        text = _report(request)
        checker.check(request, text)
        if output_format == "json":
            payload = json.loads(text)
            payload["probabilities"]["p_dd"] = 0.0626
            text = json.dumps(payload)
        else:
            assert "p_dd=0.0625 (1/16)" in text
            text = text.replace("p_dd=0.0625 (1/16)", "p_dd=0.0626")
        _rejects(checker, request, text)


def test_checker_rejects_shifted_pointer_mean() -> None:
    checker = Checker()
    rng = random.Random(11)
    table = workloads.pointer_request(rng, 512, "table")
    checker.check(table, _report(table))
    for _ in range(3):
        request = workloads.pointer_request(rng, 512, "json")
        text = _report(request)
        checker.check(request, text)
        for block in ("photon2", "joint"):
            payload = json.loads(text)
            mean = payload[block]["mean"]
            if isinstance(mean, list):
                mean[0] += 1e-6
            else:
                payload[block]["mean"] = mean + 1e-6
            _rejects(checker, request, json.dumps(payload))


def test_checker_rejects_shifted_sweep_mean() -> None:
    checker = Checker()
    request = workloads.sweep_request(random.Random(5), 256)
    text = _report(request)
    checker.check(request, text)
    lines = text.strip().split("\n")
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[3] = ",".join(fields)
    _rejects(checker, request, "\n".join(lines))


def test_checker_rejects_other_label_corruptions() -> None:
    checker = Checker()
    corruptions = {
        ("counterfactual", "json"): lambda p: p.update(satisfying_count=1),
        ("swap", "json"): lambda p: p["branches"][0].update(weight=0.2),
        ("photonic-weak", "json"): lambda p: p["A24_w"][0].update(re=1.5),
    }
    params = {"swap": {"swap_mode": "decohered"},
              "photonic-weak": {"gamma": 0.0, "epsilon": 1.0},
              "counterfactual": {}}
    for (scenario, output_format), corrupt in corruptions.items():
        flags = {"swap": ["--swap-mode", "decohered"]}.get(scenario, [])
        request = workloads.make_request(scenario, output_format, params[scenario], flags)
        payload = json.loads(_report(request))
        corrupt(payload)
        _rejects(checker, request, json.dumps(payload))


def test_traced_self_times_sum_to_wall_time() -> None:
    """Self times add up to each request's wall time, within the overhead.

    Every input runs three times untraced and three times traced, and
    the fastest run of each kind is kept.  The wall time not covered by
    spans must be no more than the tracing overhead measured this way
    plus the cost of the harness around ``run_cli``.
    """
    rng = random.Random(2)
    inputs = workloads.first("label-algebra", 4, 40)
    inputs += [workloads.pointer_request(rng, 256, "json") for _ in range(4)]
    client = _client([inputs[0]] + [r for r in inputs for _ in range(6)])
    client.one()  # warm-up
    tracer = Tracer(hardyweak)
    noop = Client(SimpleNamespace(run_cli=lambda argv: 0), None, iter(()))
    harness_ns = min(noop._call(inputs[0])[1] for _ in range(200))

    gap_ns = overhead_ns = 0
    for _ in inputs:
        plain = min(client.one()[0] for _ in range(3))
        traced = []
        for _ in range(3):
            tracer.install()
            client.tracer = tracer
            traced.append((client.one()[0], client.attempted))
            client.tracer = None
            tracer.uninstall()
        own = tracer.self_time_by_request()
        for wall, request_id in traced:
            assert own[request_id] <= wall, (own[request_id], wall)
        wall, request_id = min(traced)
        gap_ns += wall - own[request_id]
        overhead_ns += max(wall - plain, 0)
    assert not client.failures, client.failures
    allowed = overhead_ns + len(inputs) * harness_ns
    assert gap_ns <= allowed, f"uncovered {gap_ns} ns, overhead {allowed} ns"
    print(f"    uncovered {gap_ns / len(inputs) / 1e3:.1f} us per request; "
          f"overhead {overhead_ns / len(inputs) / 1e3:.1f} us, "
          f"harness {harness_ns / 1e3:.1f} us")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
