"""CLI behavior: parsing, exit codes, deterministic report formats."""
from __future__ import annotations

import dataclasses
import fcntl
import json
import math
import os
import time
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hardyweak
from hardyweak import __version__, cli, pointer, scenarios
from hardyweak.cli import (
    CONFIG_READ_LIMIT,
    INPUTS,
    MAX_SWEEP_WIDTHS,
    REPORTS,
    SCENARIOS,
    ConfigError,
    Parameters,
    _clean_float,
    _small_fraction,
    assemble_config,
    parse_config,
    render,
    run_cli,
)
from hardyweak.pointer import MAX_N_POINTS

from byte_corpus import digest

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_parse_config_accepts_full_document():
    config = parse_config(json.dumps({
        "scenario": "pointer",
        "gamma": 0.3,
        "epsilon": 1.7,
        "sigma": 4,
        "phi": -0.5,
        "bs2_plus": True,
        "bs2_minus": False,
        "swap_mode": "decohered",
        "grid_points": 256,
        "sweep": {"sigma": [1, 2, 4]},
        "format": "json",
        "out": "report.json",
    }))
    assert config["sigma"] == 4.0
    assert config["sweep"] == (1.0, 2.0, 4.0)
    assert config["bs2_minus"] is False


def test_parse_config_reports_json_error_position():
    with pytest.raises(ConfigError, match=r"parse error at line 1 column"):
        parse_config('{"scenario": "hardy",}')


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys.*sigmas"):
        parse_config('{"scenario": "hardy", "sigmas": [1]}')


def test_repeated_config_key_exits_one_and_names_it(capsys):
    config = Path(__file__).parent / "configs" / "repeated_key.json"
    code, out, err = run(["run", "--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: config: config key 'sigma' given more than once\n"


def test_parse_config_rejects_non_object_root():
    with pytest.raises(ConfigError, match="root must be an object"):
        parse_config('[1, 2]')


@pytest.mark.parametrize("document,needle", [
    ('{"scenario": "teleport"}', "unknown scenario"),
    ('{"epsilon": -1}', "epsilon must be nonnegative"),
    ('{"sigma": 0}', "sigma must be positive"),
    ('{"sigma": "wide"}', "must be a number"),
    ('{"grid_points": 32}', "at least 64"),
    ('{"grid_points": 4.5}', "must be an integer"),
    ('{"grid_points": true}', "must be an integer"),
    ('{"bs2_plus": 1}', "must be true or false"),
    ('{"swap_mode": "noisy"}', "swap_mode must be one of"),
    ('{"format": "yaml"}', "format must be one of"),
    ('{"out": ""}', "nonempty path"),
    ('{"sweep": {"gamma": [1]}}', "only sigma"),
    ('{"sweep": []}', "at least one value"),
    ('{"sweep": [1, -2]}', "must be positive"),
    ('{"sweep": [2, 1]}', "strictly ascending"),
    ('{"scenario": "pointer", "sigma": 1, "sigma": 2}',
     "^config key 'sigma' given more than once$"),
    ('{"sigma": 1, "scenario": "pointer", "sigma": 1}', "^config key 'sigma' given"),
    ('{"sweep": {"sigma": [1], "sigma": [2]}}', "^config key 'sigma' given"),
    ('{"tau": 1, "tau": 2}', "^config key 'tau' given"),
    pytest.param(
        '{"gamma": ' + "7" * 5000 + "}", "^parse error: ",
        id="gamma-5000-digits",
    ),
    pytest.param("[" * 100000 + "]" * 100000, "^parse error: ", id="nested-100000"),
])
def test_parse_config_field_validation(document, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(document)


def test_assemble_defaults():
    config = assemble_config(["run", "--scenario", "hardy"])
    assert config.scenario == "hardy"
    assert config.parameters == Parameters()
    assert config.sweep is None
    assert config.output_format == "table"
    assert config.output_path is None


def test_parser_keeps_no_values_between_calls():
    assemble_config(["run", "--scenario", "hardy", "--bs2-plus=false"])
    assert assemble_config(["run", "--scenario", "hardy"]).parameters == Parameters()


def test_assemble_rejects_sweep_outside_pointer_sweep():
    with pytest.raises(ConfigError, match="sweep only applies"):
        assemble_config(["run", "--scenario", "hardy", "--sweep", "sigma=1,2"])


def test_assemble_rejects_csv_outside_pointer_sweep():
    with pytest.raises(ConfigError, match="csv output only applies"):
        assemble_config(["run", "--scenario", "swap", "--format", "csv"])


ACCEPTED_KEYS = {
    "hardy": {"bs2_plus", "bs2_minus"},
    "counterfactual": set(),
    "swap": {"swap_mode"},
    "photonic-weak": {"gamma", "epsilon"},
    "pointer": {"gamma", "epsilon", "sigma", "phi", "grid_points"},
    "pointer-sweep": {"gamma", "epsilon", "phi", "grid_points", "sweep"},
}
SAMPLE_FLAGS = {
    "gamma": "0.5", "epsilon": "1.5", "sigma": "2", "phi": "-0.5",
    "bs2_plus": "false", "bs2_minus": "false", "swap_mode": "decohered",
    "grid_points": "128", "sweep": "sigma=1,2",
}


@pytest.mark.parametrize("scenario", sorted(ACCEPTED_KEYS))
def test_each_scenario_takes_only_its_keys(scenario):
    for key, text in SAMPLE_FLAGS.items():
        argv = ["run", "--scenario", scenario, "--" + key.replace("_", "-"), text]
        if key in ACCEPTED_KEYS[scenario]:
            assemble_config(argv)
        else:
            with pytest.raises(ConfigError, match=f"^{key} only applies to the "):
                assemble_config(argv)


def test_inapplicable_key_exits_one_from_flag_and_file(tmp_path, capsys):
    code, out, err = run(["run", "--scenario", "hardy", "--phi", "0.3"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: config: phi only applies to the pointer, pointer-sweep scenarios\n"
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scenario": "photonic-weak", "sigma": 2}))
    code, out, err = run(["run", "--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: config: sigma only applies to the pointer scenario\n"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("scenario,key,value,name", [
    ("photonic-weak", "gamma", math.nan, "gamma"),
    ("photonic-weak", "epsilon", math.inf, "epsilon"),
    ("pointer", "sigma", -math.inf, "sigma"),
    ("pointer", "phi", math.nan, "phi"),
    ("pointer-sweep", "sweep", [1.0, math.inf], "sweep value"),
    ("pointer-sweep", "sweep", [-math.inf, 1.0], "sweep value"),
])
def test_non_finite_values_exit_one(
    tmp_path, capsys, source, scenario, key, value, name
):
    if source == "flag":
        text = "sigma=" + ",".join(map(str, value)) if key == "sweep" else str(value)
        argv = ["run", "--scenario", scenario, f"--{key}", text]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scenario": scenario, key: value}))
        argv = ["run", "--config", str(config)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: config: {name} must be finite, got ")


def test_grid_points_above_cap_is_a_config_error():
    # Checked before any grid exists: a run at this size would need gigabytes.
    too_many = str(MAX_N_POINTS + 1)
    with pytest.raises(ConfigError, match="grid_points must be at most 8192"):
        assemble_config(["run", "--scenario", "pointer", "--grid-points", too_many])


def test_negative_exponent_value_as_separate_argument(capsys):
    spaced = run(["run", "--scenario", "photonic-weak", "--gamma", "-6e-05"], capsys)
    joined = run(["run", "--scenario", "photonic-weak", "--gamma=-6e-05"], capsys)
    assert spaced == joined
    assert spaced[0] == 0
    assert "gamma=-6e-05\n" in spaced[1]


@pytest.mark.parametrize("text", ["sigma", "epsilon=1,2", "sigma=a,b", "sigma=3,2"])
def test_assemble_rejects_bad_sweep_flags(text):
    with pytest.raises(ConfigError):
        assemble_config(["run", "--scenario", "pointer-sweep", "--sweep", text])


def test_bs2_flag_forms():
    bare = assemble_config(["run", "--scenario", "hardy", "--bs2-plus"])
    assert bare.parameters.bs2_plus is True
    inline = assemble_config(["run", "--scenario", "hardy", "--bs2-plus=false"])
    assert inline.parameters.bs2_plus is False
    spaced = assemble_config(["run", "--scenario", "hardy", "--bs2-minus", "no"])
    assert spaced.parameters.bs2_minus is False
    with pytest.raises(ConfigError, match="expects true or false"):
        assemble_config(["run", "--scenario", "hardy", "--bs2-plus", "maybe"])
    # A bare bool stops at the next flag; a word that is not a flag is its value.
    followed = assemble_config(["run", "--bs2-plus", "--format=json", "--scenario=hardy"])
    assert followed.parameters.bs2_plus is True
    assert followed.output_format == "json"


# -------------------------------------------------------------- exit codes


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(["run", "--no-such-flag"], capsys)
    assert code == 1
    assert err.startswith("error: config: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["--scen", "pointer"], "unrecognized arguments: --scen"),
    (["--scenario=pointer", "--sig=3"], "unrecognized arguments: --sig"),
    (["--scenario=pointer", "--grid=64"], "unrecognized arguments: --grid"),
    (["--scenario=hardy", "--bs2_plus=true"], "unrecognized arguments: --bs2_plus"),
    (["--scenario=hardy", "--format=json", "--format=table"],
     "argument --format: given more than once"),
    (["--config", "run.json", "--config=run.json"],
     "argument --config: given more than once"),
    (["--scenario=pointer", "--gamma"], "argument --gamma: expected one argument"),
    (["--scenario=pointer", "--gamma", "--sigma=2"],
     "argument --gamma: expected one argument"),
    (["--scenario", "hardy", "pointer"], "unrecognized arguments: pointer"),
])
def test_abbreviated_unknown_repeated_and_valueless_flags_exit_one(capsys, argv, message):
    code, out, err = run(["run", *argv], capsys)
    assert (code, out, err) == (1, "", f"error: config: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["run", "--help"],
                                  ["run", "--scenario=nope", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: hardyweak run --scenario=NAME ")
    for key, (_, spec) in INPUTS.items():
        assert f"  --{key.replace('_', '-')}=" in out
        assert spec.help in out
    assert "  --config=PATH\n" in out
    assert "--swap-mode={coherent,decohered}\n      swap preparation (swap)\n" in out
    cap = INPUTS["sweep"][1].maximum
    assert cap == cli.MAX_SWEEP_WIDTHS == 64
    assert f"e.g. sigma=1,2,4; at most {cap} values (pointer-sweep)\n" in out


def test_bad_sigma_exits_one(capsys):
    code, _, err = run(["run", "--scenario", "pointer", "--sigma", "-1"], capsys)
    assert code == 1
    assert "sigma must be positive" in err


def test_missing_config_file_exits_one(capsys):
    code, _, err = run(["run", "--config", "/no/such/file.json"], capsys)
    assert code == 1
    assert "cannot read config file" in err


def test_non_utf8_config_file_exits_one(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"scenario": "hardy", "out": "\xff"}')
    code, out, err = run(["run", "--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: config: cannot read config file: ")
    assert err.count("\n") == 1


def test_config_directory_exits_one(tmp_path, capsys):
    code, out, err = run(["run", "--scenario=hardy", f"--config={tmp_path}"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: config: cannot read config file: {tmp_path} is not a regular file\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_config_exits_one_without_waiting_for_a_writer(tmp_path):
    # Opening a FIFO for reading blocks until a writer opens it; no writer
    # ever does here, so a blocking open would hit the timeout.
    fifo = tmp_path / "run.json"
    os.mkfifo(fifo)
    done = subprocess.run(
        [sys.executable, "-m", "hardyweak.cli", "run", f"--config={fifo}"],
        capture_output=True, env=_child_env(), timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode() == (
        f"error: config: cannot read config file: {fifo} is not a regular file\n")


def test_config_read_stops_at_its_limit(tmp_path, capsys):
    # Padding to the limit is still a config; one byte more is refused.
    config = tmp_path / "run.json"
    document = '{"scenario": "hardy"}'
    config.write_text(document + " " * (CONFIG_READ_LIMIT - len(document)))
    assert run(["run", "--config", str(config)], capsys)[0] == 0
    config.write_text(document + " " * (CONFIG_READ_LIMIT + 1 - len(document)))
    code, out, err = run(["run", "--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: config: config file is larger than 1048576 bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_config_exits_one_in_under_a_second(capsys):
    start = time.perf_counter()
    code, out, err = run(["run", "--config=/dev/zero"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: config: cannot read config file: /dev/zero is not a regular file\n"


def test_config_newlines_read_as_in_text_mode(tmp_path, capsys):
    # A parse error names the same line for \n, \r\n and \r line ends.
    config = tmp_path / "run.json"
    for end in ("\n", "\r\n", "\r"):
        config.write_bytes(end.join(['{"scenario": "hardy",', '', '}']).encode())
        code, _, err = run(["run", "--config", str(config)], capsys)
        assert (code, err) == (1, "error: config: parse error at line 3 column 1\n")


@pytest.mark.parametrize("form", ["flag", "config"])
def test_sweep_width_count_is_capped(tmp_path, capsys, form):
    def argv(count):
        widths = [float(k) for k in range(1, count + 1)]
        if form == "flag":
            return ["--sweep", "sigma=" + ",".join(map(repr, widths))]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sweep": {"sigma": widths}}))
        return ["--config", str(config)]

    base = ["run", "--scenario=pointer-sweep", "--grid-points=64"]
    code, out, err = run([*base, *argv(MAX_SWEEP_WIDTHS)], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) > MAX_SWEEP_WIDTHS
    code, out, err = run([*base, *argv(MAX_SWEEP_WIDTHS + 1)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: config: sweep takes at most 64 values, got 65\n"
    assert INPUTS["sweep"][1].maximum == MAX_SWEEP_WIDTHS == 64


def test_config_file_cannot_name_another_config(tmp_path, capsys):
    # --config is a flag only; a file does not chain to a second file.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scenario": "hardy", "config": str(config)}))
    code, out, err = run(["run", "--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: config: unknown config keys: ['config']\n"


def test_default_sweep_at_zero_epsilon_names_the_cause(capsys):
    # The default widths are multiples of epsilon; no sweep was passed.
    code, out, err = run(["run", "--scenario=pointer-sweep", "--epsilon=0"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: domain: the default sweep widths are multiples of "
                   "epsilon (0), so none is positive; pass --sweep sigma=v1,v2,...\n")
    code, _, _ = run(["run", "--scenario=pointer-sweep", "--epsilon=0",
                      "--sweep", "sigma=1,2", "--grid-points=128"], capsys)
    assert code == 0


def test_orthogonal_analyzer_exits_two(capsys):
    # phi of a quarter turn post-selects on V V, orthogonal to the pair.
    code, _, err = run(
        ["run", "--scenario", "pointer", "--phi", "1.5707963267948966",
         "--grid-points", "128"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: domain: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["--scenario", "pointer", "--sigma", "1e-300"],
     "sigma 1e-300 is too small: sigma**2 underflows below 2.22507e-308"),
    (["--scenario", "pointer-sweep", "--sweep", "sigma=1e-300"],
     "sigma 1e-300 is too small: sigma**2 underflows below 2.22507e-308"),
    (["--scenario", "pointer", "--sigma", "1e200"],
     "pointer window [-8e+200, 8e+200], 8 sigma beyond the delays, is too wide: "
     "its squared extent overflows"),
    (["--scenario=pointer-sweep", "--epsilon=1e154", "--format=csv"],
     "pointer window [-8e+154, 9e+154], 8 sigma beyond the delays, is too wide: "
     "its squared extent overflows"),
])
def test_a_run_without_a_grid_names_the_square_that_fails(capsys, argv, message):
    # Refused for the closed form's own squares, which no grid sets.
    code, out, err = run(["run", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: domain: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--scenario", "pointer", "--gamma", "0", "--epsilon", "0", "--sigma", "1e-300",
     "--grid-points", "64"],
    ["--scenario", "pointer", "--sigma", "4e-4", "--grid-points", "1024"],
    # A step of exactly sigma aliases 2e-7 of each density, over the 1e-9 budget.
    ["--scenario=pointer", "--sigma=0.02127659574468085", "--grid-points=64", "--phi=0.3"],
])
def test_unresolved_grid_exits_two(capsys, argv):
    code, out, err = run(["run", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: domain: grid step ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--scenario=pointer", "--gamma=0", "--epsilon=1e154", "--sigma=1e153",
     "--grid-points=64"],
    ["--scenario=pointer", "--gamma=-1e300", "--epsilon=1e300", "--sigma=1e299",
     "--grid-points=64"],
    ["--scenario=pointer-sweep", "--epsilon=1e154", "--grid-points=64", "--format=csv"],
])
def test_overflowing_grid_exits_two(capsys, argv):
    code, out, err = run(["run", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: domain: grid [")
    assert "squared extent overflows" in err
    assert err.count("\n") == 1


def test_wide_grid_below_overflow_exits_zero(capsys):
    code, out, err = run(
        ["run", "--scenario=pointer", "--epsilon=1e150", "--sigma=1e149",
         "--grid-points=64"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert "weak_value=(1e+150, 1e+150)" in out


def test_missing_scenario_exits_one(capsys):
    code, _, err = run(["run"], capsys)
    assert code == 1
    assert "no scenario selected" in err


# ----------------------------------------------------------------- hardy


def test_hardy_json_probabilities(capsys):
    code, out, _ = run(["run", "--scenario", "hardy", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"] == {"tool": "hardyweak", "version": __version__}
    assert payload["probabilities"]["p_dd"] == 0.0625
    assert payload["probabilities"]["p_dd_rational"] == "1/16"
    assert payload["probabilities"]["p_gamma"] == 0.25


# A negative delay, a narrow pointer and an analyzer away from -pi/4.
POINTER_OFFSET = [
    "--scenario", "pointer", "--gamma=-0.5", "--epsilon=1.5", "--sigma=2",
    "--phi=-0.5", "--grid-points=128",
]
# Equal delays: both pointer shifts sample one and the same Gaussian.
POINTER_DEGENERATE = [
    "--scenario=pointer", "--gamma=1", "--epsilon=1", "--grid-points=128",
]
# Every scenario x format, frozen from the closed-form and grid routes.
# The file extension is the output format; ".txt" is the table.
GOLDENS = {
    "hardy_both_present.json": ["--scenario", "hardy", "--format", "json"],
    "hardy_both_present.txt": ["--scenario", "hardy"],
    "hardy_plus_removed.json": [
        "--scenario", "hardy", "--bs2-plus=false", "--format", "json",
    ],
    "hardy_plus_removed.txt": ["--scenario", "hardy", "--bs2-plus=false"],
    "counterfactual.json": ["--scenario", "counterfactual", "--format", "json"],
    "counterfactual.txt": ["--scenario", "counterfactual"],
    "swap_coherent.json": ["--scenario", "swap", "--format", "json"],
    "swap_coherent.txt": ["--scenario", "swap"],
    "swap_decohered.json": [
        "--scenario", "swap", "--swap-mode", "decohered", "--format", "json",
    ],
    "swap_decohered.txt": ["--scenario", "swap", "--swap-mode", "decohered"],
    "photonic_weak.json": ["--scenario", "photonic-weak", "--format", "json"],
    "photonic_weak.txt": ["--scenario", "photonic-weak"],
    "photonic_weak_delays.json": [
        "--scenario", "photonic-weak", "--gamma", "0.3", "--epsilon", "1.7",
        "--format", "json",
    ],
    "photonic_weak_delays.txt": [
        "--scenario", "photonic-weak", "--gamma", "0.3", "--epsilon", "1.7",
    ],
    "pointer_128.json": [
        "--scenario", "pointer", "--grid-points", "128", "--format", "json",
    ],
    "pointer_128.txt": ["--scenario", "pointer", "--grid-points", "128"],
    "pointer_128_offset.json": [*POINTER_OFFSET, "--format", "json"],
    "pointer_128_offset.txt": POINTER_OFFSET,
    "pointer_degenerate.json": [*POINTER_DEGENERATE, "--format", "json"],
    "pointer_degenerate.txt": POINTER_DEGENERATE,
    "pointer_sweep_128.json": [
        "--scenario", "pointer-sweep", "--grid-points", "128", "--format", "json",
    ],
    "pointer_sweep_128.txt": ["--scenario", "pointer-sweep", "--grid-points", "128"],
    "pointer_sweep_128.csv": [
        "--scenario", "pointer-sweep", "--grid-points", "128", "--format", "csv",
    ],
}
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(capsys, name):
    code, out, err = run(["run", *GOLDENS[name]], capsys)
    assert (code, err) == (0, "")
    if name.endswith(".json"):
        payload = json.loads(out)
        assert payload.pop("meta") == {"tool": "hardyweak", "version": __version__}
        out = json.dumps(payload, indent=2) + "\n"
    assert out == (GOLDEN_DIR / name).read_text()


def test_goldens_repeat_byte_for_byte_from_the_caches(capsys):
    caches = [scenarios._hardy, scenarios._counterfactual, scenarios._swap,
              scenarios._standard_selection]

    def golden_pass():
        return [run(["run", *argv], capsys) for argv in GOLDENS.values()]

    first = golden_pass()
    filled = [cache.cache_info() for cache in caches]
    assert golden_pass() == first
    for before, cache in zip(filled, caches):
        after = cache.cache_info()
        assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("name", sorted(n for n in GOLDENS if not n.endswith(".json")))
def test_table_and_csv_render_from_the_json_report_alone(capsys, name):
    output_format = "csv" if name.endswith(".csv") else "table"
    argv = GOLDENS[name]
    code, report, _ = run(["run", *argv], capsys)
    assert code == 0
    if "--format" in argv:  # each flag may be given once: replace the format
        at = argv.index("--format")
        argv = argv[:at] + argv[at + 2:]
    _, out, _ = run(["run", *argv, "--format", "json"], capsys)
    assert render(json.loads(out), output_format) + "\n" == report


def test_every_scenario_has_one_builder_and_renderer():
    assert tuple(REPORTS) == SCENARIOS


def test_hardy_removed_splitter_probability(capsys):
    _, out, _ = run(
        ["run", "--scenario", "hardy", "--bs2-plus=false", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["bs2_plus"] is False
    assert payload["probabilities"]["p_dc"] == 0.5
    assert payload["probabilities"]["p_dc_rational"] == "1/2"
    assert payload["probabilities"]["p_dd"] == 0.0


def test_json_output_roundtrips_exactly(capsys):
    _, out, _ = run(["run", "--scenario", "hardy", "--format", "json"], capsys)
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["run", "--scenario", "swap", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def _child_env():
    # The child imports the package from where this process found it.
    source = str(Path(hardyweak.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _child_run(*args, **env):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, check=True,
        env={**_child_env(), **env},
    )


DIGEST_GOLDENS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from byte_corpus import digest
for argv in json.loads(sys.argv[2]):
    print(json.dumps(digest(argv)))
"""


def test_cross_process_determinism():
    # Each child runs every golden argv under its own string hashing; both
    # print what this process prints.
    argvs = [["run", *argv] for argv in GOLDENS.values()]
    args = ["-c", DIGEST_GOLDENS, str(Path(__file__).parent), json.dumps(argvs)]
    first = _child_run(*args, PYTHONHASHSEED="1").stdout.decode().splitlines()
    second = _child_run(*args, PYTHONHASHSEED="2").stdout.decode().splitlines()
    assert len(first) == len(GOLDENS)
    assert first == second == [json.dumps(digest(argv)) for argv in argvs]
    assert [json.loads(line)["exit"] for line in first] == [0] * len(GOLDENS)


def test_module_entry_point_runs_a_scenario():
    done = _child_run("-m", "hardyweak.cli", "run", "--scenario", "hardy")
    assert done.stdout.decode() == (GOLDEN_DIR / "hardy_both_present.txt").read_text()
    assert done.stderr == b""


def test_closed_stdout_pipe_exits_one_without_traceback():
    # About 15 kB of json, more than the pipe (shrunk to one page) holds:
    # the child is still writing when the reader closes the pipe after
    # one line.
    widths = ",".join(str(w) for w in range(1, MAX_SWEEP_WIDTHS + 1))
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with os.fdopen(write_end, "wb") as stdout:
        child = subprocess.Popen(
            [sys.executable, "-m", "hardyweak.cli", "run", "--scenario=pointer-sweep",
             "--format=json", f"--sweep=sigma={widths}"],
            stdout=stdout, stderr=subprocess.PIPE, env=_child_env(),
        )
    child.stdout = os.fdopen(read_end, "rb", buffering=0)  # reads only the line
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == "error: config: cannot write report: [Errno 32] Broken pipe\n"


def test_label_and_pointer_runs_never_import_numpy():
    code = (
        "import sys\n"
        "from hardyweak.cli import run_cli\n"
        "assert run_cli(['run', '--scenario', 'hardy']) == 0\n"
        "assert run_cli(['run', '--scenario', 'pointer', '--grid-points', '64']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    done = _child_run("-c", code)
    assert done.stdout.decode().splitlines()[-1] == "False"


# ----------------------------------------------------------- other tables


def test_photonic_weak_table_pins(capsys):
    code, out, _ = run(["run", "--scenario", "photonic-weak"], capsys)
    assert code == 0
    assert "A2_w=1+0i" in out
    assert "A4_w=1+0i" in out
    assert "A24_w=(1+0i, 1+0i)" in out
    assert "H2 H4 -> NO+ NO-  value=-1+0i" in out


def test_photonic_weak_large_delay_exits_zero(capsys):
    code, out, err = run(
        ["run", "--scenario", "photonic-weak", "--epsilon", "10000"], capsys
    )
    assert (code, err) == (0, "")
    assert "A24_w=(10000+0i, 10000+0i)" in out


@pytest.mark.parametrize("gamma,epsilon", [
    ("0", "1e8"), ("0", "1e17"), ("-1e300", "1e300"), ("-1e308", "1e308"),
])
def test_photonic_weak_self_checks_scale_with_delays(capsys, gamma, epsilon):
    code, out, err = run(
        ["run", "--scenario", "photonic-weak", "--gamma", gamma,
         "--epsilon", epsilon, "--format", "json"],
        capsys,
    )
    assert (code, err) == (0, "")
    real_parts = [z["re"] for z in json.loads(out)["A24_w"]]
    assert real_parts == pytest.approx([float(epsilon)] * 2, rel=1e-12)


def test_weak_value_past_the_float_range_exits_two(capsys):
    # A2_w is epsilon times 1 + 2 ulp here, which rounds past the largest float.
    code, out, err = run(
        ["run", "--scenario=photonic-weak", "--epsilon=1.7976931348623157e308"], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: domain: A2_w is inf, not a finite number\n"


@pytest.mark.parametrize("scenario,target,key", [
    ("pointer", "pointer_moments", "photon2"),
    ("pointer-sweep", "weak_limit_sweep", "rows"),
])
def test_raw_pointer_numbers_are_checked_for_finiteness(monkeypatch, capsys, scenario,
                                                        target, key):
    # The grid refuses inputs large enough to overflow, so a library value
    # is made inf here; the report names its key, as a cleaned one does.
    original = getattr(cli, target)

    def overflowing(*args, **kwargs):
        result = original(*args, **kwargs)
        if target == "pointer_moments":
            return dataclasses.replace(result, variance=(math.inf,) * len(result.variance))
        return [dataclasses.replace(row, mean=(math.inf,) * len(row.mean)) for row in result]

    monkeypatch.setattr(cli, target, overflowing)
    code, out, err = run(["run", f"--scenario={scenario}", "--grid-points=128"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: domain: {key} is inf, not a finite number\n"


def test_photonic_weak_json_schema(capsys):
    _, out, _ = run(
        ["run", "--scenario", "photonic-weak", "--gamma", "0.3",
         "--epsilon", "1.7", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["A2_w"] == {"re": 1.7, "im": 0.0}
    assert payload["A24_w"] == [{"re": 1.7, "im": 0.0}, {"re": 1.7, "im": 0.0}]
    assert payload["success_probability_rational"] == "1/12"
    joint_occupation = {
        row["photonic"]: row["weak_value"] for row in payload["occupations"]
    }
    assert joint_occupation["H2 H4"] == {"re": -1.0, "im": 0.0}
    labels = [row["label"] for row in payload["decomposition"]]
    assert labels == ["H2 H4", "H2 V4", "V2 H4", "V2 V4"]


def test_counterfactual_json(capsys):
    _, out, _ = run(["run", "--scenario", "counterfactual", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["satisfying_assignments"] == []
    assert payload["satisfying_count"] == 0
    relaxed = payload["without_joint_click"]
    assert relaxed["satisfying_count"] == 5
    assert len(relaxed["satisfying_assignments"]) == 5


def test_swap_json(capsys):
    _, out, _ = run(["run", "--scenario", "swap", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["success_probability"] == 0.375
    assert payload["success_probability_rational"] == "3/8"
    assert payload["fidelity_to_target_rational"] == "1"
    assert len(payload["branches"]) == 1


def test_swap_decohered_json(capsys):
    _, out, _ = run(
        ["run", "--scenario", "swap", "--swap-mode", "decohered",
         "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert "fidelity_to_target" not in payload
    weights = [branch["weight_rational"] for branch in payload["branches"]]
    assert weights == ["1/8", "1/8", "1/8"]


def test_pointer_json_schema(capsys):
    _, out, _ = run(
        ["run", "--scenario", "pointer", "--grid-points", "128",
         "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    for name in ("photon2", "photon4"):
        block = payload[name]
        assert set(block) == {
            "mean", "variance", "success_probability", "weak_value", "deviation",
        }
        assert isinstance(block["mean"], float)
    joint = payload["joint"]
    assert len(joint["mean"]) == 2
    assert len(joint["deviation"]) == 2
    assert payload["weakness_ratio"] == 0.125


def test_default_pointer_run_stays_small(capsys):
    # A dense joint grid at 4096 points per axis would hold 16 * 4096**2 B = 268 MB.
    tracemalloc.start()
    try:
        code = run_cli(["run", "--scenario=pointer"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.startswith("scenario=pointer\n")
    assert peak < 10_000_000


def test_explicit_large_grid_run_stays_small(capsys):
    # The same guard at an explicit 4096 points per axis.
    tracemalloc.start()
    try:
        code = run_cli(["run", "--scenario=pointer", "--grid-points=4096"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "\ngrid_points=4096\n" in capsys.readouterr().out
    assert peak < 10_000_000


@pytest.mark.parametrize("argv,grid_points", [
    (["--scenario=pointer"], []),
    (["--scenario=pointer", "--sigma=0.00025"], []),
    (["--scenario=pointer", "--grid-points=100"], ["grid_points=100"]),
    (["--scenario=pointer-sweep"], []),
    (["--scenario=pointer-sweep", "--sweep=sigma=0.00025,1"], []),
    (["--scenario=pointer-sweep", "--grid-points=8192", "--sweep=sigma=0.00025,1"],
     ["grid_points=8192"]),
])
def test_only_a_checking_grid_is_reported(capsys, argv, grid_points):
    code, out, _ = run(["run", *argv], capsys)
    assert code == 0
    assert [line for line in out.split("\n") if line.startswith("grid_points=")] == grid_points
    _, out, _ = run(["run", *argv, "--format=json"], capsys)
    assert ("grid_points" in json.loads(out)) == bool(grid_points)


def _library_pointer(argv):
    """The parsed inputs, each profile's moments and the joint weak
    prediction, as the library computes them for a ``pointer`` argv."""
    p = assemble_config(["run", "--scenario=pointer", *argv]).parameters
    pre = scenarios.run_entanglement_swap().conditional_state()
    post = scenarios.analyzer_post_selection(p.phi)
    spec = pointer.PointerSpec.default(p.gamma, p.epsilon, p.sigma, p.grid_points)
    profiles = pointer.pointer_profiles(pre, post, (("2",), ("4",), ("2", "4")), spec)
    joint = profiles[-1]
    return p, spec, [pointer.pointer_moments(x) for x in profiles], joint


def test_pointer_single_photon_mean_is_exact(capsys):
    # The weak value prints as the library computes it, 1 ulp above 1 here:
    # within the route's rounding bound ulp * sum|d c| / |sum c| (ROADMAP
    # item 13), not snapped to 1.
    argv = ["--grid-points", "512"]
    _, out, _ = run(["run", "--scenario", "pointer", *argv, "--format", "json"], capsys)
    payload = json.loads(out)
    *_, joint = _library_pointer(argv)
    a2 = pointer.weak_prediction(joint)[0]
    bound = math.ulp(1.0) * sum(abs(d[0] * c) for d, c in joint.terms) / abs(
        sum(c for _, c in joint.terms))
    assert payload["photon2"]["weak_value"].hex() == a2.hex()
    assert 0 < abs(a2 - 1.0) <= bound
    assert payload["photon2"]["mean"] == pytest.approx(1.0, abs=1e-9)
    assert payload["photon2"]["deviation"] == pytest.approx(0.0, abs=1e-9)


def _hex(value):
    """A report value with every float as its hex, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    return value


@pytest.mark.parametrize("argv", [
    ["--grid-points=128"],
    ["--gamma=0.3", "--epsilon=1.7", "--sigma=2.5", "--phi=0.3"],
    ["--gamma=-2e-05", "--epsilon=3e-06", "--sigma=0.7", "--phi=-1.1"],
    ["--gamma=1", "--epsilon=1", "--grid-points=128"],
])
def test_pointer_json_prints_the_library_values_bit_for_bit(capsys, argv):
    code, out, _ = run(["run", "--scenario=pointer", *argv, "--format=json"], capsys)
    assert code == 0
    p, spec, moments, joint = _library_pointer(argv)
    prediction = pointer.weak_prediction(joint)
    want = {
        "meta": {"tool": "hardyweak", "version": __version__}, "scenario": "pointer",
        "gamma": p.gamma, "epsilon": p.epsilon, "sigma": p.sigma, "phi": p.phi,
        **({} if p.grid_points is None else {"grid_points": spec.n_points}),
        "weakness_ratio": spec.weakness_ratio,
    }
    for name, m, axes in zip(("photon2", "photon4", "joint"), moments, ((0,), (1,), (0, 1))):
        w = [prediction[axis] for axis in axes]
        block = {
            "mean": list(m.mean), "variance": list(m.variance),
            "success_probability": m.success_probability, "weak_value": w,
            "deviation": [abs(mean - x) for mean, x in zip(m.mean, w)],
        }
        want[name] = {key: v[0] if isinstance(v, list) and len(axes) == 1 else v
                      for key, v in block.items()}
    assert _hex(json.loads(out)) == _hex(want)


def test_pointer_prints_a_signed_zero_as_zero(capsys):
    # With both delays 0 the library's weak value is -0.0; the report
    # prints 0, as it did when every float was cleaned.
    argv = ["--gamma=0", "--epsilon=0"]
    *_, joint = _library_pointer(argv)
    assert [math.copysign(1.0, w) for w in pointer.weak_prediction(joint)] == [-1.0, -1.0]
    code, out, _ = run(["run", "--scenario=pointer", *argv], capsys)
    assert code == 0
    assert "weak_value=0\n" in out and "weak_value=(0, 0)\n" in out
    assert re.findall(r"-0(?![.\d])", out) == []  # phi=-0.785398 is no zero
    _, out, _ = run(["run", "--scenario=pointer", *argv, "--format=json"], capsys)
    assert "-0.0" not in out


@pytest.mark.parametrize("argv,pins", [
    (["--scenario=pointer", "--grid-points=128"], False),
    (["--scenario=pointer", "--grid-points=128", "--format=json"], False),
    (["--scenario=pointer-sweep", "--grid-points=128", "--format=csv"], False),
    (["--scenario=pointer-sweep", "--grid-points=128", "--format=json"], False),
    (["--scenario=pointer-sweep", "--grid-points=128"], False),
    (["--scenario=photonic-weak"], True),
])
def test_only_label_reports_clean_their_floats(monkeypatch, capsys, argv, pins):
    # A pointer or sweep number is measured and prints raw; only the label
    # scenarios' floats go through _clean_float and the continued fraction.
    calls = []
    for name in ("_clean_float", "_small_fraction"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, f=original, n=name: calls.append(n) or f(x))
    assert run(["run", *argv], capsys)[0] == 0
    assert sorted(set(calls)) == (["_clean_float", "_small_fraction"] if pins else [])


# ------------------------------------------------------------------ sweep


def test_sweep_csv_and_json_agree(capsys):
    argv = ["run", "--scenario", "pointer-sweep", "--sweep", "sigma=1,2",
            "--grid-points", "128"]
    code, csv_out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    _, json_out, _ = run(argv + ["--format", "json"], capsys)
    rows = json.loads(json_out)["rows"]
    lines = csv_out.rstrip("\n").split("\n")
    assert lines[0] == "sigma,r,mean_t2,mean_t4,deviation_t2,deviation_t4"
    assert len(lines) == 1 + len(rows) == 3
    for line, row in zip(lines[1:], rows):
        sigma, r, m2, m4, d2, d4 = (float(piece) for piece in line.split(","))
        assert [sigma, r] == [row["sigma"], row["r"]]
        assert [m2, m4] == row["mean"]
        assert [d2, d4] == row["deviation"]


def test_sweep_default_widths_scale_with_epsilon(capsys):
    _, out, _ = run(
        ["run", "--scenario", "pointer-sweep", "--epsilon", "2",
         "--grid-points", "128", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    sigmas = [row["sigma"] for row in payload["rows"]]
    assert sigmas == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


# ------------------------------------------------------------ file output


def test_out_writes_exact_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["run", "--scenario", "hardy", "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    _, printed, _ = run(["run", "--scenario", "hardy", "--format", "json"], capsys)
    assert target.read_text() == printed


@pytest.mark.parametrize("target", ["missing/report.txt", "."])
def test_unwritable_out_path_exits_one(tmp_path, capsys, target):
    path = tmp_path / target  # a missing directory, then a directory itself
    code, out, err = run(
        ["run", "--scenario", "hardy", "--out", str(path)], capsys
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: config: cannot write report: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out=", "--config="])
def test_empty_path_exits_one_before_any_file_access(capsys, flag):
    code, out, err = run(["run", "--scenario=hardy", flag], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: config: {flag[2:-1]} must be a nonempty path\n"


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "scenario": "hardy", "bs2_minus": False, "format": "json",
    }))
    _, out, _ = run(["run", "--config", str(config), "--bs2-minus", "true"], capsys)
    payload = json.loads(out)
    assert payload["bs2_minus"] is True
    _, out, _ = run(["run", "--config", str(config)], capsys)
    payload = json.loads(out)
    assert payload["bs2_minus"] is False
    assert payload["probabilities"]["p_cd"] == 0.5


# ------------------------------------------------------- rational pinning


def _reference_fraction(value):
    approx = Fraction(value).limit_denominator(64)
    return approx if abs(float(approx) - value) <= 1e-9 else None


def _pinning_probes():
    rng = random.Random(20041)
    exact = sorted({Fraction(p, q) for q in range(1, 65) for p in range(-q, q + 1)})
    for r in exact:
        x = float(r)
        yield x
        for k in (1, 2, 3, 1000):
            yield x + k * math.ulp(x)
            yield x - k * math.ulp(x)
        # Both sides of the 1e-9 tolerance.
        for offset in (1e-9, 1e-9 * (1 - 1e-7), 1e-9 * (1 + 1e-7)):
            yield x + offset
            yield x - offset
        yield math.nextafter(x + 1e-9, math.inf)
        yield math.nextafter(x - 1e-9, -math.inf)
    for x in (1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0, 1e-12, -1e-12,
              2.0**53, 2.0**53 + 2, -(2.0**60), 3.0 * 2**70, 1e20, -7e22):
        yield x
    for _ in range(8000):
        yield rng.uniform(-3.0, 3.0)
    for _ in range(8000):
        r = rng.choice(exact)
        yield float(r) + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-17, -6)
    for _ in range(4000):
        yield rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-1074, 1023)


def test_rational_pinning_matches_limit_denominator():
    probes = list(_pinning_probes())
    assert len(probes) > 50000
    for x in probes:
        want = _reference_fraction(x)
        got = _small_fraction(x)
        assert got == (None if want is None else (want.numerator, want.denominator)), x
        clean = 0.0 if abs(x) < 1e-12 else x if want is None else float(want)
        assert _clean_float(x).hex() == clean.hex(), x
