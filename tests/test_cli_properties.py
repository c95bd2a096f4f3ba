"""Property test of the command line: every drawn argv ends in exit 0, 1 or 2.

The values come from ``cli.INPUTS``: each input's kind, bounds,
``positive`` flag, choices and scenarios decide what is drawn for it and
which scenarios it is passed to (a sweep's ``maximum`` caps its length), so a new run input is fuzzed with no edit
here.  Values are drawn in range, on and past the bounds, and malformed;
each is passed as ``--flag=value``, as ``--flag value`` or in a JSON
config file.  Some argvs also carry a key of another scenario, or an
abbreviated, repeated or unknown flag.  Each ``pointer`` and
``pointer-sweep`` argv that exits 0 also runs the grid check of its specs
on their budget-sized grids (``budget_grid``), which a run without
``--grid-points`` does not sample.
"""
from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from budget_grid import check_on_budget_grids
from hardyweak.cli import (
    BOOL_WORDS,
    INPUTS,
    POINTER_SCENARIOS,
    SCENARIOS,
    SWEEP_VALUE,
    assemble_config,
    run_cli,
)

# The largest in-range integer drawn: a grid of 256 points per axis at most.
INT_CAP = 256
MALFORMED = st.sampled_from(["", "abc", "nan", "-inf", "1e999", "0x10", "1,2", "--x"])
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
ERROR_LINE = re.compile(r"error: (config|domain): [^\n]*\n")


def _number(data, spec) -> tuple[str, object]:
    """A number for ``spec`` as (flag text, config value)."""
    low, high = spec.minimum, spec.maximum
    above_zero = spec.positive and (low is None or low <= 0)
    family = data.draw(st.sampled_from(["in", "in", "in", "edge"]))
    if spec.kind is int:
        low = 1 if above_zero else -INT_CAP if low is None else int(low)
        if family == "in":
            top = INT_CAP if high is None else min(high, INT_CAP)
            value = data.draw(st.integers(low, top))
        else:
            value = data.draw(st.sampled_from([
                low - 1, -1, 0, 10**30, 1.5, *([] if high is None else [high + 1])]))
        return str(value), value
    if family == "in":
        value = data.draw(st.floats(
            0.0 if above_zero else low, high, allow_nan=False, allow_infinity=False,
            exclude_min=above_zero,
        ))
    else:
        bounds = [b for b in (low, high) if b is not None]
        value = data.draw(st.sampled_from([
            *bounds, *(math.nextafter(b, s) for b in bounds for s in (-math.inf, math.inf)),
            0.0, -0.0, 5e-324, -1.0, 1e300, -1e300, 1.7976931348623157e308,
            math.inf, -math.inf, math.nan,
        ]))
    return repr(value), value


def _value(data, spec, tmp_path) -> tuple[str, object]:
    """A value for ``spec`` as (flag text, config value): well formed or not."""
    kind = spec.kind
    if kind is str:  # a path: only ever under tmp_path, or empty
        names = ["report.out"] * 3 + ["missing/report.out", ".", ""]
        name = data.draw(st.sampled_from(names))
        path = str(tmp_path / name) if name else ""
        return path, path
    if data.draw(st.sampled_from(["good"] * 7 + ["malformed"])) == "malformed":
        text = data.draw(MALFORMED | st.text(max_size=4))
        return text, data.draw(st.sampled_from([text, None, [], {}, True]))
    if kind is bool:
        word = data.draw(st.sampled_from(sorted(BOOL_WORDS)))
        return data.draw(st.sampled_from([word, word.upper()])), BOOL_WORDS[word]
    if isinstance(kind, tuple):
        choice = data.draw(st.sampled_from(kind))
        return choice, choice
    if kind == "sweep":
        cap = spec.maximum
        count = data.draw(st.sampled_from([1, 2, 3, 1, 2, 3, cap, cap + 1]))
        if count <= 3:
            pairs = [_number(data, SWEEP_VALUE) for _ in range(count)]
        else:  # ascending, so that a sweep at the cap can run
            width = data.draw(st.floats(0.5, 2.0))
            pairs = [(repr(width * k), width * k) for k in range(1, count + 1)]
        values = [value for _, value in pairs]
        config = data.draw(st.sampled_from([values, {"sigma": values}]))
        return "sigma=" + ",".join(text for text, _ in pairs), config
    return _number(data, spec)


def _argv(data, tmp_path) -> tuple[list[str], set[str], bool]:
    """(argv, the keys passed, whether a flag was abbreviated, repeated or unknown)."""
    scenario = data.draw(st.sampled_from(SCENARIOS))
    own = [key for key, (_, spec) in INPUTS.items()
           if scenario in spec.scenarios and key != "scenario"]
    keys = ["scenario", *(key for key in own if data.draw(st.booleans()))]
    foreign = [key for key in INPUTS if key not in own and key != "scenario"]
    if data.draw(st.integers(0, 4)) == 0:
        keys.append(data.draw(st.sampled_from(foreign)))
    groups, config = [], {}
    for key in keys:
        spec = INPUTS[key][1]
        text, value = (scenario, scenario) if key == "scenario" else _value(
            data, spec, tmp_path)
        flag = "--" + key.replace("_", "-")
        forms = {"eq": [f"{flag}={text}"], "sep": [flag, text], "config": None}
        if value is True:
            forms["bare"] = [flag]
        group = forms[data.draw(st.sampled_from(list(forms)))]
        if group is None:
            config[key] = value
        else:
            groups.append(group)
    if config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        groups.append(["--config", str(path)])
    flags = ["--config", *("--" + key.replace("_", "-") for key in INPUTS)]
    mutations = [data.draw(st.sampled_from(["abbreviated", "repeated", "unknown"]))
                 for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2])))]
    for mutation in mutations:
        if mutation == "abbreviated":
            flag = data.draw(st.sampled_from(flags))
            group = [flag[:data.draw(st.integers(3, len(flag) - 1))], "1"]
            assert group[0] not in flags
        elif mutation == "repeated":
            group = list(data.draw(st.sampled_from(groups)))
        else:
            group = [data.draw(st.sampled_from(["--no-such-flag", *(
                "--" + key for key in INPUTS if "_" in key)])) + "=1"]
        groups.insert(data.draw(st.integers(0, len(groups))), group)
    order = data.draw(st.permutations(range(len(groups))))
    return ["run", *(arg for i in order for arg in groups[i])], set(keys), bool(mutations)


def _run(argv: list[str], out_file) -> tuple[int, str, str, bytes | None]:
    if out_file.exists():
        out_file.unlink()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    written = out_file.read_bytes() if out_file.exists() else None
    return code, out.getvalue(), err.getvalue(), written


def test_every_drawn_argv_ends_cleanly_and_repeats_byte_for_byte(tmp_path):
    drawn: set[str] = set()
    codes: set[int] = set()
    budget_checked = []

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.data())
    def check(data):
        argv, keys, mutated = _argv(data, tmp_path)
        drawn.update(keys)
        first = _run(argv, tmp_path / "report.out")
        code, out, err, written = first
        codes.add(code)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            assert not NON_FINITE.search(out + (written or b"").decode()), argv
            config = assemble_config(argv)
            if config.scenario in POINTER_SCENARIOS:
                budget_checked.append(check_on_budget_grids(config))
        else:
            assert out == ""
            assert ERROR_LINE.fullmatch(err), (argv, err)
        if mutated:
            assert code == 1, (argv, err)
        assert _run(argv, tmp_path / "report.out") == first

    check()
    assert drawn == set(INPUTS)
    assert codes == {0, 1, 2}
    assert sum(budget_checked) > 0
