"""Command line front end for the simulator scenarios.

Exit codes: 0 on success, 1 for configuration problems (flags, config
file), 2 when a scenario rejects its inputs at run time.  Output is
deterministic byte for byte so runs can be diffed and frozen.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import __version__
from .pointer import (
    MAX_N_POINTS,
    MIN_N_POINTS,
    GridError,
    PointerProfile,
    PointerSpec,
    pointer_moments,
    pointer_profiles,
    weak_limit_sweep,
    weak_prediction,
)
from .scenarios import (
    CONSTRAINT_NAMES,
    DEFAULT_SWAP_CALIBRATION,
    HardyConfig,
    analyzer_post_selection,
    counterfactual_check,
    entangled_target_state,
    run_entanglement_swap,
    run_hardy_gedanken,
    run_photonic_weak,
)

SCENARIOS = ("hardy", "counterfactual", "swap", "photonic-weak", "pointer", "pointer-sweep")
POINTER_SCENARIOS = ("pointer", "pointer-sweep")
DELAY_SCENARIOS = ("photonic-weak", *POINTER_SCENARIOS)
FORMATS = ("table", "json", "csv")
SWAP_MODES = ("coherent", "decohered")

DEFAULT_SWEEP_MULTIPLES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
# The most widths one sweep takes: with --grid-points each costs a grid
# check of up to MAX_N_POINTS points.
MAX_SWEEP_WIDTHS = 64
# The most bytes a config file may hold; a 64-width sweep needs about 2 kB.
CONFIG_READ_LIMIT = 1 << 20

# Keys a rational annotation is attached to when the value sits within
# 1e-9 of a small fraction; larger denominators stay purely decimal.
RATIONAL_DENOMINATOR_LIMIT = 64
RATIONAL_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """Bad flags or config file contents; maps to exit code 1."""


# ------------------------------------------------------------ run inputs


@dataclass(frozen=True)
class Input:
    """One run input: its flag and config key, its checks, who reads it.

    ``kind`` is float, int, bool, str (a nonempty path), a tuple of the
    allowed words, or "sweep".  Numbers must be finite and within the
    inclusive ``minimum``/``maximum``; ``positive`` also excludes zero.
    A sweep takes at most ``maximum`` values.
    ``key`` names the flag and config key where it is not the field name.
    """

    kind: Any
    help: str
    scenarios: tuple[str, ...] = SCENARIOS
    minimum: float | None = None
    maximum: float | None = None
    positive: bool = False
    key: str | None = None


def _input(default: Any, *args: Any, **kwargs: Any) -> Any:
    return field(default=default, metadata={"input": Input(*args, **kwargs)})


@dataclass(frozen=True)
class Parameters:
    gamma: float = _input(0.0, float, "arrival delay of an H photon", DELAY_SCENARIOS)
    epsilon: float = _input(
        1.0, float, "arrival delay of a V photon", DELAY_SCENARIOS, minimum=0.0
    )
    sigma: float = _input(8.0, float, "pointer width", ("pointer",), positive=True)
    phi: float = _input(-math.pi / 4.0, float, "analyzer angle", POINTER_SCENARIOS)
    bs2_plus: bool = _input(True, bool, "install the + exit beamsplitter", ("hardy",))
    bs2_minus: bool = _input(True, bool, "install the - exit beamsplitter", ("hardy",))
    swap_mode: str = _input("coherent", SWAP_MODES, "swap preparation", ("swap",))
    grid_points: int | None = _input(
        None, int,
        "check the closed form on a grid of this many points per axis, and "
        "print grid_points (default: no grid)",
        POINTER_SCENARIOS, minimum=MIN_N_POINTS, maximum=MAX_N_POINTS,
    )


@dataclass(frozen=True)
class RunConfig:
    scenario: str = _input(MISSING, SCENARIOS, "scenario to run")
    parameters: Parameters = Parameters()
    sweep: tuple[float, ...] | None = _input(
        None, "sweep", "pointer widths, e.g. sigma=1,2,4", ("pointer-sweep",),
        maximum=MAX_SWEEP_WIDTHS,
    )
    output_format: str = _input("table", FORMATS, "report format", key="format")
    output_path: str | None = _input(
        None, str, "write the report to this file instead of stdout", key="out"
    )


# Config key -> (field name, Input), in flag order.
INPUTS: dict[str, tuple[str, Input]] = {
    spec.key or f.name: (f.name, spec)
    for cls in (RunConfig, Parameters)
    for f in fields(cls)
    if (spec := f.metadata.get("input")) is not None
}
PARAMETER_NAMES = frozenset(f.name for f in fields(Parameters))
SWEEP_VALUE = INPUTS["sigma"][1]  # every swept width is read and checked as a sigma
BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "false": False, "0": False, "no": False,
}


# --------------------------------------------------------------- parsing


def _check_number(key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {number}")
    return number


def _check_sweep(value: Any, cap: int) -> tuple[float, ...]:
    if isinstance(value, dict):
        if set(value) != {"sigma"}:
            raise ConfigError("only sigma can be swept")
        value = value["sigma"]
    if not isinstance(value, (list, tuple)):
        raise ConfigError("sweep must be a list of values")
    if not value:
        raise ConfigError("sweep needs at least one value")
    if len(value) > cap:
        raise ConfigError(f"sweep takes at most {cap} values, got {len(value)}")
    sigmas = tuple(_check_value("sweep value", SWEEP_VALUE, v) for v in value)
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ConfigError("sweep values must be strictly ascending")
    return sigmas


def _check_value(key: str, spec: Input, value: Any) -> Any:
    """Validate one flag or config value against its table entry."""
    kind = spec.kind
    if kind is float:
        value = _check_number(key, value)
    elif kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    elif kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    elif kind is str and not (isinstance(value, str) and value):
        raise ConfigError(f"{key} must be a nonempty path")
    elif isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"unknown {key} {value!r}; {key} must be one of {kind}")
    elif kind == "sweep":
        return _check_sweep(value, spec.maximum)
    if spec.positive and value <= 0:
        raise ConfigError(f"{key} must be positive")
    if spec.minimum is not None and value < spec.minimum:
        bound = "nonnegative" if spec.minimum == 0 else f"at least {spec.minimum}"
        raise ConfigError(f"{key} must be {bound}")
    if spec.maximum is not None and value > spec.maximum:
        raise ConfigError(f"{key} must be at most {spec.maximum}")
    return value


def _from_text(key: str, spec: Input, text: str) -> Any:
    """Read a flag's text as the value a config file would hold."""
    if spec.kind is bool:
        if text.lower() not in BOOL_WORDS:
            raise ConfigError(f"{key} expects true or false, got {text!r}")
        return BOOL_WORDS[text.lower()]
    if spec.kind == "sweep":
        name, sep, tail = text.partition("=")
        if not sep:
            raise ConfigError("sweep must look like sigma=v1,v2,...")
        values = [_from_text("sweep value", SWEEP_VALUE, v) for v in tail.split(",")]
        return {name: values}
    if spec.kind is float or spec.kind is int:
        try:
            return spec.kind(text)
        except ValueError:
            pass  # the check reports the text as not a number
    return text


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refused if it repeats a key, as a repeated flag is."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} given more than once")
        obj[key] = value
    return obj


def parse_config(text: str) -> dict[str, Any]:
    """Validate a JSON config document into a flat key/value mapping."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(set(raw) - set(INPUTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return {key: _check_value(key, INPUTS[key][1], value) for key, value in raw.items()}


class HelpRequested(Exception):
    """-h or --help was given: ``run_cli`` prints ``usage()`` and exits 0."""


# Flag -> (config key, Input); the key "config" names the config file.
FLAGS = {
    "--config": ("config", Input(str, "JSON config file; flags override it")),
    **{"--" + key.replace("_", "-"): (key, spec) for key, (_, spec) in INPUTS.items()},
}
METAVARS = {float: "NUMBER", int: "INT", bool: "BOOL", str: "PATH", "sweep": "sigma=V1,..."}


def usage() -> str:
    """The -h text: the flag grammar, then each flag with its help (and a
    sweep's cap on its values)."""
    lines = ["usage: hardyweak run --scenario=NAME [--flag=value | --flag value] ...",
             "Each flag at most once, by its full name; a bare BOOL flag means true."]
    for flag, (_, spec) in FLAGS.items():
        kind, takers = spec.kind, spec.scenarios
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else METAVARS[kind]
        only = "" if takers == SCENARIOS else f" ({', '.join(takers)})"
        cap = f"; at most {spec.maximum} values" if kind == "sweep" else ""
        lines.append(f"  {flag}={metavar}\n      {spec.help}{cap}{only}")
    return "\n".join(lines)


def _read_flags(argv: list[str]) -> dict[str, str]:
    """Each flag's text after ``run``, by key. ``--flag value`` takes the next
    argument unless it starts with ``--``; a bool flag without one is true."""
    if argv[:1] in (["-h"], ["--help"]):
        raise HelpRequested
    if argv[:1] != ["run"]:
        raise ConfigError("expected the run command")
    texts: dict[str, str] = {}
    args = argv[:0:-1]  # the flags, reversed so that pop() takes the next one
    while args:
        flag, inline, text = args.pop().partition("=")
        if flag in ("-h", "--help"):
            raise HelpRequested
        if flag not in FLAGS:
            raise ConfigError(f"unrecognized arguments: {flag}")
        key, spec = FLAGS[flag]
        if key in texts:
            raise ConfigError(f"argument {flag}: given more than once")
        if not inline and args and not args[-1].startswith("--"):
            text = args.pop()
        elif not inline and spec.kind is bool:
            text = "true"
        elif not inline:
            raise ConfigError(f"argument {flag}: expected one argument")
        texts[key] = text
    return texts


def _read_config(path: str) -> str:
    """The config file's text, read as ``Path.read_text`` would, but never
    more than ``CONFIG_READ_LIMIT`` bytes of it, and only from a regular file."""
    import stat

    try:
        # Without O_NONBLOCK, opening a FIFO waits for a writer, forever if none comes.
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            os.close(fd)
            raise ConfigError(f"cannot read config file: {path} is not a regular file")
        with open(fd, "rb") as file:
            data = file.read(CONFIG_READ_LIMIT + 1)
        if len(data) > CONFIG_READ_LIMIT:
            raise ConfigError(f"config file is larger than {CONFIG_READ_LIMIT} bytes")
        # Universal newlines, as a text-mode read gives them.
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc


def assemble_config(argv: Sequence[str] | None = None) -> RunConfig:
    """``run`` and its flags (default ``sys.argv[1:]``) as a checked RunConfig."""
    texts = _read_flags(sys.argv[1:] if argv is None else list(argv))
    merged: dict[str, Any] = {}
    if "config" in texts:
        path = _check_value("config", FLAGS["--config"][1], texts["config"])
        merged.update(parse_config(_read_config(path)))
    for key, (_, spec) in INPUTS.items():
        if key in texts:
            merged[key] = _check_value(key, spec, _from_text(key, spec, texts[key]))
    scenario = merged.get("scenario")
    if scenario is None:
        raise ConfigError("no scenario selected; pass --scenario or a config file")
    for key in merged:
        takers = INPUTS[key][1].scenarios
        if scenario not in takers:
            noun = "scenarios" if len(takers) > 1 else "scenario"
            raise ConfigError(f"{key} only applies to the {', '.join(takers)} {noun}")
    if merged.get("format") == "csv" and scenario != "pointer-sweep":
        raise ConfigError("csv output only applies to the pointer-sweep scenario")
    named = {INPUTS[key][0]: value for key, value in merged.items()}
    parameters = {name: named.pop(name) for name in PARAMETER_NAMES & named.keys()}
    return RunConfig(parameters=Parameters(**parameters), **named)


# -------------------------------------------------------------- payloads


# Quarter-turn trim phases leave cos dust around 1e-16 in otherwise
# exact amplitudes; anything below this is reported as a clean zero.
DUST_THRESHOLD = 1e-12


def _small_fraction(value: float) -> tuple[int, int] | None:
    """The p/q with q <= 64 within 1e-9 of ``value``, as (p, q), if there is one.

    This is ``Fraction(value).limit_denominator(64)``, run on the plain
    integers of ``value``'s exact ratio: the same continued fraction, the
    same tie rule (the last convergent p1/q1 wins over the semiconvergent
    when they are equally close), so the same p/q.
    """
    n, d = value.as_integer_ratio()
    if d <= RATIONAL_DENOMINATOR_LIMIT:
        p, q = n, d
    else:
        den = d
        p0, q0, p1, q1 = 0, 1, 1, 0
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > RATIONAL_DENOMINATOR_LIMIT:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (RATIONAL_DENOMINATOR_LIMIT - q0) // q1
        # value lies between p1/q1 and the semiconvergent, which are
        # 1/(q1 (q0 + k q1)) apart, and d/(q1 den) away from p1/q1.
        if 2 * d * (q0 + k * q1) <= den:
            p, q = p1, q1
        else:
            p, q = p0 + k * p1, q0 + k * q1
    if abs(p / q - value) > RATIONAL_TOLERANCE:
        return None
    return p, q


def _clean_float(x: float) -> float:
    """Report a float with dust removed and small fractions pinned.

    ``|x| < 1e-12`` reports as 0 at once, and any value within 1e-9 of
    p/q with q <= 64 is pinned to p/q (0 included, so every ``|x| <= 1e-9``
    reports as 0): splitter cascades build provably rational probabilities
    out of repeated 1/sqrt(2) factors, so they arrive a few ulps off.
    Every float of the four label scenarios comes through here, the echoed
    inputs and A2_w included (ROADMAP item 12). No pointer or sweep value
    does: those are measured, and print raw (``_finite``).
    """
    value = float(x)
    if not math.isfinite(value):  # a builder overflowed; no report prints inf or nan
        raise ValueError(f"{value}, not a finite number")  # build_payload names the key
    if abs(value) < DUST_THRESHOLD:
        return 0.0
    approx = _small_fraction(value)
    return value if approx is None else approx[0] / approx[1]


def _with_rational(key: str, value: float) -> dict[str, Any]:
    """``key``, followed by ``key_rational`` (p/q) when ``value`` cleans to
    a small fraction; ``_clean`` cleans the value itself."""
    approx = _small_fraction(value)
    if approx is None:
        return {key: value}
    p, q = approx
    return {key: value, f"{key}_rational": f"{p}/{q}" if q != 1 else str(p)}


def _finite(value: Any) -> Any:
    """A builder's fresh value with each float refused unless finite, then
    plus 0.0 (so -0.0 prints as 0), written back into its lists and dicts."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value}, not a finite number")
        return value + 0.0
    if isinstance(value, list):
        for i, v in enumerate(value):
            value[i] = _finite(v)
    elif isinstance(value, dict):
        for key, v in value.items():
            value[key] = _finite(v)
    return value


def _clean(value: Any) -> Any:
    """A builder's raw result as report values: floats cleaned, complex
    numbers as ``{re, im}``, tuples as lists, dicts walked."""
    if isinstance(value, float):
        return _clean_float(value)
    if isinstance(value, complex):
        return {"re": _clean_float(value.real), "im": _clean_float(value.imag)}
    if isinstance(value, (tuple, list)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {key: _clean(v) for key, v in value.items()}
    return value


HARDY_SHORT_KEYS = {
    "gamma": "p_gamma", "c+c-": "p_cc", "c+d-": "p_cd", "d+c-": "p_dc", "d+d-": "p_dd",
}


def _hardy_payload(config: RunConfig) -> dict[str, Any]:
    p = config.parameters
    result = run_hardy_gedanken(HardyConfig(p.bs2_plus, p.bs2_minus))
    probabilities: dict[str, Any] = {}
    for name, key in HARDY_SHORT_KEYS.items():
        probabilities.update(_with_rational(key, result.probabilities[name]))
    return {
        "bs2_plus": p.bs2_plus,
        "bs2_minus": p.bs2_minus,
        "probabilities": probabilities,
        "amplitudes": {str(label): amp for label, amp in result.state.items()},
    }


def _counterfactual_block(include: Sequence[str] | None = None) -> dict[str, Any]:
    report = counterfactual_check(include=include)
    return {
        "constraints": report.constraints,
        "satisfying_count": len(report.satisfying),
        "satisfying_assignments": [vars(a) for a in report.satisfying],  # _clean copies
    }


def _counterfactual_payload(config: RunConfig) -> dict[str, Any]:
    relaxed = [name for name in CONSTRAINT_NAMES if name != "joint-dark-click"]
    return {**_counterfactual_block(), "without_joint_click": _counterfactual_block(relaxed)}


def _swap_payload(config: RunConfig) -> dict[str, Any]:
    result = run_entanglement_swap(config.parameters.swap_mode)
    fidelity = {}
    if result.mode == "coherent":
        target = entangled_target_state()
        fidelity = _with_rational("fidelity_to_target", result.fidelity_to(target))
    return {
        "mode": result.mode,
        "phase_calibration": DEFAULT_SWAP_CALIBRATION,
        **_with_rational("success_probability", result.success_probability),
        **fidelity,
        "branches": [
            {
                "label": label,
                **_with_rational("weight", sub.weight),
                "amplitudes": {str(lab): amp for lab, amp in sub.state.items()},
            }
            for label, sub in result.branches
        ],
    }


def _photonic_weak_payload(config: RunConfig) -> dict[str, Any]:
    p = config.parameters
    report = run_photonic_weak(p.gamma, p.epsilon)
    return {
        "gamma": report.gamma,
        "epsilon": report.epsilon,
        "overlap": report.overlap,
        **_with_rational("success_probability", report.success_probability),
        "A2_w": report.photon2.scalar,
        "A4_w": report.photon4.scalar,
        "A24_w": report.joint.value,
        "decomposition": [
            {"label": str(row.label), "weight": row.weight, "weak_value": row.value}
            for row in report.decomposition
        ],
        "occupations": [
            {"photonic": row.photonic, "path": row.path, "weak_value": row.value}
            for row in report.occupations
        ],
    }


def _pointer_block(profile: PointerProfile, prediction: tuple[float, ...]) -> dict[str, Any]:
    moments = pointer_moments(profile)
    deviation = [abs(m - w) for m, w in zip(moments.mean, prediction)]

    def per_photon(values: Sequence[float]) -> float | list[float]:
        return values[0] if len(prediction) == 1 else list(values)

    return {
        "mean": per_photon(moments.mean),
        "variance": per_photon(moments.variance),
        "success_probability": moments.success_probability,
        "weak_value": per_photon(prediction),
        "deviation": per_photon(deviation),
    }


def _pointer_payload(config: RunConfig) -> dict[str, Any]:
    p = config.parameters
    pre = run_entanglement_swap().conditional_state()
    post = analyzer_post_selection(p.phi)
    spec = PointerSpec.default(p.gamma, p.epsilon, p.sigma, p.grid_points)
    photon2, photon4, joint = pointer_profiles(pre, post, (("2",), ("4",), ("2", "4")), spec)
    # The joint weak value holds each photon's, bit for bit.
    a2, a4 = weak_prediction(joint)
    return {
        "gamma": p.gamma,
        "epsilon": p.epsilon,
        "sigma": p.sigma,
        "phi": p.phi,
        **({} if p.grid_points is None else {"grid_points": p.grid_points}),
        "weakness_ratio": spec.weakness_ratio,
        "photon2": _pointer_block(photon2, (a2,)),
        "photon4": _pointer_block(photon4, (a4,)),
        "joint": _pointer_block(joint, (a2, a4)),
    }


def _pointer_sweep_payload(config: RunConfig) -> dict[str, Any]:
    p = config.parameters
    pre = run_entanglement_swap().conditional_state()
    post = analyzer_post_selection(p.phi)
    sigmas = config.sweep
    if sigmas is None:
        if p.epsilon <= 0.0:
            raise GridError("the default sweep widths are multiples of epsilon "
                            f"({p.epsilon:g}), so none is positive; pass "
                            "--sweep sigma=v1,v2,...")
        sigmas = tuple(k * p.epsilon for k in DEFAULT_SWEEP_MULTIPLES)
    rows = weak_limit_sweep(
        pre, post, ("2", "4"), p.gamma, p.epsilon, sigmas, n_points=p.grid_points
    )
    return {
        "gamma": p.gamma,
        "epsilon": p.epsilon,
        "phi": p.phi,
        **({} if p.grid_points is None else {"grid_points": p.grid_points}),
        "measured": ["2", "4"],
        "rows": [
            {
                "sigma": row.sigma,
                "r": row.weakness_ratio,
                "mean": list(row.mean),
                "deviation": list(row.deviation),
            }
            for row in rows
        ],
    }


# ------------------------------------------------------------- rendering


def _fmt(value: Any) -> str:
    """One payload value as table text; payload floats are final values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict):  # a complex number as {re, im}
        return f"{value['re']:g}{value['im']:+g}i"
    if isinstance(value, list):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _fields(payload: dict[str, Any], keys: Iterable[str], indent: str = "") -> list[str]:
    """``key=value`` lines of the keys the payload holds, each followed by
    `` (p/q)`` where the payload holds ``key_rational``."""
    lines = []
    for key in filter(payload.__contains__, keys):
        rational = payload.get(f"{key}_rational")
        suffix = "" if rational is None else f" ({rational})"
        lines.append(f"{indent}{key}={_fmt(payload[key])}{suffix}")
    return lines


def _hardy_table(payload: dict[str, Any]) -> list[str]:
    lines = _fields(payload, ("scenario", "bs2_plus", "bs2_minus"))
    lines += _fields(payload["probabilities"], HARDY_SHORT_KEYS.values())
    lines.append("amplitudes:")
    for label, amp in payload["amplitudes"].items():
        lines.append(f"  {label}  {_fmt(amp)}")
    return lines


def _counterfactual_table(payload: dict[str, Any]) -> list[str]:
    def block(part: dict[str, Any], indent: str) -> list[str]:
        return _fields(part, ("satisfying_count",), indent) + [
            f"{indent}  " + " ".join(_fields(entry, entry))
            for entry in part["satisfying_assignments"]
        ]

    return [
        "scenario=counterfactual",
        "constraints=" + ",".join(payload["constraints"]),
        *block(payload, ""),
        "without joint-dark-click:",
        *block(payload["without_joint_click"], "  "),
    ]


def _swap_table(payload: dict[str, Any]) -> list[str]:
    lines = _fields(payload, (
        "scenario", "mode", "phase_calibration", "success_probability", "fidelity_to_target",
    )) + ["branches:"]
    for branch in payload["branches"]:
        lines += _fields(branch, ("weight",), f"  {branch['label']}  ")
        for label, amp in branch["amplitudes"].items():
            lines.append(f"    {label}  {_fmt(amp)}")
    return lines


def _photonic_weak_table(payload: dict[str, Any]) -> list[str]:
    lines = _fields(payload, (
        "scenario", "gamma", "epsilon", "overlap", "success_probability",
        "A2_w", "A4_w", "A24_w",
    ))
    lines.append("decomposition:")
    for row in payload["decomposition"]:
        lines.append(
            f"  {row['label']}  weight={_fmt(row['weight'])}  "
            f"value={_fmt(row['weak_value'])}"
        )
    lines.append("occupations:")
    for row in payload["occupations"]:
        lines.append(
            f"  {row['photonic']} -> {row['path']}  value={_fmt(row['weak_value'])}"
        )
    return lines


def _pointer_table(payload: dict[str, Any]) -> list[str]:
    lines = _fields(payload, (
        "scenario", "gamma", "epsilon", "sigma", "phi", "grid_points",
        "weakness_ratio",
    ))
    for name in ("photon2", "photon4", "joint"):
        lines += [f"{name}:", *_fields(payload[name], payload[name], "  ")]
    return lines


def _pointer_sweep_table(payload: dict[str, Any]) -> list[str]:
    lines = _fields(payload, ("scenario", "gamma", "epsilon", "phi", "grid_points"))
    lines.append("rows:")
    for row in payload["rows"]:
        lines.append("  " + "  ".join(_fields(row, row)))
    return lines


CSV_HEADER = "sigma,r,mean_t2,mean_t4,deviation_t2,deviation_t4"


def _render_csv(payload: dict[str, Any]) -> str:
    lines = [CSV_HEADER]
    for row in payload["rows"]:
        fields = [row["sigma"], row["r"], *row["mean"], *row["deviation"]]
        lines.append(",".join(repr(float(x)) for x in fields))
    return "\n".join(lines)


# Scenario -> (payload builder, table renderer), in SCENARIOS order.
REPORTS = {
    "hardy": (_hardy_payload, _hardy_table),
    "counterfactual": (_counterfactual_payload, _counterfactual_table),
    "swap": (_swap_payload, _swap_table),
    "photonic-weak": (_photonic_weak_payload, _photonic_weak_table),
    "pointer": (_pointer_payload, _pointer_table),
    "pointer-sweep": (_pointer_sweep_payload, _pointer_sweep_table),
}


def build_payload(config: RunConfig) -> dict[str, Any]:
    build, _ = REPORTS[config.scenario]
    raw = {
        "meta": {"tool": "hardyweak", "version": __version__},
        "scenario": config.scenario,
        **build(config),
    }
    # A pointer or sweep builder returns measured values, which print raw.
    finish = _finite if config.scenario in POINTER_SCENARIOS else _clean
    payload = {}
    for key, value in raw.items():
        try:
            payload[key] = finish(value)
        except ValueError as exc:  # an inf or nan
            raise ValueError(f"{key} is {exc}") from None
    return payload


def render(payload: dict[str, Any], output_format: str) -> str:
    if output_format == "json":
        return json.dumps(payload, indent=2)
    if output_format == "csv":
        return _render_csv(payload)
    _, table = REPORTS[payload["scenario"]]
    return "\n".join(table(payload))


# --------------------------------------------------------------- driving


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        config = assemble_config(argv)
    except HelpRequested:
        print(usage())
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    try:
        payload = build_payload(config)
    except ValueError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    text = render(payload, config.output_format)
    try:
        if config.output_path is None:
            print(text)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
        else:
            Path(config.output_path).write_text(text + "\n")
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # Python flushes stdout again at exit; send that flush to
            # devnull so the closed pipe does not raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: config: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
