"""Byte-identity corpus of the command line: generator and digest helper.

``byte_corpus.json`` records, for each argv list below, the exit code of
``run_cli`` and the SHA-256 digests of its stdout and stderr.
``test_byte_corpus.py`` replays every argv in process and requires the
same three values, with no tolerance: a refactor that moves one printed
byte, even in the last digit of a grid-route float, fails it.

The argv lists are:

* every golden argv of ``test_cli.GOLDENS``;
* the first requests of each benchmark workload at fixed seeds (the
  generators of ``bench/workloads.py`` are imported, not changed);
* edge argvs: near-orthogonal and orthogonal analyzers, a width no grid
  within the error budget resolves, grids unresolved or overflowing,
  equal delays, extreme widths, the sweep's
  error order, abbreviated, repeated and unknown flags (refused), help,
  configuration errors, and the config files in ``configs/``.

Every argv runs from the root of the checkout, so a config path in it is
relative to that root.

The digests are of this program's output under the platform's libm.  A
libm that rounds ``expm1`` differently moves the bytes of ``pointer`` and
``pointer-sweep`` reports, which print closed-form moments; their grid
only checks them and prints nothing.
An intended output change regenerates the file in its own commit:

    PYTHONPATH=src python tests/byte_corpus.py

Replaying the recorded argvs needs only the standard library (no pytest);
it prints each argv that moved, naming which of its exit code, stdout and
stderr moved, then a count per group, and exits 1 if any did:

    PYTHONPATH=src python tests/byte_corpus.py --check
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hardyweak.cli import run_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "byte_corpus.json"

# (workload, seed, count): the first requests of each stream.
WORKLOAD_STREAMS = (
    ("pointer-dense", 11, 200),
    ("sweep-cached", 5, 40),
    ("label-algebra", 7, 400),
)

NEAR_ORTHOGONAL_PHI = "--phi=-0.4636475090008061"  # -atan(1/2) + 1e-7
ORTHOGONAL_PHI = "--phi=1.5707963267948966"  # V V, orthogonal to the pair

EDGE_ARGVS = [
    # Default runs of every scenario.
    ["--scenario=hardy"],
    ["--scenario=photonic-weak", "--format=json"],
    ["--scenario=pointer"],
    ["--scenario=pointer", "--format=json"],
    ["--scenario=pointer-sweep"],
    ["--scenario=pointer-sweep", "--format=csv"],
    ["--scenario=pointer-sweep", "--format=json"],
    # Near-orthogonal analyzer: refused by the fixed norm floor at 1e6.
    ["--scenario=pointer", NEAR_ORTHOGONAL_PHI, "--sigma=1000000", "--grid-points=256"],
    ["--scenario=pointer", NEAR_ORTHOGONAL_PHI, "--sigma=1000", "--grid-points=256",
     "--format=json"],
    ["--scenario=pointer", "--phi=-0.4636466090008061", "--sigma=100000",
     "--grid-points=1024", "--format=json"],
    # The sweep's error order: the first spec's grid error, then the
    # orthogonality error, then each width's spec and its grid norm.
    ["--scenario=pointer-sweep", NEAR_ORTHOGONAL_PHI, "--sweep=sigma=1000000,1e200",
     "--grid-points=256"],
    ["--scenario=pointer-sweep", NEAR_ORTHOGONAL_PHI, "--sweep=sigma=1000,1000000",
     "--grid-points=256", "--format=csv"],
    ["--scenario=pointer-sweep", ORTHOGONAL_PHI, "--sweep=sigma=1e-300"],
    ["--scenario=pointer-sweep", ORTHOGONAL_PHI, "--sweep=sigma=1e-300,1"],
    ["--scenario=pointer-sweep", ORTHOGONAL_PHI, "--sweep=sigma=1,1e200",
     "--grid-points=64"],
    ["--scenario=pointer-sweep", "--sweep=sigma=1,1e200", "--grid-points=64"],
    # Orthogonal analyzer.
    ["--scenario=pointer", ORTHOGONAL_PHI],
    ["--scenario=pointer", ORTHOGONAL_PHI, "--grid-points=128"],
    ["--scenario=pointer-sweep", ORTHOGONAL_PHI],
    ["--scenario=pointer", "--phi=0", "--format=json"],
    ["--scenario=pointer", "--phi=-0.0", "--format=json"],
    ["--scenario=pointer", "--phi=1e-16", "--format=json"],
    ["--scenario=pointer", "--phi=-1.5707963267948966", "--format=json"],
    # Widths and grids: a pointer no grid within the error budget resolves
    # (printed from the closed form), unresolved, overflowing, strong.
    ["--scenario=pointer", "--sigma=0.00014"],
    ["--scenario=pointer", "--sigma=0.00025", "--format=json"],
    ["--scenario=pointer", "--sigma=1e-300"],
    ["--scenario=pointer", "--sigma=4e-4", "--grid-points=1024"],
    ["--scenario=pointer", "--sigma=0.02127659574468085", "--grid-points=64", "--phi=0.3"],
    ["--scenario=pointer", "--gamma=0", "--epsilon=1e154", "--sigma=1e153",
     "--grid-points=64"],
    ["--scenario=pointer", "--gamma=-1e300", "--epsilon=1e300", "--sigma=1e299",
     "--grid-points=64"],
    ["--scenario=pointer-sweep", "--epsilon=1e154", "--grid-points=64", "--format=csv"],
    ["--scenario=pointer", "--epsilon=1e150", "--sigma=1e149", "--grid-points=64",
     "--format=json"],
    ["--scenario=pointer", "--sigma=1e200"],
    ["--scenario=pointer", "--sigma=1e200", "--grid-points=64", "--format=json"],
    ["--scenario=pointer-sweep", "--grid-points=128", "--phi=0.3",
     "--sweep=sigma=32768,262144", "--format=csv"],
    ["--scenario=pointer", "--grid-points=4096", "--format=json"],
    # Equal delays.
    ["--scenario=pointer", "--gamma=1", "--epsilon=1", "--format=json"],
    ["--scenario=pointer", "--gamma=0", "--epsilon=0"],
    ["--scenario=pointer-sweep", "--gamma=1", "--epsilon=1", "--format=csv"],
    ["--scenario=pointer-sweep", "--epsilon=0"],
    ["--scenario=photonic-weak", "--gamma=1", "--epsilon=1"],
    ["--scenario=photonic-weak", "--gamma=-1e308", "--epsilon=1e308", "--format=json"],
    ["--scenario=photonic-weak", "--epsilon=1e17"],
    # Flags now refused with exit 1 (argparse accepted the first four
    # silently): prefixes, repeats, an underscore, a missing value.
    ["--scen", "pointer"],
    ["--scenario=pointer", "--sig=3"],
    ["--scenario=pointer", "--grid=64"],
    ["--scenario=hardy", "--format=json", "--format=table"],
    ["--config", "run.json", "--config=run.json"],
    ["--scenario=hardy", "--bs2_plus=true"],
    ["--scenario=pointer", "--gamma"],
    # A bare bool flag followed by a flag; help.
    ["--bs2-plus", "--format=json", "--scenario=hardy"],
    ["--help"],
    # A weak value that rounds past the largest float.
    ["--scenario=photonic-weak", "--epsilon=1.7976931348623157e308"],
    # Configuration errors.
    [],
    ["--scenario=nope"],
    ["--scenario=pointer", "--sigma=0"],
    ["--scenario=pointer", "--sigma=-1"],
    ["--scenario=pointer", "--gamma=abc"],
    ["--scenario=pointer", "--gamma=nan"],
    ["--scenario=pointer", "--grid-points=8193"],
    ["--scenario=pointer", "--grid-points=63"],
    ["--scenario=hardy", "--phi=0.3"],
    ["--scenario=hardy", "--format=csv"],
    ["--scenario=hardy", "--bs2-plus=maybe"],
    ["--scenario=pointer-sweep", "--sweep=sigma=2,1"],
    ["--scenario=pointer-sweep", "--sweep=tau=1,2"],
    ["--scenario=pointer-sweep", "--sweep=sigma=0,1"],
    ["--no-such-flag"],
    # Config files: the README's sweep, a flag over one of its values, an
    # unknown key, a key of another scenario, a root that is not an object,
    # a repeated key.
    ["--config", "tests/configs/pointer_sweep.json"],
    ["--config=tests/configs/pointer_sweep.json", "--epsilon=0.5"],
    ["--config=tests/configs/unknown_key.json"],
    ["--config=tests/configs/other_scenario_key.json"],
    ["--config=tests/configs/not_an_object.json"],
    ["--config=tests/configs/repeated_key.json"],
]


def digest(argv: list[str]) -> dict:
    """Exit code and SHA-256 digests of stdout and stderr of one in-process
    run from the root of the checkout."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def corpus_argvs() -> list[tuple[str, list[str]]]:
    """(group, argv) for every argv in the corpus, in corpus order."""
    sys.path.insert(0, str(HERE.parent / "bench"))
    sys.path.insert(0, str(HERE))
    import workloads
    from test_cli import GOLDENS

    entries = [("golden", ["run", *argv]) for argv in GOLDENS.values()]
    for workload, seed, count in WORKLOAD_STREAMS:
        entries += [(workload, list(request.argv))
                    for request in workloads.first(workload, seed, count)]
    entries += [("edge", ["run", *argv]) for argv in EDGE_ARGVS]
    entries += [("edge", []), ("edge", ["-h"])]
    unique: dict[tuple[str, ...], tuple[str, list[str]]] = {}
    for group, argv in entries:  # each argv once, where it first appears
        unique.setdefault(tuple(argv), (group, argv))
    return list(unique.values())


def check() -> int:
    """Replay every recorded argv; print each one that moved, with which of
    its exit code, stdout and stderr moved, and a count per group; 1 if any
    did."""
    entries = json.loads(CORPUS.read_text())
    moved: dict[str, int] = {}
    for entry in entries:
        got = digest(entry["argv"])
        fields = [key for key in ("exit", "stdout", "stderr") if got[key] != entry[key]]
        if fields:
            moved[entry["group"]] = moved.get(entry["group"], 0) + 1
            print(f"moved {'+'.join(fields)}:", json.dumps(entry["argv"]))
    for group, count in moved.items():
        print(f"{group}: {count} moved")
    print(f"{sum(moved.values())} of {len(entries)} argvs moved")
    return 1 if moved else 0


def main(args: list[str]) -> int:
    if args == ["--check"]:
        return check()
    if args:
        print("usage: byte_corpus.py [--check]", file=sys.stderr)
        return 2
    entries = [{"group": group, "argv": argv, **digest(argv)}
               for group, argv in corpus_argvs()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
