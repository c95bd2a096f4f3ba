"""Every corpus argv prints the recorded bytes and exits with the recorded code.

See ``byte_corpus.py`` for what the corpus holds and how to regenerate it.
"""
from __future__ import annotations

import json

import pytest

from byte_corpus import CORPUS, digest

ENTRIES = json.loads(CORPUS.read_text())
GROUPS = ("golden", "pointer-dense", "sweep-cached", "label-algebra", "edge")


def test_corpus_covers_every_group():
    assert {entry["group"] for entry in ENTRIES} == set(GROUPS)
    assert len({tuple(entry["argv"]) for entry in ENTRIES}) == len(ENTRIES)


@pytest.mark.parametrize("group", GROUPS)
def test_output_is_byte_identical(group):
    entries = [entry for entry in ENTRIES if entry["group"] == group]
    assert entries
    moved = [
        (entry["argv"], got)
        for entry in entries
        if (got := digest(entry["argv"])) != {k: entry[k] for k in ("exit", "stdout", "stderr")}
    ]
    assert not moved, f"{len(moved)} of {len(entries)} argvs moved, first: {moved[0]}"
