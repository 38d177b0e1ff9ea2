"""The CLI's structured output, exit codes, stderr and CSV dumps, byte for
byte: every entry of golden_cli.json (see golden_cli.py) replayed
in-process through cli.main."""

import json

import pytest

from golden_cli import GOLDEN, run_case

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_covers_every_subcommand():
    commands = {entry["argv"][0] for entry in ENTRIES}
    assert commands == {"check", "hn", "canonical", "polytope", "pair-check", "pair-canonical",
                        "oracle", "sweep", "nu"}


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"][:-2]) for e in ENTRIES])
def test_replays_byte_for_byte(entry):
    assert run_case(entry["argv"]) == entry
