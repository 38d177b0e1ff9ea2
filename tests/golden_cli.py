"""Generator of tests/golden_cli.json, the CLI's pinned output.

Each entry holds one command line (argv), its exit code, its
`--format structured` stdout and its stderr, and for `oracle --csv` the
bytes of the candidate dump.  tests/test_golden_cli.py replays every entry
in-process through cli.main and compares byte for byte.

The file pins the output contract: a change that is meant to keep every
output must leave it as it is.  Regenerating it,

    PYTHONPATH=src python tests/golden_cli.py

from the repository root, is an intended output change: the commit that
does it says so in CHANGES.md and names the entries that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
CSV = "{csv}"  # stands for a fresh file path in a recorded argv

DELTAS = ("0", "1/2", "-1", "n", "n^-1")


def cases() -> list[list[str]]:
    """Every recorded command line, fixture paths relative to the root."""
    argvs = []
    fixtures = sorted((ROOT / "fixtures").glob("*.lattice"))
    for path in fixtures:
        name = f"fixtures/{path.name}"
        for command in ("check", "hn", "canonical", "polytope"):
            argvs.append([command, name])
        spec = json.loads(path.read_text())
        if spec.get("pair") is None:
            continue
        top, beta = spec["objects"][-1]["id"], spec["pair"]["beta_image"]
        for delta in DELTAS:
            argvs.append(["pair-check", name, f"--delta={delta}"])
            argvs.append(["pair-canonical", name, f"--delta={delta}", "--bound", "4"])
        argvs.append(["oracle", name, "--bound", "3"])
        argvs.append(["oracle", name, "--bound", "3", "--csv", CSV])
        for delta in ("1/2", "n^-1"):
            argvs.append(["oracle", name, f"--delta={delta}", "--bound", "3", "--csv", CSV])
        argvs.append(["sweep", name, "--sweep-deltas", "0,1/2,1"])
        for delta in (None, "1/2", "n^-1"):
            flag = [] if delta is None else [f"--delta={delta}"]
            for chain, weights in ((top, "0"), (top, "1"), (f"{top},{beta}", "-1,1"),
                                   (f"{top},{beta}", "0,2"), (f"{top},{beta}", "-2,-1")):
                argvs.append(["nu", name, f"--chain={chain}", f"--weights={weights}", *flag])
    return [argv + ["--format", "structured"] for argv in argvs]


def run_case(argv: list[str]) -> dict:
    """One entry: argv run in-process from the root, with its outputs."""
    from thetastab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "dump.csv")
        here = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([csv_path if a == CSV else a for a in argv])
        finally:
            os.chdir(here)
        entry = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if CSV in argv:
            with open(csv_path, "rb") as handle:
                entry["csv"] = handle.read().decode("utf-8")
    return entry


def main() -> None:
    entries = [run_case(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
