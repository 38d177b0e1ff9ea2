import contextlib
import csv
import io
import json
import random
import re
import sys
import tempfile
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetastab import errors
from thetastab.cli import build_parser, main
from thetastab.latfile import format_poly, load_lattice, nu_json, parse_delta

from conftest import FIXTURES, coordinate_lattice
from randgen import random_delta, random_lambda_lattice, random_subposet_lattice
from reference_oracle import reference_max


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


def _every_command(path, member: str) -> list[list[str]]:
    """One command line per subcommand, each reading the lattice file at
    path; nu takes the trivial chain of member with weight 1."""
    path = str(path)
    return [
        ["check", path],
        ["hn", path],
        ["canonical", path],
        ["nu", path, "--chain", member, "--weights", "1"],
        ["polytope", path],
        ["pair-check", path],
        ["pair-canonical", path, "--bound", "1"],
        ["sweep", path, "--sweep-deltas", "0,1"],
        ["oracle", path, "--bound", "1"],
    ]


class TestCheck:
    def test_semistable(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES / "trivial.lattice")
        assert code == 0 and "semistable" in out

    def test_unstable_with_witness(self, capsys):
        code, payload, _ = run_json(capsys, "check", FIXTURES / "o2_o.lattice")
        assert code == 0
        assert payload["semistable"] is False and payload["witness"] == "O2"


class TestHn:
    def test_chain(self, capsys):
        code, payload, _ = run_json(capsys, "hn", FIXTURES / "example_nonconvex.lattice")
        assert code == 0
        assert payload["chain"] == ["F", "O5+O1", "O5"]


class TestCanonical:
    def test_o2_o(self, capsys):
        code, payload, _ = run_json(capsys, "canonical", FIXTURES / "o2_o.lattice")
        assert code == 0
        assert payload["filtration"]["chain"] == ["F", "O2"]
        assert payload["filtration"]["weights"] == [-1, 1]
        assert payload["nu"] == {"L": {"0": "2"}, "b": "2"}

    def test_semistable_is_domain_error(self, capsys):
        code, out, err = run(capsys, "canonical", FIXTURES / "trivial.lattice")
        assert code == 1
        assert "ObjectSemistable" in err


class TestNuCommand:
    def test_filtration_value(self, capsys):
        code, payload, _ = run_json(
            capsys, "nu", FIXTURES / "o2_o.lattice",
            "--chain", "F,O2", "--weights=-1,1",
        )
        assert code == 0
        assert payload["nu"] == {"L": {"0": "2"}, "b": "2"}

    def test_needs_chain_and_weights(self, capsys):
        code, _, err = run(capsys, "nu", FIXTURES / "o2_o.lattice")
        assert code == 2 and "ParseError" in err

    def test_with_delta(self, capsys):
        code, payload, _ = run_json(
            capsys, "nu", FIXTURES / "o_o1_pair.lattice",
            "--chain", "F,O", "--weights", "0,1", "--delta", "1",
        )
        assert code == 0
        assert payload["nu"] == {"L": {"0": "-1"}, "b": "1"}


class TestPolytope:
    def test_default_chain_is_leading_term(self, capsys):
        code, payload, _ = run_json(
            capsys, "polytope", FIXTURES / "example_nonconvex.lattice", "--index", "0"
        )
        assert code == 0
        assert sorted(tuple(v) for v in payload["vertices"]) == sorted(
            [("0", "0"), ("-6", "1"), ("-8", "2"), ("-9", "3")]
        )

    def test_explicit_chain(self, capsys):
        code, payload, _ = run_json(
            capsys, "polytope", FIXTURES / "o2_o.lattice", "--chain", "F,O2"
        )
        assert code == 0
        assert sorted(tuple(v) for v in payload["vertices"]) == sorted(
            [("0", "0"), ("-3", "1"), ("-4", "2")]
        )

    def test_weights_is_not_a_polytope_flag(self, capsys):
        # a polytope is a chain's alone: --weights is nu's flag
        code, out, err = run(capsys, "polytope", FIXTURES / "o2_o.lattice", "--weights", "9,9,9")
        assert code == 2 and out == "" and err.startswith("error: ParseError: ")
        assert err.count("\n") == 1 and "--weights" in err


class TestPairCommands:
    def test_pair_check_wall(self, capsys):
        for delta, expected, witness in (
            ("1/2", False, "O1"), ("1", True, None), ("2", False, "O"),
        ):
            code, payload, _ = run_json(
                capsys, "pair-check", FIXTURES / "o_o1_pair.lattice", "--delta", delta
            )
            assert code == 0
            assert payload["semistable"] is expected
            assert payload["witness"] == witness

    def test_pair_canonical_fixture(self, capsys):
        code, payload, _ = run_json(
            capsys, "pair-canonical", FIXTURES / "example_nonconvex.lattice",
            "--delta", "0", "--bound", "6",
        )
        assert code == 0
        assert payload["filtration"]["chain"] == ["F", "O5+O", "O5"]
        assert payload["filtration"]["weights"] == [-1, 0, 3]
        assert payload["oracle_agrees"] is True

    def test_pair_canonical_inconclusive_when_weights_exceed_bound(self, capsys, tmp_path):
        # the closed form (-3, 0, 5, 21) lies beyond the W = 6 oracle and
        # beats everything it finds
        from conftest import coordinate_lattice

        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(4)})
        doc = lat.as_dict()
        doc["pair"] = {"beta_image": "L0"}
        path = tmp_path / "k4.lattice"
        path.write_text(json.dumps(doc))
        argv = ("pair-canonical", path, "--delta", "1/2", "--bound", "6")
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0 and payload["source"] == "closed-form"
        assert payload["filtration"]["weights"] == [-3, 0, 5, 21]
        assert payload["oracle_agrees"] is None
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "oracle (bound 6): inconclusive (closed-form weights exceed W=6)" in out

    def test_pair_canonical_text_reports_agreement(self, capsys):
        code, out, _ = run(
            capsys, "pair-canonical", FIXTURES / "example_nonconvex.lattice",
            "--delta", "0", "--bound", "6",
        )
        assert code == 0 and "oracle (bound 6): agrees" in out

    def test_pair_canonical_reports_disagreement(self, capsys, monkeypatch):
        from thetastab import CanonicalResult, make_filtration, nu_delta, pairs

        def worse(pair, delta):
            filt = make_filtration(pair.lattice, ("F", "O5"), (0, 1), pair)
            return CanonicalResult(filt, nu_delta(filt, delta), 0)

        monkeypatch.setattr(pairs, "pair_canonical", worse)
        code, payload, _ = run_json(
            capsys, "pair-canonical", FIXTURES / "example_nonconvex.lattice",
            "--delta", "0", "--bound", "6",
        )
        assert code == 0 and payload["oracle_agrees"] is False

    @pytest.mark.parametrize("delta", ["n", "-n^2", "1/2"])
    def test_pair_canonical_cross_checks_every_delta(self, capsys, delta):
        # deg(delta) >= d takes the same path, and the oracle confirms it
        code, payload, _ = run_json(
            capsys, "pair-canonical", FIXTURES / "o_o1_pair.lattice", f"--delta={delta}"
        )
        assert code == 0 and payload["source"] == "closed-form"
        assert payload["oracle_agrees"] is True

    def test_pair_canonical_semistable(self, capsys):
        code, _, err = run(
            capsys, "pair-canonical", FIXTURES / "o_o1_pair.lattice", "--delta", "1"
        )
        assert code == 1 and "Semistable" in err

    def test_pair_commands_need_pair_section(self, capsys):
        code, _, err = run(capsys, "pair-check", FIXTURES / "o2_o.lattice", "--delta", "1")
        assert code == 2 and "ParseError" in err

    def test_surface_pair_check(self, capsys):
        code, payload, _ = run_json(
            capsys, "pair-check", FIXTURES / "p2_o1_o.lattice", "--delta", "1"
        )
        assert code == 0
        assert payload["semistable"] is False and payload["witness"] == "A1"

    def test_sweep_marks_walls(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", FIXTURES / "o_o1_pair.lattice",
            "--sweep-deltas", "1/2,3/4,1,2",
        )
        assert code == 0
        verdicts = [(r["semistable"], r["wall"]) for r in payload["rows"]]
        assert verdicts == [
            (False, False), (False, False), (True, True), (False, True),
        ]


class TestOracleCommand:
    def test_oracle_structured(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", FIXTURES / "o2_o.lattice", "--bound", "4"
        )
        assert code == 0
        assert payload["best"]["chain"] == ["F", "O2"]
        assert payload["best"]["weights"] == [-1, 1]
        assert payload["explored"] > 0

    def test_csv_dump(self, capsys, tmp_path):
        target = tmp_path / "dump.csv"
        code, _, _ = run(
            capsys, "oracle", FIXTURES / "trivial.lattice", "--bound", "2",
            "--csv", target,
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("chain,weights,L,b")
        assert len(lines) == 1 + 4  # weights -2,-1,1,2 on the trivial chain

    def test_csv_dump_scores_each_candidate_once(self, capsys, tmp_path, monkeypatch):
        from thetastab import oracle

        scored = []
        real = oracle.iter_terms

        def counting(*args, **kwargs):
            for candidate in real(*args, **kwargs):
                scored.append(candidate)
                yield candidate

        argv = ("oracle", FIXTURES / "example_nonconvex.lattice", "--bound", "3")
        _, plain, _ = run_json(capsys, *argv)
        monkeypatch.setattr(oracle, "iter_terms", counting)
        target = tmp_path / "dump.csv"
        code, payload, _ = run_json(capsys, *argv, "--csv", target)
        assert code == 0 and payload == plain
        rows = target.read_text().splitlines()[1:]
        assert len(rows) == len(scored) == payload["explored"]


class TestWorkBudget:
    """--max-candidates: candidate_count is checked before the oracle
    scores anything (1182 candidates on example_nonconvex at W = 6)."""

    NONCONVEX = FIXTURES / "example_nonconvex.lattice"

    def test_oracle_over_budget_exits_1_before_any_search(self, capsys, tmp_path, monkeypatch):
        from thetastab import oracle

        def fail(*args, **kwargs):
            raise AssertionError("no candidate may be scored over budget")

        monkeypatch.setattr(oracle, "iter_terms", fail)
        target = tmp_path / "dump.csv"
        code, out, err = run(capsys, "oracle", self.NONCONVEX, "--max-candidates", "1181", "--csv", target)
        assert (code, out) == (1, "")
        assert err == "error: WorkBudgetExceeded: 1182 candidates at W=6 exceed the budget of 1181\n"
        assert not target.exists()

    def test_oracle_at_budget_runs(self, capsys):
        code, payload, _ = run_json(capsys, "oracle", self.NONCONVEX, "--max-candidates=1182")
        assert code == 0 and payload["explored"] == 1182
        assert payload == run_json(capsys, "oracle", self.NONCONVEX)[1]

    def test_pair_canonical_over_budget_answers_and_skips_the_oracle(self, capsys, monkeypatch):
        from thetastab import oracle

        argv = ("pair-canonical", self.NONCONVEX, "--delta", "0")
        _, checked, _ = run_json(capsys, *argv)

        def fail(*args, **kwargs):
            raise AssertionError("the oracle must not run over budget")

        monkeypatch.setattr(oracle, "brute_force_max", fail)
        code, payload, _ = run_json(capsys, *argv, "--max-candidates", "1000")
        assert code == 0 and payload["oracle_agrees"] is None
        assert {**payload, "oracle_agrees": True} == checked
        code, out, _ = run(capsys, *argv, "--max-candidates", "0")
        assert code == 0
        assert out.splitlines()[-1] == "oracle (bound 6): skipped (1182 candidates > budget 0)"

    def test_large_pair_answers_at_once_by_default(self, capsys, tmp_path, monkeypatch):
        # the k = 6 pair's oracle would score 2 599 050 candidates at W = 6
        from conftest import coordinate_lattice
        from thetastab import oracle

        lat = coordinate_lattice({f"L{i}": (i * 7) % 5 - 2 + i for i in range(6)})
        doc = lat.as_dict()
        doc["pair"] = {"beta_image": "L0"}
        path = tmp_path / "k6.lattice"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(oracle, "iter_terms", None)
        code, out, _ = run(capsys, "pair-canonical", path, "--delta", "1/2")
        assert code == 0
        assert out.splitlines()[-1] == "oracle (bound 6): skipped (2599050 candidates > budget 100000)"
        code, _, err = run(capsys, "oracle", path, "--delta", "1/2")
        assert code == 1 and err.startswith("error: WorkBudgetExceeded: 2599050 candidates")


    def test_pair_canonical_refuses_past_the_chain_budget(self, capsys, tmp_path, monkeypatch):
        # the k = 4 pair has 24 saturated chains: under a budget of 23 an
        # unstable pair is refused before any chain is walked, and a
        # semistable one (equal twists) still answers Semistable
        from thetastab import cli, pairs

        paths = {}
        for name, twists in (("unstable", (-2, 0, 2, 4)), ("semistable", (1, 1, 1, 1))):
            doc = coordinate_lattice({f"L{i}": t for i, t in enumerate(twists)}).as_dict()
            paths[name] = tmp_path / f"{name}.lattice"
            paths[name].write_text(json.dumps({**doc, "pair": {"beta_image": "L0"}}))
        argv = ("--delta", "1/2", "--bound", "2")
        code, answered, _ = run_json(capsys, "pair-canonical", paths["unstable"], *argv)
        assert code == 0 and answered["filtration"]["chain"]

        def fail(*args, **kwargs):
            raise AssertionError("no chain may be walked over budget")

        monkeypatch.setattr(pairs, "saturated_chains", fail)
        monkeypatch.setattr(cli, "CHAIN_BUDGET", 23)
        code, out, err = run(capsys, "pair-canonical", paths["unstable"], *argv)
        assert (code, out) == (1, "")
        assert err == "error: WorkBudgetExceeded: 24 saturated chains exceed the budget of 23\n"
        code, out, err = run(capsys, "pair-canonical", paths["semistable"], "--delta", "0")
        assert (code, out) == (1, "") and err.startswith("error: Semistable: ")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "CHAIN_BUDGET", 24)
        assert run_json(capsys, "pair-canonical", paths["unstable"], *argv)[:2] == (0, answered)


BIG = "1" + "0" * 400


class TestBeyondFloatRange:
    """Exact values beyond a float's range keep their exact L and b, and
    their approximation is rendered from a Decimal instead of overflowing."""

    @staticmethod
    def write(tmp_path, sub, top):
        path = tmp_path / "wide.lattice"
        path.write_text(json.dumps({
            "dimension": 1,
            "objects": [{"id": "0", "hilbert": {}}, {"id": "A", "hilbert": sub}, {"id": "F", "hilbert": top}],
            "pair": {"beta_image": "A"},
        }))
        return path

    def write_big(self, tmp_path):
        return self.write(tmp_path, {"1": "1", "0": BIG}, {"1": "2", "0": BIG})

    def test_text_output(self, capsys, tmp_path):
        path = self.write_big(tmp_path)
        best = f"L = {BIG}, b = 2  (approx 70710678118654752{'0' * 383}.000000)"
        expected = {
            ("canonical",): f"nu: {best}",
            ("nu", "--chain", "F,A", "--weights", "0,1"):
                f"nu: L = 5{'0' * 399}, b = 1  (approx 5{'0' * 399}.000000)",
            ("pair-canonical", "--bound", "1"): f"nu_delta: {best}",
            ("oracle", "--bound", "1"): f"max nu: {best}",
        }
        for argv, line in expected.items():
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert code == 0 and not err, (argv, err)
            assert line in out.splitlines(), argv

    def test_tiny_norm(self, capsys, tmp_path):
        # b = 1/10^400 is 0.0 as a float
        path = self.write(tmp_path, {"1": f"1/{BIG}", "0": "1"}, {"1": f"2/{BIG}", "0": "3"})
        code, out, _ = run(capsys, "nu", path, "--chain", "F,A", "--weights", "0,1")
        assert code == 0
        assert out == f"nu: L = -1/2, b = 1/{BIG}  (approx -5{'0' * 199}.000000)\n"

    def test_csv_dump(self, capsys, tmp_path):
        target = tmp_path / "dump.csv"
        code, _, _ = run(capsys, "oracle", self.write_big(tmp_path), "--bound", "1", "--csv", target)
        assert code == 0
        rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ("F", "1", "0"),
            ("F|A", "-1|0", "5e+399"),
            ("F|A", "-1|1", "7.07107e+399"),
            ("F|A", "0|1", "5e+399"),
        ]
        assert rows[2][2:4] == [BIG, "2"]


class TestIntegersTooLongToPrint:
    """At d = 2000 a rank carries d!, 5736 digits, over the interpreter's
    default int-to-str limit of 4300 digits.  Every subcommand then prints
    its output or one `error: IntegerTooLong: ...` line, exits 0 or 1, and
    leaves the limit as it was.  A candidate count at a 2201-digit bound
    has more digits too, but it is compared with the budget before it is
    printed, and a refusal names it "more than" the budget: the oracle
    refuses with WorkBudgetExceeded, and pair-canonical skips its
    cross-check and answers wherever its answer prints."""

    BIG_BOUND = "9" * 2201
    EXPECTED = f"error: IntegerTooLong: an integer to print has over {sys.get_int_max_str_digits()} " \
        "digits, the interpreter's limit (PYTHONINTMAXSTRDIGITS)\n"

    def test_every_command_at_d_2000_and_at_a_huge_bound(self, capsys, tmp_path):
        path = tmp_path / "d2000.lattice"
        path.write_text(json.dumps({
            "dimension": 2000,
            "objects": [
                {"id": "0", "hilbert": {}},
                {"id": "E", "hilbert": {"2000": "1", "0": "5"}},
                {"id": "F", "hilbert": {"2000": "2", "0": "1"}},
            ],
            "relations": [["E", "F"]],
            "pair": {"beta_image": "E"},
        }))
        limit = sys.get_int_max_str_digits()
        argvs = _every_command(path, "F") + [
            [command, fixture, "--bound", self.BIG_BOUND]
            for command in ("oracle", "pair-canonical") for fixture in (path, FIXTURES / "o_o1_pair.lattice")
        ]
        over_budget = f"error: WorkBudgetExceeded: more than 100000 candidates at W={self.BIG_BOUND} " \
            "exceed the budget of 100000\n"
        too_long, refused = [], []
        for argv in argvs:
            for fmt in ("text", "structured"):
                code, out, err = run(capsys, *argv, "--format", fmt)
                if code == 1 and err.startswith("error: WorkBudgetExceeded: "):
                    assert (out, err) == ("", over_budget), argv
                    refused.append(argv)
                elif code == 1:
                    assert (out, err) == ("", self.EXPECTED), argv
                    too_long.append(argv[0])
                else:
                    assert code == 0 and not err, (argv, err)
        assert sorted(set(too_long)) == ["canonical", "nu", "oracle", "pair-canonical", "polytope"]
        # the oracle at W = 6 and pair-canonical's answer at either bound print d!
        assert too_long.count("oracle") == 2 and too_long.count("pair-canonical") == 4
        huge = [argv for argv in argvs if argv[0] == "oracle" and self.BIG_BOUND in argv]
        assert refused == [argv for argv in huge for fmt in ("text", "structured")]
        assert sys.get_int_max_str_digits() == limit

    def test_a_rank_failure_at_d_2000_keeps_its_name(self, capsys, tmp_path):
        # the ranks d! * 2 and d! * 1 have over 5700 digits each, so the
        # message writes them over d!; E of rank 2 is declared inside F
        path = tmp_path / "rank2000.lattice"
        path.write_text(json.dumps({
            "dimension": 2000,
            "objects": [{"id": "0", "hilbert": {}}] + [
                {"id": m, "hilbert": {"2000": c}} for m, c in (("E", "2"), ("F", "1"), ("G", "3"))
            ],
            "relations": [["E", "F"]],
        }))
        limit = sys.get_int_max_str_digits()
        for fmt in ("text", "structured"):
            code, out, err = run(capsys, "check", path, "--format", fmt)
            assert (code, out) == (1, "")
            assert err == "error: RankNotIncreasing: rank must grow strictly along 'E' < 'F': " \
                "2000! * 2 >= 2000! * 1\n"
        assert sys.get_int_max_str_digits() == limit

    def test_other_value_errors_still_propagate(self, monkeypatch):
        from thetastab import canonical

        def fail(lat):
            raise ValueError("not about digits")

        monkeypatch.setattr(canonical, "is_semistable", fail)
        with pytest.raises(ValueError, match="not about digits"):
            main(["check", str(FIXTURES / "o2_o.lattice")])


def _total_order(path, m: int):
    """A lattice file at path: zero and a total order G01 < ... < G(m-1) at
    d = 1, G_k of rank k, with the pair's image at G01, the least nonzero
    member, so every chain's pivot is its deepest member."""
    ids = [f"G{k:02d}" for k in range(1, m)]
    path.write_text(json.dumps({
        "dimension": 1,
        "objects": [{"id": "0", "hilbert": {}}] + [{"id": i, "hilbert": {"1": str(k)}} for k, i in enumerate(ids, 1)],
        "relations": [[a, b] for a, b in zip(ids, ids[1:])],
        "pair": {"beta_image": "G01"},
    }))
    return path


class TestChainWalkIsBounded:
    """The 24-member total order has 2^22 chains, but only the chains with
    a feasible candidate at W = 2 (at most 5 members) are walked, so the
    candidate budget bounds the whole search.  An order of 1100 members,
    deeper than the interpreter's recursion limit, is walked and counted
    in seconds."""

    def test_oracle_walks_only_chains_with_a_candidate(self, capsys, tmp_path, monkeypatch):
        from thetastab import oracle

        path = _total_order(tmp_path / "total24.lattice", 24)
        lat, pair = load_lattice(path)
        walked, enumerate_chains = [], oracle.enumerate_chains

        def counting(*args):
            chains = enumerate_chains(*args)
            walked.append(len(chains))
            return chains

        monkeypatch.setattr(oracle, "enumerate_chains", counting)
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "oracle", path, "--bound", "2")
        elapsed = time.perf_counter() - start
        assert code == 0 and payload["explored"] == oracle.candidate_count(lat, pair, 2) == 17525
        assert walked == [1 + 22 + 231 + 1540 + 7315] and walked[0] <= payload["explored"] + 1
        assert elapsed < 2.0

    def test_pair_canonical_cross_check_agrees(self, capsys, tmp_path):
        path = _total_order(tmp_path / "total24.lattice", 24)
        code, payload, _ = run_json(capsys, "pair-canonical", path, "--delta", "1/2", "--bound", "2")
        assert code == 0 and payload["oracle_agrees"] is True
        assert (payload["filtration"]["chain"], payload["filtration"]["weights"]) == (["G23", "G01"], [-1, 0])
        assert payload["nu_delta"] == {"L": {"0": "11/23"}, "b": "22"}  # (n - 1) / 2n and n - 1 at n = 23

    def test_a_deep_order_answers_and_refuses_without_a_traceback(self, capsys, tmp_path):
        # 1100 nonzero members: pair_canonical walks its one saturated
        # chain, 1100 deep, to the pattern the oracle confirms above, and
        # both commands count the candidates at W = 2 before any search
        path = _total_order(tmp_path / "total1101.lattice", 1101)
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "pair-canonical", path, "--delta", "1/2", "--bound", "2")
        assert code == 0 and payload["oracle_agrees"] is None
        assert (payload["filtration"]["chain"], payload["filtration"]["weights"]) == (["G1100", "G01"], [-1, 0])
        assert payload["nu_delta"] == {"L": {"0": "1099/2200"}, "b": "1099"}
        code, out, err = run(capsys, "oracle", path, "--bound", "2")
        assert (code, out) == (1, "")
        assert err == "error: WorkBudgetExceeded: 61560515774 candidates at W=2 exceed the budget of 100000\n"
        assert time.perf_counter() - start < 20.0

    def test_a_huge_bound_answers_and_refuses_on_budget(self, capsys, tmp_path):
        # at a 2201-digit bound no prune binds on the 23 nonzero members, and
        # the count, of over 4300 digits, is compared with the budget unprinted
        path = _total_order(tmp_path / "total24.lattice", 24)
        bound = "9" * 2201
        code, payload, _ = run_json(capsys, "pair-canonical", path, "--delta", "1/2", "--bound", bound)
        assert code == 0 and payload["oracle_agrees"] is None
        assert (payload["filtration"]["chain"], payload["filtration"]["weights"]) == (["G23", "G01"], [-1, 0])
        assert payload["nu_delta"] == {"L": {"0": "11/23"}, "b": "22"}
        code, out, _ = run(capsys, "pair-canonical", path, "--delta", "1/2", "--bound", bound)
        assert code == 0
        assert out.splitlines()[-1] == f"oracle (bound {bound}): skipped (more than 100000 candidates > budget 100000)"
        code, out, err = run(capsys, "oracle", path, "--bound", bound, "--max-candidates", "7")
        assert (code, out) == (1, "")
        assert err == f"error: WorkBudgetExceeded: more than 7 candidates at W={bound} exceed the budget of 7\n"

    def test_a_huge_bound_refuses_without_counting(self, capsys, tmp_path, monkeypatch):
        # 160 nonzero members at a 2201-digit bound: W + 159 * C(W + 1, 2)
        # candidates at least, over 4300 digits, so the count is never made
        # (exactly, it took seconds) and the output is what it printed
        from thetastab import oracle

        def fail(*args, **kwargs):
            raise AssertionError("the count is past the budget unmade")

        monkeypatch.setattr(oracle, "candidate_count", fail)
        path = _total_order(tmp_path / "total161.lattice", 161)
        bound = "9" * 2201
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", path, "--bound", bound)
        assert (code, out) == (1, "")
        assert err == f"error: WorkBudgetExceeded: more than 100000 candidates at W={bound} exceed the budget of 100000\n"
        code, out, _ = run(capsys, "pair-canonical", path, "--delta", "1/2", "--bound", bound)
        assert code == 0
        assert out.splitlines()[-1] == f"oracle (bound {bound}): skipped (more than 100000 candidates > budget 100000)"
        assert time.perf_counter() - start < 5.0

    def test_a_count_within_the_digit_limit_is_made(self, capsys, tmp_path, monkeypatch):
        # at W = 10^2149 the lower bound on the 23 nonzero members has 4300
        # digits, not more: the exact count is made and, too long to print, named
        from thetastab import oracle

        counted, count = [], oracle.candidate_count
        monkeypatch.setattr(oracle, "candidate_count", lambda *args: counted.append(args) or count(*args))
        path = _total_order(tmp_path / "total24.lattice", 24)
        bound = str(10**2149)
        code, _, err = run(capsys, "oracle", path, "--bound", bound)
        assert code == 1 and len(counted) == 1
        assert err == f"error: WorkBudgetExceeded: more than 100000 candidates at W={bound} exceed the budget of 100000\n"


class TestCountsOverBudget:
    """A refused count is printed when str can print it, at most
    sys.get_int_max_str_digits() digits (0 for no limit), else named as
    more than the budget."""

    def test_the_count_prints_up_to_the_limit(self, monkeypatch):
        from thetastab.cli import _over_budget

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5)
        assert _over_budget(99999, 7) == "99999"
        assert _over_budget(100000, 7) == "more than 7"

    def test_without_a_limit_every_count_prints(self):
        from thetastab.cli import _over_budget

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert _over_budget(10**5000, 7) == "1" + "0" * 5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestOneTablePerSearch:
    """Each search values its answer on what it read: the closed form and
    the leading term on their one step table, the oracle on its member
    rows.  So pair-canonical builds one step table, the closed form's (its
    oracle cross-check had a second before the oracle read member rows),
    canonical one, its maximizer's (nu of its answer read a second), and
    oracle none."""

    @pytest.mark.parametrize("argv, tables", [
        (("pair-canonical", "--delta", "1/2", "--bound", "2"), 1),
        (("oracle", "--delta", "1/2", "--bound", "2"), 0),
        (("canonical",), 1),
    ], ids=["pair-canonical-1", "oracle-0", "canonical-1"])
    def test_step_tables_on_example_nonconvex(self, capsys, monkeypatch, argv, tables):
        from thetastab import canonical, invariant, oracle, pairs

        made, real = [], invariant.step_table
        for module in (invariant, pairs, canonical):  # everywhere it is imported
            monkeypatch.setattr(module, "step_table", lambda *args: made.append(args) or real(*args))
        assert not hasattr(oracle, "step_table")
        code, _, _ = run(capsys, argv[0], FIXTURES / "example_nonconvex.lattice", *argv[1:])
        assert code == 0 and len(made) == tables


class TestOneChainCheckPerAnswer:
    """canonical and polytope validate two chains, the HN chain and the
    answer's filtration, and build neither again from the answer."""

    @pytest.mark.parametrize("command", ["canonical", "polytope"])
    def test_make_chain_calls_on_example_nonconvex(self, capsys, monkeypatch, command):
        from thetastab import canonical, cli, invariant, lattice, pairs

        made, real = [], lattice.make_chain
        for module in (lattice, canonical, cli, invariant, pairs):  # everywhere it may be imported
            if hasattr(module, "make_chain"):
                monkeypatch.setattr(module, "make_chain", lambda *args: made.append(args) or real(*args))
        code, _, _ = run(capsys, command, FIXTURES / "example_nonconvex.lattice")
        assert code == 0 and len(made) == 2


class TestTheJudgeReadsNoStepTable:
    """The oracle reads member rows alone.  With every step table, and
    quotient_poly while the oracle searches, made to raise, brute_force_max
    and the oracle command with --csv still answer on every fixture and on
    seeded pairs, equal to reference_max, which reads the quotients.  The
    command's graded pieces read the winner's quotients after the search."""

    FORMS = (None, "zero", "negative", "Laurent", "degree <= d-1", "degree d", "degree > d")

    @classmethod
    def cases(cls, tmp_path):
        """(lattice file, its lattice and pair, delta literal or None)."""
        for path in sorted(FIXTURES.glob("*.lattice")):
            lat, pair = load_lattice(path)
            for literal in (None, "1/2"):
                yield path, lat, pair, literal
        rng = random.Random(20261028)
        for kind, form in product(("coordinate", "sub-poset", "lambda"), cls.FORMS):
            d = rng.choice((1, 2))
            if kind == "coordinate":
                lat = coordinate_lattice({f"L{i}": rng.randint(-3, 3) for i in range(rng.randint(2, 4))}, d)
            elif kind == "sub-poset":
                lat = random_subposet_lattice(rng, rng.randint(2, 4), d, 0.6)
            else:
                lat = random_lambda_lattice(rng, rng.randint(2, 4), d, 0.3)
            path = tmp_path / f"{kind}-{form or 'none'}.lattice"
            path.write_text(json.dumps({**lat.as_dict(), "pair": {"beta_image": rng.choice(lat.nonzero_ids())}}))
            delta = random_delta(rng, d, form)
            yield (path, *load_lattice(path), None if delta is None else str(delta))

    def test_answers_without_a_step_table_or_quotient(self, capsys, monkeypatch, tmp_path):
        from thetastab import canonical, invariant, oracle, pairs
        from thetastab import lattice as lattice_mod

        cases = [
            (path, lat, pair, literal, reference_max(lat, pair, literal and parse_delta(literal), 2))
            for path, lat, pair, literal in self.cases(tmp_path)
        ]
        searching = []
        real_quotient, real_argmax = lattice_mod.quotient_poly, oracle.argmax

        def refuse(*args):
            raise AssertionError("the oracle read a step table")

        def quotient(*args):
            assert not searching, "the oracle formed a quotient"
            return real_quotient(*args)

        def argmax(*args):  # where a search reads its candidates
            searching.append(True)
            try:
                return real_argmax(*args)
            finally:
                searching.clear()

        for module in (invariant, pairs, canonical):
            monkeypatch.setattr(module, "step_table", refuse)
        monkeypatch.setattr(lattice_mod, "quotient_poly", quotient)
        monkeypatch.setattr(oracle, "argmax", argmax)
        dump, answered = tmp_path / "audit.csv", 0
        for path, lat, pair, literal, expected in cases:
            assert oracle.brute_force_max(lat, pair, literal and parse_delta(literal), 2) == expected, (path, literal)
            flags = [] if literal is None else [f"--delta={literal}"]
            code, payload, _ = run_json(capsys, "oracle", path, "--bound", "2", "--csv", dump, *flags)
            best = payload["best"] and (tuple(payload["best"]["chain"]), tuple(payload["best"]["weights"]))
            assert code == 0 and payload["explored"] == expected.explored, (path, literal)
            assert payload["value"] == nu_json(expected.value), (path, literal)
            assert best == (expected.best and (expected.best.chain, expected.best.weights)), (path, literal)
            assert len(dump.read_text().splitlines()) == expected.explored + 1, (path, literal)
            answered += expected.best is not None
        assert len(cases) == 14 + 21 and answered >= 25, (len(cases), answered)


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "no/such/file.lattice")
        assert code == 2 and "ParseError" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.lattice"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", bad)
        assert code == 2

    def test_domain_error_from_lattice(self, capsys, tmp_path):
        # a cycle, a zero member alone, and a dimension far above the only
        # member's degree (refused by its purity before factorial(dim) runs)
        cases = {
            "CycleInRelation": {
                "dimension": 1,
                "objects": [
                    {"id": "0", "hilbert": {}},
                    {"id": "E", "hilbert": {"1": "1", "0": "3"}},
                    {"id": "F", "hilbert": {"1": "2", "0": "4"}},
                ],
                "relations": [["F", "E"]],
            },
            "MissingTopOrZero": {"dimension": 1, "objects": [{"id": "0", "hilbert": {}}]},
            "QuotientNotPure": {
                "dimension": 10**6,
                "objects": [{"id": "0", "hilbert": {}}, {"id": "F", "hilbert": {"1": "1"}}],
            },
        }
        for name, doc in cases.items():
            bad = tmp_path / "bad.lattice"
            bad.write_text(json.dumps(doc))
            for argv in _every_command(bad, "F"):
                code, _, err = run(capsys, *argv)
                assert code == 1 and err.startswith(f"error: {name}: "), (argv, err)

    def test_bad_delta_literal(self, capsys):
        code, _, err = run(
            capsys, "pair-check", FIXTURES / "o_o1_pair.lattice", "--delta", "frog"
        )
        assert code == 2 and "ParseError" in err


class TestDeterminism:
    def test_structured_output_is_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "pair-canonical", FIXTURES / "example_nonconvex.lattice",
                "--delta", "0", "--bound", "6", "--format", "structured",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestDeltaLiterals:
    @pytest.mark.parametrize(
        "literal,expected",
        [
            ("0", {}),
            ("1/2", {0: "1/2"}),
            ("-n^2", {2: "-1"}),
            ("n", {1: "1"}),
            ("2*n - 1/2", {1: "2", 0: "-1/2"}),
            ("3n+4", {1: "3", 0: "4"}),
            ("n^-1 + 1", {-1: "1", 0: "1"}),
            ("n^+2", {2: "1"}),
            ("2*n^+1 - 1", {1: "2", 0: "-1"}),
            ("-n^+0 + n^-2", {0: "-1", -2: "1"}),
        ],
    )
    def test_grammar(self, literal, expected):
        from fractions import Fraction

        from thetastab.latfile import parse_delta

        poly = parse_delta(literal)
        assert dict(poly.items()) == {k: Fraction(v) for k, v in expected.items()}

    def test_rejects_garbage(self):
        from thetastab.errors import ParseError
        from thetastab.latfile import parse_delta

        for bad in ("", "x", "n^", "1//2", "2**n", "*n", "n^+", "n^++2", "n^+-2", "n^-+2", "n+-1"):
            with pytest.raises(ParseError):
                parse_delta(bad)

    def test_signed_exponent_on_the_command_line(self, capsys):
        # an exponent's sign is optional: n^+2 is n^2 to every subcommand
        path = FIXTURES / "o_o1_pair.lattice"
        for command in (["pair-check"], ["pair-canonical", "--bound", "2"], ["oracle", "--bound", "2"]):
            assert run(capsys, *command, path, "--delta=n^+2") == run(capsys, *command, path, "--delta=n^2")
        code, _, err = run(capsys, "pair-check", path, "--delta=n^+")
        assert code == 2 and err.startswith("error: ParseError: ")


class TestTwistAndScale:
    """Structured canonical and pair-canonical output names the same chain
    and weights on a lattice file whose classes are twisted and scaled
    (see transforms), at the transformed delta."""

    @pytest.mark.parametrize("name", ["example_nonconvex.lattice", "o_o1_pair.lattice", "p2_o1_o.lattice"])
    @pytest.mark.parametrize("twist,scale", [(3, 1), (0, Fraction(5, 2)), (2, Fraction(1, 3))])
    def test_same_chain_and_weights(self, capsys, tmp_path, name, twist, scale):
        from thetastab.latfile import parse_delta
        from transforms import rebuilt, transform

        lat, pair = load_lattice(FIXTURES / name)
        doc = rebuilt(lat, twist, scale).as_dict()
        doc["pair"] = {"beta_image": pair.beta_image}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        runs = [(["canonical"], ["canonical"])]
        for delta in ["0", "1/2", "2*n - 1/3"] + ([] if twist else ["n^-1 + 1/3"]):
            moved = str(transform(parse_delta(delta), twist, scale))
            command = ["pair-canonical", "--bound", "2"]
            runs.append((command + [f"--delta={delta}"], command + [f"--delta={moved}"]))
        for original, transformed in runs:
            code, before, _ = run_json(capsys, original[0], FIXTURES / name, *original[1:])
            moved_code, after, _ = run_json(capsys, transformed[0], path, *transformed[1:])
            assert code == moved_code == 0, original
            assert after["filtration"]["chain"] == before["filtration"]["chain"], original
            assert after["filtration"]["weights"] == before["filtration"]["weights"], original


class TestTableScale:
    """p2_o1_o_twice.lattice is p2_o1_o.lattice with every class doubled.
    Their integer tables hold the same rows, over D = 1 and D = 2, so the
    searches' integer ranks and norms are the same on both, while every
    printed number must move by the scale relation at lam = 2: delta ->
    2 delta, L -> 2 L, b -> 2 b, with the same chains and weights."""

    ONCE, TWICE = FIXTURES / "p2_o1_o.lattice", FIXTURES / "p2_o1_o_twice.lattice"

    @staticmethod
    def doubled(delta: str) -> str:
        return str(parse_delta(delta) * 2)

    @staticmethod
    def assert_doubled(before: dict, after: dict) -> None:
        """after is the nu_json of before's value moved by lam = 2."""
        assert after["b"] == str(2 * Fraction(before["b"])), (before, after)
        assert after["L"] == {e: str(2 * Fraction(c)) for e, c in before["L"].items()}, (before, after)

    def runs(self, capsys, argv: list[str], delta: str, once=(), twice=()) -> tuple[dict, dict]:
        """The structured outputs of argv on p2_o1_o at delta, with the flags
        once, and on its double at 2 delta, with the flags twice."""
        code, before, _ = run_json(capsys, argv[0], self.ONCE, *argv[1:], f"--delta={delta}", *once)
        moved_code, after, _ = run_json(
            capsys, argv[0], self.TWICE, *argv[1:], f"--delta={self.doubled(delta)}", *twice
        )
        assert code == moved_code == 0, (argv, delta)
        return before, after

    @staticmethod
    def assert_same_filtration(before: dict, after: dict) -> None:
        assert (after["chain"], after["weights"]) == (before["chain"], before["weights"])
        for once, twice in zip(before["graded"], after["graded"]):
            assert Fraction(twice["rank"]) == 2 * Fraction(once["rank"]), (before, after)

    def test_the_table_rows_are_shared(self):
        (once, _), (twice, _) = load_lattice(self.ONCE), load_lattice(self.TWICE)
        assert once.numerators == twice.numerators
        assert (once.rank_scale, twice.rank_scale) == (1, 2)

    @pytest.mark.parametrize("delta", ["0", "1/2", "n", "-1"])
    def test_oracle_csv(self, capsys, tmp_path, delta):
        dumps = tmp_path / "once.csv", tmp_path / "twice.csv"
        before, after = self.runs(capsys, ["oracle", "--bound", "3"], delta, ("--csv", dumps[0]), ("--csv", dumps[1]))
        assert after["explored"] == before["explored"] > 0
        self.assert_same_filtration(before["best"], after["best"])
        self.assert_doubled(before["value"], after["value"])
        once, twice = (list(csv.reader(dump.open())) for dump in dumps)
        assert once[0] == twice[0] and len(once) == len(twice) == 1 + before["explored"]
        for row, moved in zip(once[1:], twice[1:]):
            assert moved[:2] == row[:2]
            self.assert_doubled({"L": format_poly(parse_delta(row[2])), "b": row[3]},
                                {"L": format_poly(parse_delta(moved[2])), "b": moved[3]})
            assert float(moved[4]) == pytest.approx(float(row[4]) * 2 ** 0.5, rel=1e-5)

    def test_oracle_with_a_nonpositive_maximum(self, capsys):
        # at delta = n + 2, the wall of the pair, no weighting is positive
        before, after = self.runs(capsys, ["oracle", "--bound", "3"], "n + 2")
        assert before["best"] is after["best"] is None
        assert before["value"] == {"L": {}, "b": "9"}
        self.assert_doubled(before["value"], after["value"])

    @pytest.mark.parametrize("delta", ["0", "1/2", "n", "-1", "n^3"])
    def test_pair_canonical(self, capsys, delta):
        before, after = self.runs(capsys, ["pair-canonical", "--bound", "3"], delta)
        self.assert_same_filtration(before["filtration"], after["filtration"])
        self.assert_doubled(before["nu_delta"], after["nu_delta"])
        assert after["oracle_agrees"] == before["oracle_agrees"]

    @pytest.mark.parametrize("chain,weights", [("F", "1"), ("F,A1", "0,3"), ("F,A0", "-1,2")])
    def test_nu(self, capsys, chain, weights):
        for delta in ("0", "1/2", "n - 1/3"):
            before, after = self.runs(capsys, ["nu", "--chain", chain, f"--weights={weights}"], delta)
            self.assert_doubled(before["nu"], after["nu"])


class TestHugeExponents:
    """A delta's exponents cost nothing by their size: n^99999999999 and
    n^-99999999999 answer at once, as n^3 and n^-1 do."""

    @pytest.mark.parametrize("huge,small", [("n^99999999999", "n^3"), ("n^-99999999999", "n^-1")])
    def test_same_verdict_and_chain_as_a_small_exponent(self, capsys, huge, small):
        path = FIXTURES / "o_o1_pair.lattice"
        start = time.perf_counter()
        answers = {}
        for delta in (huge, small):
            for command in (["pair-check"], ["pair-canonical", "--bound", "2"]):
                code, payload, err = run_json(capsys, *command, path, f"--delta={delta}")
                assert code == 0 and not err
                payload.pop("delta")
                payload.pop("nu_delta", None)  # L carries delta's own exponent
                answers.setdefault(command[0], []).append(payload)
        assert time.perf_counter() - start < 5
        assert answers["pair-check"][0] == answers["pair-check"][1]
        assert answers["pair-check"][0]["witness"] == ("O" if small == "n^3" else "O1")
        closed = [payload["filtration"] for payload in answers["pair-canonical"]]
        assert closed[0] == closed[1]


def _lattice_doc(constant="1", **changes):
    """A valid two-summand lattice with a pair, edited by `changes`."""
    doc = {
        "dimension": 1,
        "objects": [
            {"id": "0", "hilbert": {}},
            {"id": "O", "hilbert": {"1": "1", "0": constant}},
            {"id": "O1", "hilbert": {"1": "1", "0": "2"}},
            {"id": "F", "hilbert": {"1": "2", "0": "3"}},
        ],
        "relations": [],
        "pair": {"beta_image": "O"},
    }
    doc.update(changes)
    return json.dumps(doc)


_HUGE_INT = (
    '{"dimension": 1, "objects": [{"id": "0", "hilbert": {}}, '
    '{"id": "F", "hilbert": {"1": 1, "0": ' + "9" * 5000 + "}}]}"
)


class TestMalformedInput:
    """Malformed files, literals and flag values exit 2 with a ParseError
    line, never a traceback."""

    @pytest.mark.parametrize(
        "command,text,flags",
        [
            ("oracle", None, ["--bound", "0"]),
            ("oracle", None, ["--bound=-2"]),
            ("oracle", None, ["--bound", "1_0"]),
            ("pair-canonical", None, ["--delta", "1/2", "--bound", "0"]),
            ("pair-canonical", None, ["--delta", "1/2", "--bound=-1"]),
            ("pair-canonical", None, ["--delta", "1/2", "--bound", "\u0662"]),
            ("polytope", None, ["--index", "\u0660"]),
            ("polytope", None, ["--index", "0.5"]),
            ("check", _lattice_doc(relations=5), []),
            ("check", _lattice_doc(relations=[5]), []),
            ("check", _lattice_doc(relations="OF"), []),
            ("check", _lattice_doc(relations=None), []),
            ("check", _lattice_doc(objects=5), []),
            ("pair-check", _lattice_doc(pair={"beta_image": "X"}), ["--delta", "1/2"]),
            ("check", _lattice_doc(constant=1.5), []),
            ("check", _lattice_doc(constant=float("inf")), []),
            ("check", _lattice_doc(constant=float("nan")), []),
            ("check", _lattice_doc(constant=True), []),
            ("check", _lattice_doc(constant="1e999999"), []),
            ("check", _lattice_doc(constant="inf"), []),
            ("check", _lattice_doc(constant="nan"), []),
            ("check", _lattice_doc(constant="1_0"), []),
            ("check", _lattice_doc(constant="1.5"), []),
            ("check", _HUGE_INT, []),
            ("sweep", None, ["--sweep-deltas", "1/2,0.75"]),
            ("check", _lattice_doc(dimension=1.5), []),
            ("check", _lattice_doc(dimension=True), []),
            ("check", _lattice_doc(dimension="1"), []),
            ("check", _lattice_doc(objects=[
                {"id": "0", "hilbert": {}},
                {"id": "F", "hilbert": {"1": "1", "0": "3", "00": "5"}},
            ]), []),
            ("pair-check", None, ["--delta", "n^" + "9" * 5000]),
            ("pair-check", None, ["--delta", "n^\u0661"]),
            ("nu", None, ["--chain", "F", "--weights", "1_0"]),
            ("nu", None, ["--chain=F", "--weights=--"]),
            ("nu", None, ["--chain=--", "--weights=1"]),
            ("nu", None, ["--chain", "F", "--weights", "1", "--delta=--"]),
            ("pair-check", None, ["--delta=--"]),
            ("oracle", None, ["--bound=2", "--csv=--"]),
            ("oracle", None, ["--bound=--"]),
            ("polytope", None, ["--index=--"]),
            ("sweep", None, ["--sweep-deltas=--"]),
            ("check", None, ["--format=--"]),
            ("oracle", None, ["--max-candidates=--"]),
            ("oracle", None, ["--max-candidates=-1"]),
            ("pair-canonical", None, ["--delta", "1/2", "--max-candidates", "1_0"]),
            ("pair-canonical", None, ["--delta", "1/2", "--max-candidates", "1.5"]),
            ("oracle", None, ["--csv", str(FIXTURES / "no-such-dir" / "out.csv")]),
            ("oracle", None, ["--csv", str(FIXTURES)]),
        ],
        ids=[
            "oracle-bound-0", "oracle-bound-negative", "oracle-bound-underscore",
            "pair-canonical-bound-0", "pair-canonical-bound-negative",
            "pair-canonical-bound-non-ascii-digit",
            "polytope-index-non-ascii-digit", "polytope-index-decimal",
            "relations-int", "relations-list-of-int", "relations-string",
            "relations-null", "objects-int", "unknown-beta-image",
            "float", "json-infinity", "json-nan", "bool", "exponent-string",
            "inf-string", "nan-string", "underscore", "decimal-string",
            "integer-over-digit-limit", "sweep-decimal",
            "dimension-float", "dimension-bool", "dimension-string", "repeated-exponent",
            "delta-exponent-over-digit-limit", "delta-exponent-non-ascii-digit",
            "weights-underscore",
            "weights-double-dash", "chain-double-dash", "nu-delta-double-dash",
            "pair-check-delta-double-dash", "csv-double-dash", "bound-double-dash",
            "index-double-dash", "sweep-deltas-double-dash", "format-double-dash",
            "max-candidates-double-dash", "max-candidates-negative",
            "max-candidates-underscore", "max-candidates-decimal",
            "csv-missing-directory", "csv-is-a-directory",
        ],
    )
    def test_exits_2_with_parse_error(self, capsys, tmp_path, command, text, flags):
        if text is None:
            path = FIXTURES / "o_o1_pair.lattice"
        else:
            path = tmp_path / "input.lattice"
            path.write_text(text)
        code, _, err = run(capsys, command, path, *flags)
        assert code == 2
        assert err.startswith("error: ParseError: ")
        assert "Traceback" not in err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_each_call_gets_its_own_defaults(self, capsys):
        path = FIXTURES / "o_o1_pair.lattice"
        code, payload, _ = run_json(capsys, "pair-check", path, "--delta=1")
        assert code == 0 and payload["delta"] == "1"
        code, payload, _ = run_json(capsys, "pair-check", path)
        assert code == 0 and payload["delta"] == "0"

    TRIVIAL = str(FIXTURES / "trivial.lattice")

    @pytest.mark.parametrize("argv", [
        # an invalid choice
        ["check", TRIVIAL, "--format", "xml"],
        ["pair-check", TRIVIAL, "--format=xml"],
        # an unknown flag, before and after the input
        ["check", TRIVIAL, "--bogus"],
        ["oracle", "--bogus", TRIVIAL],
        # a missing or unknown subcommand
        [],
        ["--format", "text"],
        [TRIVIAL],
        # a missing input
        ["check"],
        ["sweep", "--sweep-deltas", "0,1"],
    ])
    def test_usage_errors_are_one_parse_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, out)
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1, (argv, err)
        assert "usage:" not in err

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["oracle", TRIVIAL, "--help"]])
    def test_help_still_prints_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 0
        assert captured.out.startswith("usage: thetastab") and captured.err == ""


# ASCII and non-ASCII digits, and the characters of the rational, integer
# and delta grammars; at most 3 of them, so any integer read is <= 999
FLAG_TEXT = st.text(alphabet="0123456789\u0660\u0663\u06f5\u0969\uff15_+-/n^ ", max_size=3)


def _flag_argv(flag: str, path, value: str, command: int) -> list[str]:
    """A command line that hands value to flag, one of a few per flag."""
    path = str(path)
    if flag == "--bound":
        # the oracle scores 2W + 1 candidates per weight on trivial.lattice;
        # on o2_o.lattice W = 999 would be about four million, so there the
        # flag goes to pair-canonical, which stops at the missing pair section
        if path.endswith("trivial.lattice"):
            return ["oracle", path, f"--bound={value}"]
        return ["pair-canonical", path, f"--bound={value}"]
    if flag == "--index":
        return ["polytope", path, f"--index={value}"]
    if flag == "--weights":
        return ["nu", path, "--chain", "F", f"--weights={value}"]
    return [
        ["nu", path, "--chain", "F", "--weights", "1", f"--delta={value}"],
        ["oracle", path, "--bound", "2", f"--delta={value}"],
        ["pair-check", path, f"--delta={value}"],
    ][command]


class TestFlagContract:
    """Any short flag value exits 0, 1 or 2 and never raises."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["trivial.lattice", "o2_o.lattice"]),
        st.sampled_from(["--bound", "--index", "--delta", "--weights"]),
        FLAG_TEXT,
        st.integers(0, 2),
    )
    def test_exit_code_contract(self, fixture, flag, value, command):
        argv = _flag_argv(flag, FIXTURES / fixture, value, command)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ParseError: "), (argv, err.getvalue())


# member ids, and coefficients: small rationals of either sign, and ones
# whose floats overflow or underflow
DOC_IDS = ["0", "A", "B", "C", "F"]
DOC_COEFF = st.one_of(
    st.sampled_from(["1", "2", "3", "1/2", "5/3", "-1", "-7/2", "0"]),
    st.sampled_from([BIG, f"-{BIG}", f"1/{BIG}", f"{BIG}/3"]),
)
DOC_LEAD = st.sampled_from(["1", "2", "3", "4", "1/2", "5/3"])


@st.composite
def lattice_documents(draw):
    """A small lattice document of up to five members: either a direct sum
    of two or three summands (zero, the summands and their sum F) or a
    zero member, usually, and up to four random ones.  Members are led by
    the dimension's exponent (a small one when the dimension is huge, so
    that none is pure), mostly with a small positive coefficient, and have
    random lower terms and now and then a Laurent or too-high one.  Now and
    then random relations are declared, and the pair section is optional."""
    dim = draw(st.sampled_from([0, 1, 2, 10**6]))
    lead = dim if dim < 10 else draw(st.integers(0, 2))

    def hilbert() -> dict[str, str]:
        usual = draw(st.integers(0, 3))
        poly = {str(lead): draw(DOC_LEAD if usual else DOC_COEFF)}
        for exponent in range(lead):
            if draw(st.booleans()):
                poly[str(exponent)] = draw(DOC_COEFF)
        if not draw(st.integers(0, 7)):
            poly[draw(st.sampled_from(["-1", "3"]))] = draw(DOC_COEFF)
        return poly

    if draw(st.booleans()):
        members = {i: hilbert() for i in draw(st.lists(st.sampled_from("ABC"), min_size=2, max_size=3, unique=True))}
        total: dict[str, Fraction] = {}
        for poly in members.values():
            for exponent, coeff in poly.items():
                total[exponent] = total.get(exponent, Fraction(0)) + Fraction(coeff)
        members = {"0": {}, **members, "F": {e: str(c) for e, c in total.items()}}
    else:
        members = {"0": {}} if draw(st.integers(0, 7)) else {}
        for member in draw(st.lists(st.sampled_from(DOC_IDS[1:]), max_size=4, unique=True)):
            members[member] = hilbert()
    doc = {
        "dimension": dim,
        "objects": [{"id": i, "hilbert": poly} for i, poly in members.items()],
        "relations": [],
    }
    if not draw(st.integers(0, 3)):
        doc["relations"] = draw(st.lists(st.lists(st.sampled_from(DOC_IDS), min_size=2, max_size=2), max_size=2))
    beta = draw(st.sampled_from(["absent", None, *DOC_IDS]))
    if beta != "absent":
        doc["pair"] = {"beta_image": beta}
    return doc


# any JSON value: leaves of every type (NaN and infinities too, which
# json writes and reads back) nested a few levels deep
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4),
              st.sampled_from(DOC_IDS), DOC_COEFF),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def shaped_documents(draw):
    """A document of any shape: usually an object whose keys dimension,
    objects, relations and pair are each absent, any JSON value, or a
    value of the expected shape whose ids, exponents and coefficients are
    any JSON value.  Integers stay small: the integer table keeps d + 1
    entries per member."""
    ids = st.one_of(st.sampled_from(DOC_IDS), JSON_VALUES)
    hilbert = st.one_of(
        st.dictionaries(st.one_of(st.sampled_from(["0", "1", "2", "-1", "01"]), st.text(max_size=3)),
                        st.one_of(DOC_COEFF, JSON_VALUES), max_size=3),
        JSON_VALUES,
    )
    shapes = {
        "dimension": st.integers(0, 2),
        "objects": st.lists(st.one_of(st.fixed_dictionaries({"id": ids, "hilbert": hilbert}), JSON_VALUES), max_size=5),
        "relations": st.lists(st.one_of(st.lists(ids, min_size=2, max_size=2), JSON_VALUES), max_size=3),
        "pair": st.one_of(st.fixed_dictionaries({"beta_image": ids}), JSON_VALUES),
    }
    if not draw(st.integers(0, 7)):
        return draw(JSON_VALUES)
    doc = {}
    for key, shaped in shapes.items():
        kind = draw(st.integers(0, 3))
        if kind:
            doc[key] = draw(JSON_VALUES if kind == 1 else shaped)
    return doc


def _assert_exit_contract(doc, member: str) -> None:
    """doc, written as a lattice file, through every subcommand in both
    formats: exit 0, 1 or 2 without raising, each failure one line naming
    a StabilityError, and exit 2 exactly for a ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.lattice"
        path.write_text(json.dumps(doc))
        for argv in _every_command(path, member):
            if argv[0] == "oracle":
                argv += ["--csv", str(Path(tmp) / "dump.csv")]
            for fmt in ("text", "structured"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--format", fmt])
                assert code in (0, 1, 2), argv
                if code:
                    name = re.match(r"error: (\w+): ", err.getvalue())
                    assert name and err.getvalue().count("\n") == 1, (argv, err.getvalue())
                    assert issubclass(getattr(errors, name[1]), errors.StabilityError)
                    assert (code == 2) == (name[1] == "ParseError"), (argv, err.getvalue())


class TestDocumentContract:
    """Any lattice document, through every subcommand in both formats,
    exits 0, 1 or 2 without raising, and each failure is one line naming a
    StabilityError: small well-shaped documents, documents of any shape,
    and documents nested deeper than the JSON parser recurses."""

    @settings(max_examples=150, deadline=None)
    @given(lattice_documents(), st.sampled_from(DOC_IDS))
    def test_exit_code_contract(self, doc, member):
        _assert_exit_contract(doc, member)

    @settings(max_examples=100, deadline=None)
    @given(shaped_documents(), st.sampled_from(DOC_IDS))
    def test_exit_code_contract_on_any_shape(self, doc, member):
        _assert_exit_contract(doc, member)

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, opening, closing):
        path = tmp_path / "deep.lattice"
        path.write_text(opening * 10_000 + "1" + closing * 10_000)
        for argv in _every_command(path, "F"):
            if argv[0] not in ("check", "pair-canonical", "nu"):
                continue
            for fmt in ("text", "structured"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--format", fmt])
                assert code == 2, (argv, fmt, err.getvalue())
                assert err.getvalue().startswith("error: ParseError: ") and err.getvalue().count("\n") == 1, argv

    def test_load_names_a_file_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.lattice"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(errors.ParseError, match="nested too deeply") as caught:
            load_lattice(path)
        assert str(path) in str(caught.value)

