"""Exit codes, output formats, and frozen tables for the command line.

Runs main() in process and reads stdout/stderr through capsys; one
subprocess test covers the installed entry point.
"""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greenchar
from greenchar import cli, verify
from greenchar.cli import main
import cli_parity
from oracles import DEGREES
from test_verify import trace_sweep_configs


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a request refused by the argument parser
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# green


def test_green_json_table(capsys):
    code, out, _ = run_cli(capsys, "green", "--mu", "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "green"
    assert payload["n"] == 4
    rows = {tuple(r["class"]): r["coeffs"] for r in payload["rows"]}
    assert rows == {
        (4,): [1, -1],
        (3, 1): [1, 0, -1],
        (2, 2): [1, -1, 2],
        (2, 1, 1): [1, 1],
        (1, 1, 1, 1): [1, 3, 2],
    }


def test_green_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "green", "--mu", "2,2")
    assert code == 0
    assert "(2,2)" in out and "1 - q + 2q^2" in out
    code, out, _ = run_cli(capsys, "green", "--mu", "1,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["class", "polynomial"], ["2", "1 -1"], ["1,1", "1 1"]]


def test_green_single_letter(capsys):
    code, out, _ = run_cli(capsys, "green", "--mu", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"class": [1], "coeffs": [1]}]


def test_green_n_cross_check(capsys):
    code, _, err = run_cli(capsys, "green", "--mu", "2,2", "--n", "5")
    assert code == 2
    assert "does not match" in err


def test_green_bound(capsys, monkeypatch):
    big = "2,2,2,2,2,2"
    code, _, err = run_cli(capsys, "green", "--mu", big)
    assert code == 2 and "bound" in err
    monkeypatch.setenv("GREENCHAR_BOUND", "12")
    code, out, _ = run_cli(capsys, "green", "--mu", big, "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 12
    monkeypatch.delenv("GREENCHAR_BOUND")
    code, _, _ = run_cli(capsys, "green", "--mu", big, "--bound", "12")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize("command", [["green", "--mu", "2,2"],
                                     ["eval", "--mu", "2,2", "--e", "2"]])
def test_bound_must_be_a_positive_integer(capsys, monkeypatch, command, value):
    code, out, err = run_cli(capsys, *command, f"--bound={value}")
    assert code == 2 and out == ""
    assert "argument --bound:" in err and "Traceback" not in err
    monkeypatch.setenv("GREENCHAR_BOUND", value)
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err == ("error: GREENCHAR_BOUND must be a positive integer, "
                   f"got {value!r}\n")


# ---------------------------------------------------------------------------
# eval


def test_eval_values_with_counts(capsys):
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2", "--e", "2",
                           "--nu", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    rows = {tuple(r["class"]): r for r in payload["rows"]}
    assert rows[(2, 2)]["values"] == ["2", "4"]
    assert rows[(4,)]["values"] == ["0", "2"]
    assert rows[(1, 1, 1, 1)]["values"] == ["6", "0"]
    for row in rows.values():
        assert row["values"] == row["counts"]
        assert row["match"] is True


def test_eval_single_exponent(capsys):
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2", "--e", "2",
                           "--j", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["j"] == [1]
    assert "config" not in payload
    rows = {tuple(r["class"]): r["values"] for r in payload["rows"]}
    assert rows[(2, 2)] == ["4"]


def test_eval_nonrational_rendering(capsys):
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,1", "--e", "3")
    assert code == 0
    assert "1 + 2z" in out and "-1 - 2z" in out


def test_eval_mixed_config(capsys):
    # fixed letter inferred from the leftover of mu
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2,1", "--e", "2",
                           "--nu", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert "blocks=((1,), (2, 3), (4, 5))" in payload["config"]


def test_eval_rejects_wrong_merge(capsys):
    code, _, err = run_cli(capsys, "eval", "--mu", "2,2", "--e", "2",
                           "--nu", "1,1")
    assert code == 2
    assert "do not fit" in err


@pytest.mark.parametrize("mu,nu", [("2,2,2,2", "2"), ("1,1,1,1", "1,1")])
def test_eval_counts_need_one_row_blocks(capsys, mu, nu):
    # a (2,2) fixed block or (1,1) rotating blocks: the coset count is
    # not the Green value there, so the request is refused as verify
    # --check roots-of-unity refuses it, not reported as mismatches
    code, out, err = run_cli(capsys, "eval", "--mu", mu, "--nu", nu,
                             "--e", "2")
    assert code == 2
    assert out == ""
    assert "one-row Jordan type" in err


def test_eval_one_row_blocks_still_count(capsys):
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2", "--e", "2",
                           "--nu", "2")
    assert code == 0
    assert "MISMATCH" not in out


def test_eval_refuses_an_order_above_the_cap_before_any_work(capsys):
    from greenchar.poly import _power_residues
    def lookups():
        info = _power_residues.cache_info()
        return info.hits + info.misses

    cap = cli.EVAL_MAX_E
    before = lookups()
    code, out, err = run_cli(capsys, "eval", "--mu", "1", "--e", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: e = {cap + 1} exceeds the eval cap {cap}\n"
    # refused before any value is reduced by the table of power residues
    assert lookups() == before
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2", "--e", str(cap),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["j"] == list(range(cap))


@pytest.mark.parametrize("argv,flag", [
    (("eval", "--mu", "2,2", "--e", "2", "--n", "2"), "--n"),
    (("green", "--mu", "2,2", "--bo", "3"), "--bo"),
])
def test_flag_prefixes_are_not_expanded(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "roots-of-unity",
                           "--nu", "2", "--e", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"check", "config", "status", "counterexamples",
                            "elapsed_ms", "notes"}
    assert payload["status"] == "pass"
    assert payload["counterexamples"] == []


def test_verify_all_on_rotating_blocks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "all", "--mu", "2,2,1",
                           "--nu", "2", "--e", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    status = {r["check"]: r["status"] for r in reports}
    assert status == {"twisted-induction": "pass", "component-dims": "pass",
                      "roots-of-unity": "pass", "mod-e-induction": "pass",
                      "component-induction": "skipped"}


def test_verify_all_on_regular_twist(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "all", "--n", "5",
                           "--nu", "1,1", "--e", "3", "--format", "json")
    assert code == 0
    status = {r["check"]: r["status"] for r in json.loads(out)}
    assert status["component-induction"] == "pass"
    assert status["roots-of-unity"] == "skipped"
    assert status["mod-e-induction"] == "skipped"


def test_verify_precondition_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "roots-of-unity",
                           "--nu", "1,1", "--e", "2")
    assert code == 2
    assert "one-row Jordan type" in err


def test_verify_closed_form_note(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "closed-form-count",
                           "--nu", "2", "--e", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert "multiplicity reading differs on classes [(4,), (1, 1, 1, 1)]" \
        in payload["notes"]


def test_verify_ungraded(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "ungraded-induction",
                           "--nu", "2", "--nu", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_ungraded_ignores_the_letter_bound(capsys, monkeypatch):
    # GREENCHAR_BOUND caps letters, not the order of the block subgroup
    monkeypatch.setenv("GREENCHAR_BOUND", "12")
    code, out, err = run_cli(capsys, "verify", "--check", "ungraded-induction",
                             "--nu", "4", "--nu", "1", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["status"] == "pass"


def test_verify_obeys_the_letter_bound(capsys, monkeypatch):
    # verify caps letters like green and eval, and a capped request is
    # invalid rather than a pass with every check skipped
    code, out, err = run_cli(capsys, "verify", "--check", "all", "--mu",
                             "3,3,3,2", "--nu", "3", "--e", "3")
    assert code == 2 and out == ""
    assert "n = 11 exceeds the enumeration bound 10" in err
    code, _, err = run_cli(capsys, "verify", "--check", "ungraded-induction",
                           "--nu", "6", "--nu", "5")
    assert code == 2 and "bound 10" in err
    monkeypatch.setenv("GREENCHAR_BOUND", "12")
    code, out, err = run_cli(capsys, "verify", "--check", "ungraded-induction",
                             "--nu", "6", "--nu", "5", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["status"] == "pass"


def test_verify_closed_form_obeys_the_letter_bound(capsys, monkeypatch):
    # closed-form-count builds a config of m * e letters, so it takes
    # the same cap as the other letter requests
    monkeypatch.delenv("GREENCHAR_BOUND", raising=False)
    code, out, err = run_cli(capsys, "verify", "--check", "closed-form-count",
                             "--nu", "4", "--e", "4")
    assert code == 2 and out == ""
    assert "n = 16 exceeds the enumeration bound 10" in err
    monkeypatch.setenv("GREENCHAR_BOUND", "12")
    code, out, err = run_cli(capsys, "verify", "--check", "closed-form-count",
                             "--nu", "2", "--e", "6", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["status"] == "pass"


def test_verify_closed_form_on_sixteen_letters(capsys, monkeypatch):
    # the block subgroup of four rotating blocks of four letters has
    # 331,776 elements; the census reads the shifted coset off S_4 class
    # sizes in milliseconds, where walking it took half a minute, and
    # the verdict and notes are the ones the walk gave
    monkeypatch.setenv("GREENCHAR_BOUND", "16")
    code, out, err = run_cli(capsys, "verify", "--check", "closed-form-count",
                             "--nu", "4", "--e", "4", "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["counterexamples"] == []
    assert payload["notes"] == (
        "parts reading matches the census; multiplicity reading differs on "
        "classes [(16,), (12, 4), (8, 8), (8, 4, 4), (3, 3, 3, 3, 1, 1, 1, 1), "
        "(2, 2, 2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1), "
        "(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)]")
    assert payload["elapsed_ms"] < 10_000


# G2 has no orthogonal component, so its sweep tries no element; the
# note shows that the sweep ran over both one-node Levis
G2_NOTE = "no L-regular elements; G2: 2 Levis, 0 components swept"


def test_verify_catalog_restricted(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "regular-catalog",
                           "--family", "F", "--rank", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["notes"] == ("no L-regular elements; "
                                "F4: 14 Levis, 6 components swept")


def test_verify_catalog_g2_reports_its_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "regular-catalog",
                           "--family", "G", "--rank", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == "0 cases"
    assert payload["notes"] == G2_NOTE


@pytest.mark.parametrize("selection", [
    ("--family", "Q"),
    ("--rank", "99"),
    ("--family", "E", "--rank", "8"),
    ("--family", "A", "--rank", "1"),
])
def test_verify_catalog_empty_selection_is_invalid(capsys, selection):
    code, out, err = run_cli(capsys, "verify", "--check", "regular-catalog",
                             *selection)
    assert code == 2
    assert out == ""
    assert "no regular-catalog case matches" in err


def test_verify_catalog_family_ignores_case(capsys):
    runs = [run_cli(capsys, "verify", "--check", "regular-catalog",
                    "--family", family, "--rank", "2", "--format", "json")
            for family in ("g", "G")]
    assert [code for code, _, _ in runs] == [0, 0]
    lower, upper = (json.loads(out) for _, out, _ in runs)
    lower.pop("elapsed_ms")
    upper.pop("elapsed_ms")
    assert lower == upper
    assert upper["notes"] == G2_NOTE


def test_verify_catalog_full_fails_honestly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "regular-catalog",
                           "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["counterexamples"] == [
        {"class": "E7 pi_L=(7,)", "index": 5, "lhs": False, "rhs": True}]


@pytest.mark.parametrize("argv", [
    ("--check", "all", "--mu", "2,2", "--nu", "2", "--e", "2",
     "--family", "E"),
    ("--check", "twisted-induction", "--nu", "2", "--e", "2", "--rank", "3"),
    ("--check", "closed-form-count", "--nu", "2", "--e", "2",
     "--family", "A"),
    ("--check", "ungraded-induction", "--nu", "2", "--nu", "1",
     "--rank", "2"),
])
def test_catalog_flags_with_another_check_are_invalid(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    flag = argv[-2]
    assert f"error: {flag} restricts regular-catalog only, not --check " \
        f"{argv[1]}" in err


@pytest.mark.parametrize("argv,flag", [
    (("verify", "--check", "regular-catalog", "--mu", "2"), "--mu"),
    (("verify", "--check", "regular-catalog", "--nu", "2"), "--nu"),
    (("verify", "--check", "regular-catalog", "--e", "3"), "--e"),
    (("verify", "--check", "ungraded-induction", "--nu", "2", "--e", "3"),
     "--e"),
    (("verify", "--check", "closed-form-count", "--nu", "2", "--e", "2",
      "--mu", "4"), "--mu"),
    (("verify", "--check", "all", "--mu", "2,2", "--nu", "2", "--e", "2",
      "--variant", "b"), "--variant"),
    (("config-validate", "--mu", "2,2", "--nu", "2", "--e", "2",
      "--variant", "b"), "--variant"),
    (("config-validate", "--n", "5", "--mu", "2,2,1", "--nu", "2", "--e",
      "3"), "--mu"),
])
def test_flags_the_request_does_not_read_are_invalid(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {flag} is not read by " in err


# ---------------------------------------------------------------------------
# regular and config-validate


def test_regular_descriptions(capsys):
    code, out, _ = run_cli(capsys, "regular", "--family", "A", "--rank", "5",
                           "--e", "3")
    assert code == 0
    assert out.strip() == "(1,2,3)(4,5,6), regular, a(e)=2"
    code, out, _ = run_cli(capsys, "regular", "--family", "B", "--rank", "2",
                           "--e", "4", "--variant", "b")
    assert code == 0
    assert out.strip() == "(-1,2), regular, a(e)=1"
    code, out, _ = run_cli(capsys, "regular", "--family", "D", "--rank", "4",
                           "--e", "2", "--variant", "c")
    assert code == 0
    assert out.strip() == "(-1)(-2)(-3)(-4), regular, a(e)=4"


def test_regular_json_fields(capsys):
    code, out, _ = run_cli(capsys, "regular", "--family", "A", "--rank", "5",
                           "--e", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["element"] == "(1,2,3)(4,5,6)"
    assert payload["order"] == 3
    assert payload["regular"] is True
    assert payload["eigenspace_dim"] == 2


def test_regular_eigenspace_dim_counts_degrees_divisible_by_e(capsys):
    # Springer: a regular element of order e has a zeta_e-eigenspace of
    # dimension the number of fundamental degrees that e divides
    checked = 0
    for family, ranks, variants in (("A", range(1, 7), "ab"),
                                    ("B", range(2, 7), "ab"),
                                    ("D", range(3, 7), "abcd")):
        for rank in ranks:
            for e in range(2, 2 * rank + 3):
                for variant in variants:
                    code, out, _ = run_cli(
                        capsys, "regular", "--family", family, "--rank",
                        str(rank), "--e", str(e), "--variant", variant,
                        "--format", "json")
                    if code == 2:
                        continue
                    assert code == 0
                    payload = json.loads(out)
                    assert payload["regular"] is True
                    assert payload["order"] == e
                    assert payload["eigenspace_dim"] == sum(
                        1 for d in DEGREES[family](rank) if d % e == 0)
                    checked += 1
    assert checked == 51  # every admissible (family, rank, e, variant)


def test_regular_relative_to_parabolic(capsys):
    code, out, _ = run_cli(capsys, "regular", "--family", "A", "--rank", "4",
                           "--e", "5", "--pi-L", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi_L"] == [2]
    assert isinstance(payload["regular"], bool)


def test_regular_echoes_the_labels_it_tested(capsys):
    # Pi_L is a set: every format echoes it sorted, each label once
    argv = ("regular", "--family", "A", "--rank", "4", "--e", "5")
    code, out, _ = run_cli(capsys, *argv, "--pi-L", "3,1,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["pi_L"] == [1, 3]
    code, out, _ = run_cli(capsys, *argv, "--pi-L", "3,1", "--format", "csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["pi_L"] == "1,3"
    code, out, _ = run_cli(capsys, *argv, "--pi-L", "1,1")
    assert code == 0
    assert out.strip().endswith("for pi_L=1, a(e)=1")


def test_regular_bad_family(capsys):
    code, _, err = run_cli(capsys, "regular", "--family", "E", "--rank", "6",
                           "--e", "5")
    assert code == 2
    assert "no catalog" in err


@pytest.mark.parametrize("family,rank,variant", [
    (family, rank, variant)
    for family, ranks, variants in (("A", (0,), "ab"), ("B", (0, 1), "ab"),
                                    ("C", (0, 1), "ab"), ("D", (0, 1, 2), "abcd"))
    for rank in ranks for variant in variants])
def test_regular_checks_the_rank_before_the_catalog(capsys, family, rank,
                                                    variant):
    # the catalog's divisibility rules only make sense on a root system
    for e in range(1, 13):
        code, out, err = run_cli(capsys, "regular", "--family", family,
                                 "--rank", str(rank), "--e", str(e),
                                 "--variant", variant)
        assert code == 2 and out == "", e
        # a rank below one is refused when the flags are parsed
        assert (f"no root system of type {family}{rank}" if rank >= 1
                else "must be positive") in err, e


def test_config_validate_shapes(capsys):
    code, out, _ = run_cli(capsys, "config-validate", "--nu", "2", "--e", "2")
    assert code == 0
    assert out.startswith("valid (block-cyclic)")
    code, out, _ = run_cli(capsys, "config-validate", "--n", "5", "--nu", "2",
                           "--e", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["shape"] == "l-regular"
    code, out, _ = run_cli(capsys, "config-validate", "--nu", "2", "--e", "1")
    assert code == 0
    assert out.startswith("valid (ungraded)")


def test_config_validate_rejects(capsys):
    code, _, err = run_cli(capsys, "config-validate", "--mu", "2,2",
                           "--nu", "1,1", "--e", "2")
    assert code == 2
    assert "do not fit" in err


@pytest.mark.parametrize("argv,message", [
    (("config-validate", "--n", "1", "--nu", "1", "--e", "1"),
     "the distinguished block holds m=1 of n=1 letters; it needs "
     "1 <= m <= n - 1 = 0"),
    (("verify", "--check", "all", "--n", "3", "--nu", "3", "--e", "2"),
     "the distinguished block holds m=3 of n=3 letters; it needs "
     "1 <= m <= n - 1 = 2"),
    (("config-validate", "--mu", "2", "--nu", "3", "--e", "1"),
     "types [(3,)] taken once each do not fit inside mu=(2,)"),
    (("config-validate", "--mu", "2,2", "--nu", "1,1", "--e", "2"),
     "types [(1, 1)] taken 2 times each do not fit inside mu=(2, 2)"),
])
def test_config_refusals_say_what_does_not_fit(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("regular", "--family", "C", "--rank", "3", "--e", "2"),
     "type C variant a needs odd e, got e=2"),
    (("regular", "--family", "c", "--rank", "3", "--e", "3", "--variant", "z"),
     "type C has variants a and b, got 'z'"),
])
def test_catalog_refusals_name_the_family_given(capsys, argv, message):
    # type C reads type B's catalog row, but is refused under its own name
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# the order, letter-count and rank flags


@pytest.mark.parametrize("argv", [
    ("eval", "--mu", "2,2", "--e", "0"),
    ("eval", "--mu", "2,2", "--e", "-2"),
    ("verify", "--check", "closed-form-count", "--nu", "2", "--e", "0"),
    ("green", "--mu", "2,2", "--n", "0"),
    ("verify", "--check", "all", "--n", "-3", "--nu", "1", "--e", "2"),
    ("config-validate", "--n", "0", "--nu", "1", "--e", "2"),
    ("verify", "--check", "regular-catalog", "--family", "E", "--rank", "0"),
    ("regular", "--family", "D", "--rank", "0", "--e", "2", "--variant", "d"),
    ("regular", "--family", "D", "--rank", "-1", "--e", "2", "--variant", "d"),
])
def test_nonpositive_order_is_invalid(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "ungraded-induction", "--nu", ","),
    ("verify", "--check", "ungraded-induction", "--nu", ""),
    ("verify", "--check", "ungraded-induction", "--nu", "2", "--nu", ","),
    ("eval", "--mu", "2", "--e", "2", "--nu", ","),
    ("config-validate", "--mu", "2,2", "--nu", ",", "--e", "1"),
])
def test_empty_block_type_is_invalid(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "empty block type" in capsys.readouterr().err


def _witnesses(payload):
    """Counterexamples of a verify report, or mismatched rows of eval."""
    if "counterexamples" in payload:
        return payload["counterexamples"]
    return [row for row in payload.get("rows", []) if row.get("match") is False]


@pytest.mark.parametrize("command", [
    ("eval", "--mu", "2,2"),
    ("eval", "--mu", "2,2", "--nu", "2"),
    ("verify", "--check", "closed-form-count", "--nu", "2"),
    ("regular", "--family", "A", "--rank", "5"),
    ("config-validate", "--nu", "2"),
])
@settings(max_examples=20, deadline=None)
@given(e=st.integers(min_value=-3, max_value=6))
def test_order_flag_keeps_exit_codes_honest(command, e):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*command, "--e", str(e), "--format", "json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert _witnesses(json.loads(out.getvalue()))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from("ABDFGQag"),
       rank=st.integers(min_value=-1, max_value=8))
def test_catalog_selection_keeps_exit_codes_honest(family, rank):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["verify", "--check", "regular-catalog", "--family",
                         family, "--rank", str(rank), "--format", "json"])
        except SystemExit as exc:  # a rank below one, refused when parsed
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        # the G2 sweep runs and finds no orthogonal component to test
        payload = json.loads(out.getvalue())
        assert (int(payload["config"].split()[0]) >= 1
                or payload["notes"] == G2_NOTE)
    if code == 1:
        assert _witnesses(json.loads(out.getvalue()))


SMALL_PARTITIONS = ["1", "2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2",
                    "2,1,1", "5", "3,2", "2,2,1", "6", "3,3", "2,2,2",
                    "1,1,1,1,1,1"]
BAD_PARTITIONS = ["0", "2,x", "", "-1"]


def _parts(text: str):
    return [int(x) for x in text.split(",") if x.strip().lstrip("-").isdigit()]


@st.composite
def argument_vectors(draw):
    """Whole argument vectors for every subcommand, valid or not, on at
    most 6 letters."""
    def partition(letters=6):
        good = [p for p in SMALL_PARTITIONS if sum(_parts(p)) <= letters]
        return draw(st.sampled_from(good + BAD_PARTITIONS) if draw(
            st.integers(0, 9)) == 0 else st.sampled_from(good or ["1"]))

    command = draw(st.sampled_from(["green", "eval", "verify", "regular",
                                    "config-validate"]))
    # draws lean towards valid requests; the rest probe the refusals
    e = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 5, 0, -1]))
    if command == "regular":
        argv = ["regular", "--family", draw(st.sampled_from("AABBDDCEQab")),
                "--rank", str(draw(st.sampled_from([1, 2, 3, 4, 5, 0, -1]))),
                "--e", str(e), "--variant", draw(st.sampled_from("aabbcdDz"))]
        if draw(st.booleans()):
            argv += ["--pi-L", draw(st.sampled_from(["1", "2,3", "4,5", "0",
                                                     "9", "x", ""]))]
        return argv
    if command == "green":
        argv = ["green", "--mu", partition()]
        if draw(st.booleans()):
            argv += ["--n", str(draw(st.integers(min_value=-1, max_value=6)))]
        return argv
    argv = [command]
    check = None
    if command == "verify":
        check = draw(st.sampled_from(
            ["all", "twisted-induction", "component-dims", "roots-of-unity",
             "mod-e-induction", "component-induction", "ungraded-induction",
             "closed-form-count", "regular-catalog"]))
        argv += ["--check", check]
    if check == "regular-catalog":
        argv += ["--rank", str(draw(st.integers(min_value=-1, max_value=5)))]
        if draw(st.booleans()):
            argv += ["--family", draw(st.sampled_from("ABDEFGQg"))]
        return argv
    # every block type is repeated e times, except under --n and in
    # ungraded-induction, where each --nu is one block
    single = check == "ungraded-induction" or (
        command != "eval" and draw(st.booleans()))
    copies = 1 if single else max(e, 1)
    nus = []
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 2, 3, 0]))):
        room = (6 - sum(sum(_parts(nu)) for nu in nus) * copies) // copies
        if room < 1:
            break
        nus.append(partition(room))
    letters = sum(sum(_parts(nu)) for nu in nus) * copies
    # valid draws carry only the flags the request reads (eval reads the
    # flags of a configuration without --n)
    if check in cli.READS:
        reads = cli.READS[check]
    else:
        reads = cli.READS["with --n" if single else "without --n"]
    if single and "variant" in reads:
        argv += ["--n", str(draw(st.sampled_from(range(letters + 1, 7)) if
                                 letters < 6 else st.just(6)))]
    if "mu" in reads and (command == "eval" or draw(st.booleans())):
        if draw(st.booleans()):
            # the merged type of the blocks plus a fixed block
            parts = [p for nu in nus for p in _parts(nu) * copies] \
                + _parts(partition(6 - letters))
            argv += ["--mu", ",".join(map(str, sorted(parts, reverse=True)))]
        else:
            argv += ["--mu", partition()]
    for nu in nus:
        argv += ["--nu", nu]
    if "e" in reads and (command == "eval" or draw(
            st.sampled_from([True, True, True, False]))):
        argv += ["--e", str(e)]
    if command == "eval" and draw(st.booleans()):
        argv += ["--j", str(draw(st.integers(min_value=-2, max_value=4)))]
    if "variant" in reads and draw(st.booleans()):
        argv += ["--variant", draw(st.sampled_from("abz"))]
    if command != "eval" and draw(st.integers(0, 9)) == 0:
        # one flag the request does not read, which must exit 2; --n
        # would turn a configuration without it into one with it, and
        # config-validate has no --rank
        flags = ("mu", "e", "variant", "n") + (("rank",) if check else ())
        unread = [flag for flag in flags if flag not in reads
                  and (flag != "n" or check in cli.READS)]
        flag = draw(st.sampled_from(unread))
        argv += [f"--{flag}", {"mu": "2,1", "variant": "a"}.get(flag, "2")]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argument_vectors())
@example(argv=["verify", "--check", "ungraded-induction", "--nu", ","])
@example(argv=["verify", "--check", "ungraded-induction", "--nu", ""])
@example(argv=["verify", "--check", "ungraded-induction", "--nu", "2",
               "--nu", ","])
def test_argument_vectors_keep_exit_codes_honest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        payload = json.loads(out.getvalue())
        reports = payload if isinstance(payload, list) else [payload]
        assert any(_witnesses(report) for report in reports), argv


# ---------------------------------------------------------------------------
# serialization invariants


def test_json_round_trips_canonically(capsys):
    for argv in [("green", "--mu", "3,2"),
                 ("eval", "--mu", "2,2", "--e", "2", "--nu", "2"),
                 ("verify", "--check", "component-dims", "--nu", "2",
                  "--e", "2")]:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        text = out.strip()
        rebuilt = json.dumps(json.loads(text), sort_keys=True,
                             separators=(",", ":"))
        assert rebuilt == text


def test_eval_csv_parses(capsys):
    code, out, _ = run_cli(capsys, "eval", "--mu", "2,2", "--e", "2",
                           "--nu", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["class", "j=0", "j=1", "count j=0", "count j=1",
                       "match"]
    assert ["2,2", "2", "4", "2", "4", "ok"] in rows


def child_env():
    """The environment of a child that imports the same greenchar as this
    process, installed or not."""
    src = str(Path(greenchar.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, path]) if path else src)


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "greenchar.cli", "green",
                           "--mu", "2,1", "--format", "json"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "green"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a cold request pays for every module the library imports
    code = ("import greenchar.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_parser_leaves_out_json():
    # json is loaded only to write json; every request sets up this way
    code = ("import greenchar.cli, sys; greenchar.cli.build_parser(); "
            "print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# a request prints only its own report; the child then lists the greenchar
# modules it loaded
LOADED = ("import contextlib, io, sys\n"
          "from greenchar.cli import main\n"
          "with contextlib.redirect_stdout(io.StringIO()):\n"
          "    code = main(sys.argv[1:])\n"
          "print(code, *sorted(m for m in sys.modules\n"
          "                    if m.startswith('greenchar.')))")

ARITHMETIC = ["greenchar.cli", "greenchar.poly", "greenchar.symfun"]
# a block configuration is decided on letters, with no root system
CONFIG = sorted(ARITHMETIC + ["greenchar.weyl"])
CHECKS_OF_A = sorted(CONFIG + ["greenchar.verify"])


@pytest.mark.parametrize("argv,loaded", [
    (("green", "--mu", "4,3,2,1", "--format", "csv"), ARITHMETIC),
    (("green", "--mu", "2,2", "--format", "text"), ARITHMETIC),
    (("eval", "--mu", "3,2,1", "--e", "3", "--format", "json"), ARITHMETIC),
    (("eval", "--mu", "2,2", "--e", "2", "--nu", "2"), CONFIG),
    (("config-validate", "--mu", "2,2", "--nu", "2", "--e", "2"), CONFIG),
    (("config-validate", "--n", "5", "--nu", "2", "--e", "3"), CONFIG),
    (("verify", "--check", "all", "--mu", "2,2,1", "--nu", "2", "--e", "2"),
     CHECKS_OF_A),
    (("verify", "--check", "all", "--n", "5", "--nu", "2", "--e", "3"),
     CHECKS_OF_A),
    (("regular", "--family", "B", "--rank", "3", "--e", "3", "--pi-L", "1",
      "--format", "csv"), sorted(CONFIG + ["greenchar.rootsys"])),
    (("verify", "--check", "regular-catalog", "--family", "G"),
     sorted(CHECKS_OF_A + ["greenchar.rootsys"])),
])
def test_cli_requests_load_only_what_they_use(argv, loaded):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0"
    assert modules == loaded


def test_verify_import_loads_no_root_system():
    # a sweep child imports verify and runs type-A checks only
    code = ("import greenchar.verify, sys; "
            "print(*sorted(m for m in sys.modules if m.startswith('greenchar')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["greenchar", "greenchar.poly",
                                   "greenchar.symfun", "greenchar.verify",
                                   "greenchar.weyl"]


def test_cli_import_loads_no_other_greenchar_module():
    code = ("import greenchar.cli, sys; "
            "print(*sorted(m for m in sys.modules if m.startswith('greenchar')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["greenchar", "greenchar.cli"]


def test_check_choices_are_the_checks_of_verify():
    assert cli.CHECKS == tuple(verify.ALL_CHECKS)


# ---------------------------------------------------------------------------
# byte identity over fixed request corpora


@pytest.mark.parametrize("corpus,count,digest", [
    ("cli-cold", 87,
     "4a0dff877c8ca976b2e700a2e14262a74de2fe2918b37fd6dda5657324b99ad8"),
    ("regular-catalog", 432,
     "f893a13a7ee93a8ec9bd64223b2f1859c8eabb941c0e5fa177185d1ee0a57657"),
    ("roots", 432,
     "ee660f76c02e12ab964f5a6b5689de9efdb730d5d92c08c8e9d74913df1cc023"),
    ("green", 414,
     "d12166f54d69b0d2791df8e81ab682a6142b2827324cb5756de0f825fbe58602"),
    ("configs", 267,
     "4cb61787cbabbbcfacc5d121c7702920dff63bbfd965a0f54c599c68ddaf2868"),
    ("twisted", 648,
     "df0ad78a2e6d90451c9c76fdae7124d1ae4cb5d55b728fbbff024beeaf99f6d3"),
])
def test_cli_parity_corpus_keeps_its_digest(monkeypatch, corpus, count, digest):
    # every answer of tests/cli_parity.py's corpus, byte for byte, with
    # elapsed_ms frozen at 0.0 for this test only; the larger regular
    # corpus (about 30 s) stays a manual run of that script
    monkeypatch.setattr(verify.time, "perf_counter", lambda: 0.0)
    assert cli_parity.digest(cli_parity.CORPORA[corpus]()) == (count, digest)


def test_configs_corpus_asks_for_the_trace_sweep_configs():
    # each verify request of the configs corpus lays out, through the
    # CLI's flags, the configuration its trace_sweep item builds
    parser = cli.build_parser()
    requests = [argv for argv in cli_parity.config_requests()
                if argv[0] == "verify"]
    assert [cli.build_block_config(parser.parse_args(argv))
            for argv in requests] == trace_sweep_configs()
