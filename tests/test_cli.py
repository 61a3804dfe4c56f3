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
from hypothesis import given, settings
from hypothesis import strategies as st

import greenchar
from greenchar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
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


def test_verify_catalog_restricted(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "regular-catalog",
                           "--family", "F", "--rank", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["notes"] == "no L-regular elements"


def test_verify_catalog_full_fails_honestly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "regular-catalog",
                           "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["counterexamples"] == [
        {"class": "E7 pi_L=(7,)", "index": 5, "lhs": False, "rhs": True}]


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


def test_regular_relative_to_parabolic(capsys):
    code, out, _ = run_cli(capsys, "regular", "--family", "A", "--rank", "4",
                           "--e", "5", "--pi-L", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi_L"] == [2]
    assert isinstance(payload["regular"], bool)


def test_regular_bad_family(capsys):
    code, _, err = run_cli(capsys, "regular", "--family", "E", "--rank", "6",
                           "--e", "5")
    assert code == 2
    assert "no catalog" in err


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


# ---------------------------------------------------------------------------
# the order flag


@pytest.mark.parametrize("argv", [
    ("eval", "--mu", "2,2", "--e", "0"),
    ("eval", "--mu", "2,2", "--e", "-2"),
    ("verify", "--check", "closed-form-count", "--nu", "2", "--e", "0"),
])
def test_nonpositive_order_is_invalid(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


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


def test_entry_point_runs():
    # the child imports the same greenchar as this process, installed or not
    src = str(Path(greenchar.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path]) if path else src)
    proc = subprocess.run([sys.executable, "-m", "greenchar.cli", "green",
                           "--mu", "2,1", "--format", "json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "green"
