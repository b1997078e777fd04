import gc
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symreduce
from symreduce import atlas, cli, design, diagonal
from symreduce.cli import _ARGUMENTS, _COMMANDS, _parse, _UsageError, main
from symreduce.intmath import TRIAL_DIVISION_LIMIT
from symreduce.report import emit, report_payload, run_reduce

from . import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_admissible(capsys):
    code, out, _ = run(capsys, "check", "7", "3", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["violations"] == []


def test_check_inadmissible(capsys):
    code, out, _ = run(capsys, "check", "8", "3", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["violations"]


def test_check_even_v_needs_square_order(capsys):
    # 7*6 = 2*21, but v = 22 is even and k - lambda = 5 is not a square.
    code, out, _ = run(capsys, "check", "22", "7", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["violations"] == ["v = 22 is even but k - lambda = 5 is not a square"]


@pytest.mark.parametrize("triple", [("43", "7", "1"), ("247", "42", "7")])
def test_check_odd_v_needs_bruck_ryser_chowla(capsys, triple):
    # No projective plane of order 6, and no (247, 42, 7) design.
    code, out, _ = run(capsys, "check", *triple)
    assert code == 2
    [violation] = json.loads(out)["violations"]
    assert violation.endswith("(Bruck-Ryser-Chowla)")


def test_check_refuses_to_factor_above_the_limit(capsys):
    # A projective plane of order n = 10^18 + 3: k - lambda = n is not a square.
    n = 10**18 + 3
    code, out, err = run(capsys, "check", str(n * n + n + 1), str(n + 1), "1")
    assert code == 1 and out == ""
    assert "Bruck-Ryser-Chowla needs" in err


def test_check_reports_every_violation(capsys):
    # (7, 7, 7) meets the identity 7*6 = 7*6 but fails two others at once.
    code, out, _ = run(capsys, "check", "7", "7", "7")
    assert code == 2
    assert json.loads(out)["violations"] == ["k^2 = 49 <= 49 = lambda*v", "need 2 <= k < v, got k=7, v=7"]


def test_check_rejects_nonpositive_parameters(capsys):
    code, out, err = run(capsys, "check", "0", "0", "0")
    assert code == 1 and out == ""
    assert err == "error: v, k, lambda must be positive\n"


def test_check_usage_error(capsys):
    code, _, err = run(capsys, "check", "7", "3")
    assert code == 1
    code, _, err = run(capsys, "check", "7", "3", "x")
    assert code == 1


def test_atlas_order(capsys):
    code, out, _ = run(capsys, "atlas", "order", "L3(4)")
    assert code == 0
    assert out.strip() == "20160"


def test_atlas_order_past_the_int_to_str_limit(capsys):
    # |A2000| has 5,736 digits, more than the default int-to-str limit,
    # which the command leaves as it found it.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "atlas", "order", "A2000")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    try:
        sys.set_int_max_str_digits(0)
        assert out == f"{math.factorial(2000) // 2}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_digits_match_str_past_the_limit():
    # Sizes around the 4,096-bit cut where the halves stop splitting, powers
    # of ten and their predecessors, and odd splits.
    values = [0, 1, 9, 10, 2**4096 - 1, 2**4096, 2**4097 + 1, math.factorial(3000) // 2]
    values += [10**k + d for k in (1500, 4300, 12345, 40000) for d in (-1, 0, 1)]
    values += [(1 << bits) // 3 for bits in (8191, 8192, 8193, 100_003)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for n in values:
            assert cli._digits(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)


def test_atlas_order_of_a_large_alternating_group_is_fast():
    # |A100000| has 456,574 digits; Decimal(order) took 5 s to print them.
    # The digits are checked by their count and by their value modulo a
    # prime, read off in chunks that stay below the int-to-str limit.
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-m", "symreduce", "atlas", "order", "A100000"]
    child = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=4)
    assert (child.returncode, child.stderr) == (0, "")
    digits = child.stdout.removesuffix("\n")
    assert len(digits) == 456_574 and digits.isdigit() and digits[0] != "0"
    prime, residue = 2**61 - 1, 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        residue = (residue * pow(10, len(chunk), prime) + int(chunk)) % prime
    assert residue == math.factorial(100_000) // 2 % prime


# Past TRIAL_DIVISION_LIMIT a q is factored only as far as its prime
# factors below 10^6 go: 10^20 + 39 is prime, and 2^50 factors at once.
@pytest.mark.parametrize("command", ["order", "out"])
def test_atlas_bounds_the_trial_division_of_q(command):
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}

    def atlas_run(name):
        argv = [sys.executable, "-m", "symreduce", "atlas", command, name]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    refused = atlas_run("L2(100000000000000000039)")
    assert (refused.returncode, refused.stdout) == (1, "")
    assert f"up to {10**12}" in refused.stderr
    q = 2**50
    answered = atlas_run(f"L2({q})")
    assert (answered.returncode, answered.stderr) == (0, "")
    assert answered.stdout == f"{q * (q * q - 1) if command == 'order' else 50}\n"


def test_atlas_order_alias(capsys):
    code, out, _ = run(capsys, "atlas", "order", "L2(4)")
    assert code == 0
    assert out.strip() == "60"


def test_atlas_order_bad_group(capsys):
    code, _, err = run(capsys, "atlas", "order", "A4")
    assert code == 1
    assert "5" in err  # mentions the degree floor


def test_atlas_out(capsys):
    code, out, _ = run(capsys, "atlas", "out", "L3(4)")
    assert code == 0
    assert out.strip() == "12"


def test_atlas_scan_default(capsys):
    code, out, _ = run(capsys, "atlas", "scan")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates"] == ["L3(4)"]
    assert payload["tail_ok"] is True
    assert payload["label"] == (
        "certified: the box covers the region that the order floors and |Out| caps leave open"
    )
    assert "families" not in payload
    assert (payload["n_max"], payload["q_max"]) == atlas.certified_box()
    code, out, _ = run(capsys, "atlas", "scan", "--out4-nmax", "12", "--out4-qmax", "1024")
    payload = json.loads(out)
    assert code == 0
    assert (payload["n_max"], payload["q_max"]) == (12, 1024)


def test_atlas_scan_unknown_family(capsys):
    # Every scan covers every family, so there is no flag to choose some.
    code, out, err = run(capsys, "atlas", "scan", "--families", "unitary")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --families" in err


def test_atlas_scan_small_bounds(capsys):
    code, out, err = run(capsys, "atlas", "scan", "--out4-nmax", "6", "--out4-qmax", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["candidates"] == []
    assert payload["tail_ok"] is False
    assert payload["failing_checks"]
    assert (payload["n_max"], payload["q_max"]) == (6, 3)
    assert payload["label"] == "verified within bounds [n_max=6, q_max=3]"
    assert "too small" in err


def test_atlas_catalog(capsys):
    code, out, _ = run(capsys, "atlas", "catalog", "--catalog-bound", "200")
    assert code == 0
    payload = json.loads(out)
    assert [g["name"] for g in payload["groups"]] == ["A5", "L2(7)"]
    assert payload["groups"][0]["order"] == 60
    assert payload["groups"][0]["family"] == "alternating"


def test_diagonal_scan(capsys):
    code, out, _ = run(capsys, "diagonal", "scan")
    assert code == 0
    payload = json.loads(out)
    assert payload["survivors"] == []
    assert payload["near_misses"] == ["L3(4)"]


def test_diagonal_scan_small_bound(capsys):
    code, out, _ = run(capsys, "diagonal", "scan", "--catalog-bound", "59")
    assert code == 0
    payload = json.loads(out)
    assert payload["catalog_bound"] == 59
    assert payload["catalog_size"] == 0


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_catalog_bound_below_one_rejected_by_every_command(capsys, bound):
    for command in (("atlas", "catalog"), ("diagonal", "scan")):
        code, out, err = run(capsys, *command, "--catalog-bound", bound)
        assert (code, out, err) == (1, "", "error: catalog bound must be positive\n"), command


@pytest.fixture
def no_scan(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a scan ran before the settings were checked")

    monkeypatch.setattr(diagonal, "diagonal_scan", fail)
    monkeypatch.setattr(atlas, "out4_scan", fail)


# A value the flag's type or choices reject; an empty value is no integer
# and no choice either.  The check comes before any scan runs.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("atlas", "catalog", "--catalog-bound", "ten"), id="atlas-catalog-catalog-bound-ten"),
        pytest.param(("atlas", "catalog", "--catalog-bound", ""), id="atlas-catalog-catalog-bound-empty"),
        pytest.param(("reduce", "--v0-min", "ten"), id="reduce-v0-min-ten"),
        pytest.param(("reduce", "--v0-min", "3"), id="reduce-v0-min-3"),
        pytest.param(("reduce", "--format", ""), id="reduce-format-empty"),
        pytest.param(("diagonal", "scan", "--catalog-bound", "ten"), id="diagonal-scan-catalog-bound-ten"),
        pytest.param(("product", "enumerate", "--v0-min", "ten"), id="product-enumerate-v0-min-ten"),
    ],
)
def test_bad_setting_fails_before_any_scan(capsys, no_scan, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert argv[-2] in err


def test_reduce_bad_format(capsys, no_scan):
    code, out, err = run(capsys, "reduce", "--format", "xml")
    assert code == 1
    assert out == ""
    assert "--format" in err


# A value the flag's choices reject fails only through the flag: set in the
# variable that once held the setting, it changes nothing.
@pytest.mark.parametrize(
    "name, raw",
    [
        pytest.param("SYMREDUCE_FORMAT", "xml", id="SYMREDUCE_FORMAT"),
        pytest.param("SYMREDUCE_FORMAT", "", id="SYMREDUCE_FORMAT-empty"),
        pytest.param("SYMREDUCE_V0_MIN", "3", id="SYMREDUCE_V0_MIN"),
    ],
)
def test_env_bad_choice(capsys, monkeypatch, name, raw):
    monkeypatch.delenv(name, raising=False)
    unset = run(capsys, "reduce")
    monkeypatch.setenv(name, raw)
    assert run(capsys, "reduce") == unset


def test_env_v0_min(capsys, monkeypatch):
    # The floor comes from --v0-min alone: the variable leaves the default.
    monkeypatch.setenv("SYMREDUCE_V0_MIN", "5")
    code, out, _ = run(capsys, "product", "enumerate")
    assert code == 2
    payload = json.loads(out)
    assert payload["v0_min"] == design.DEFAULT_V0_MIN
    assert [16, 6, 2] in payload["reference"]


def test_no_environment_variable_is_read(capsys, monkeypatch):
    commands = (("reduce",), ("diagonal", "scan"), ("product", "enumerate"), ("atlas", "scan"))
    settings = {
        "SYMREDUCE_CATALOG_BOUND": "59",
        "SYMREDUCE_V0_MIN": "5",
        "SYMREDUCE_FORMAT": "xml",
        "SYMREDUCE_OUT4_NMAX": "6",
        "SYMREDUCE_OUT4_QMAX": "3",
    }
    for name in settings:
        monkeypatch.delenv(name, raising=False)
    unset = [run(capsys, *argv) for argv in commands]
    for name, value in settings.items():
        monkeypatch.setenv(name, value)
    assert [run(capsys, *argv) for argv in commands] == unset


def test_product_enumerate_disagrees(capsys):
    # the computation finds a fourth triple beyond the reference list, so
    # the regression exit code reports a disagreement
    code, out, _ = run(capsys, "product", "enumerate")
    assert code == 2
    payload = json.loads(out)
    got = [(t["v"], t["k"], t["lambda"]) for t in payload["triples"]]
    assert (81, 16, 3) in got
    assert payload["matches_reference"] is False


def test_product_enumerate_v0_floor(capsys):
    code, out, _ = run(capsys, "product", "enumerate", "--v0-min", "5")
    assert code == 2  # (81, 16, 3) has witness v0 = 9, still present
    payload = json.loads(out)
    got = [(t["v"], t["k"], t["lambda"]) for t in payload["triples"]]
    assert (16, 6, 2) not in got
    assert (81, 16, 3) in got
    assert payload["v0_min"] == 5
    assert [16, 6, 2] not in payload["reference"]
    _, out, _ = run(capsys, "product", "enumerate", "--v0-min", "2")
    assert json.loads(out)["v0_min"] == 2


def test_product_enumerate_bad_floor(capsys):
    code, _, _ = run(capsys, "product", "enumerate", "--v0-min", "3")
    assert code == 1


def test_product_m4(capsys):
    code, out, _ = run(capsys, "product", "m4", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates"] == [243, 256]
    assert payload["survivors"] == []


def test_product_m4_out_of_domain(capsys):
    code, _, err = run(capsys, "product", "m4", "7")
    assert code == 1


def test_imprimitive_family(capsys):
    code, out, _ = run(capsys, "imprimitive", "family", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 45 and payload["k"] == 12
    assert payload["options"] == [[9, 5, 3], [5, 9, 2]]


def test_imprimitive_family_domain(capsys):
    code, _, _ = run(capsys, "imprimitive", "family", "1")
    assert code == 1


def test_reduce_disagrees_by_default(capsys):
    code, out, _ = run(capsys, "reduce")
    assert code == 2
    payload = json.loads(out)
    assert set(payload) == {"verdicts", "evidence", "hypotheses", "config", "version"}


def _simple_diagonal_verdict(capsys, *flags):
    code, out, _ = run(capsys, "reduce", *flags)
    assert code == 2
    return json.loads(out)["verdicts"]["simple_diagonal"]


def test_simple_diagonal_verdict_from_evidence(capsys, monkeypatch):
    assert _simple_diagonal_verdict(capsys) == "eliminated_by_computation"
    # An empty catalog carries no evidence.
    with monkeypatch.context() as patch:
        patch.setattr(atlas, "DEFAULT_CATALOG_BOUND", 10)
        assert _simple_diagonal_verdict(capsys) == "open"
    # A survivor of the odd-part scan: the FAKE group of order 100.
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "FAKE", atlas.GroupFacts(100, 50))
    assert _simple_diagonal_verdict(capsys) == "open"


def test_reduce_scans_the_certified_box_whatever_the_settings(capsys):
    assert _simple_diagonal_verdict(capsys) == "eliminated_by_computation"
    for flags in (("--no-sporadic",), ("--out4-nmax", "5"), ("--catalog-bound", "10")):
        code, out, err = run(capsys, "reduce", *flags)
        assert (code, out) == (1, ""), flags
        assert "unrecognized arguments" in err, flags


def test_reduce_markdown(capsys):
    code, out, _ = run(capsys, "reduce", "--format", "md")
    assert code == 2
    assert out.startswith("# Reduction report")


def test_reduce_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "reduce", "--output", str(target))
    assert code == 2
    assert out == ""
    assert json.loads(target.read_text())["version"] == "0.1.0"


@pytest.fixture
def unfreeze():
    # main_entry leaves the collector off and the heap frozen; later tests
    # in this process need both undone.
    yield
    gc.unfreeze()
    gc.enable()


@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_entry_freezes_the_heap_after_main_returns(monkeypatch, unfreeze, code):
    calls = []
    disable, freeze = gc.disable, gc.freeze
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable") or disable())
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze") or freeze())
    with pytest.raises(SystemExit) as exited:
        cli.main_entry()
    assert exited.value.code == code
    assert calls == ["disable", "main", "freeze"]
    assert gc.get_freeze_count() > 0
    assert not gc.isenabled()


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "check", "16", "6", "2")[0] == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled() == enabled


def test_atexit_handlers_run_on_a_frozen_heap():
    # The handler runs after main_entry's sys.exit, and what it prints is
    # still flushed.
    probe = (
        "import atexit, gc\n"
        "import symreduce.cli\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "symreduce.cli.main_entry()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}
    child = subprocess.run(
        [sys.executable, "-c", probe, "check", "16", "6", "2"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (child.returncode, child.stderr) == (0, "")
    report, _, tail = child.stdout.rpartition("}\n")
    assert json.loads(report + "}")["admissible"] is True
    assert tail == "frozen at exit: True\n"


def test_reduce_output_file_holds_the_printed_bytes_at_exit(tmp_path):
    target = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}
    printed, written = [
        subprocess.run([sys.executable, "-m", "symreduce", *argv], capture_output=True, env=env, timeout=60)
        for argv in (["reduce"], ["reduce", "--output", str(target)])
    ]
    assert printed.returncode == written.returncode == 2
    assert (written.stdout, written.stderr, printed.stderr) == (b"", b"", b"")
    assert target.read_bytes() == printed.stdout


def test_reduce_empty_output_path(capsys):
    # An empty path names no file: it fails to open rather than meaning stdout.
    code, out, err = run(capsys, "reduce", "--output", "")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_sporadic_row_reaches_lookup_and_scan(capsys, monkeypatch):
    # The commands read atlas._SPORADIC_FACTS when they run.
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "Q1", atlas.GroupFacts(6000000, 9))
    assert run(capsys, "atlas", "order", "Q1") == (0, "6000000\n", "")
    assert run(capsys, "atlas", "out", "Q1") == (0, "9\n", "")
    # 9**4 = 6561 < 6000000, so Q1 is not a candidate.
    code, out, _ = run(capsys, "atlas", "scan")
    assert code == 0
    assert json.loads(out)["candidates"] == ["L3(4)"]


def test_sporadic_candidate_injection(capsys, monkeypatch):
    # a fake group with huge out-order must surface as a candidate and
    # flip the scan's exit code to "disagree"
    monkeypatch.setitem(atlas._SPORADIC_FACTS, "Q2", atlas.GroupFacts(6000, 9))
    code, out, _ = run(capsys, "atlas", "scan")
    assert code == 2
    payload = json.loads(out)
    assert "Q2" in payload["candidates"] and payload["tail_ok"] is True


def test_no_arguments_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 1


# Each level of the command tree, by the words that reach it, and its rows.
_LEVELS = {(): _COMMANDS, **{(name,): body for name, _, body, *_ in _COMMANDS if not callable(body)}}
_LEAVES = [((*path, row[0]), row) for path, rows in _LEVELS.items() for row in rows if callable(row[2])]


def test_unknown_subcommand(capsys):
    names = {path: [row[0] for row in rows] for path, rows in _LEVELS.items()}
    assert names[()] == ["check", "atlas", "diagonal", "product", "imprimitive", "reduce"]
    assert names[("atlas",)] == ["order", "out", "scan", "catalog"]
    for path, level in names.items():
        code, out, err = run(capsys, *path, "frobnicate")
        assert (code, out) == (1, ""), path
        listed = re.search(r"invalid choice: '?frobnicate'? \(choose from (.*)\)", err).group(1)
        assert [name.strip("'") for name in listed.split(", ")] == level, path


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--help"])
    out, err = capsys.readouterr()
    assert (exited.value.code, err) == (0, "")
    return out.splitlines()


@pytest.mark.parametrize("path", sorted(_LEVELS), ids=lambda path: "-".join(path) or "symreduce")
def test_group_help_lists_its_subcommands(capsys, path):
    rows = [line.split() for line in _help(capsys, *path)]
    for name, help_text, *_ in _LEVELS[path]:
        assert [name, *help_text.split()] in rows


@pytest.mark.parametrize("path, row", _LEAVES, ids=[" ".join(path) for path, _ in _LEAVES])
def test_command_help_lists_its_arguments(capsys, path, row):
    lines = _help(capsys, *path)
    # An entry starts at a two-space indent; a help string too long for its
    # line's help column goes on the next line, indented further.
    shown = {line.split()[0].rstrip(",") for line in lines if re.match(r"  \S", line)}
    assert shown == {"-h", *(_ARGUMENTS[name].get("metavar", name) for name in row[3:])}
    text = " ".join(" ".join(lines).split())
    for name in row[3:]:
        assert _ARGUMENTS[name].get("help", "") in text


def test_check_help_states_the_trial_division_limit(capsys):
    # cli loads no layer at start, so the help text writes the limit out;
    # the check command's row of the top-level help must name intmath's.
    row = " ".join(line for line in _help(capsys) if line.split()[:1] == ["check"])
    exponent = int(re.fullmatch(r".* must be <= 10\^(\d+)", row).group(1))
    assert 10**exponent == TRIAL_DIVISION_LIMIT


def test_outputs_match_report_sections(capsys):
    evidence = report_payload(run_reduce())["evidence"]
    diag = json.loads(run(capsys, "diagonal", "scan")[1])
    assert diag == {key: evidence["simple_diagonal"][key] for key in diag}
    scan = json.loads(run(capsys, "atlas", "scan")[1])
    section = evidence["simple_diagonal"]["out4_scan"]
    shared = scan.keys() & section.keys()
    assert shared == {"n_max", "q_max", "candidates", "tail_ok", "label"}
    assert {key: scan[key] for key in shared} == {key: section[key] for key in shared}
    m4 = json.loads(run(capsys, "product", "m4", "5")[1])
    assert m4 == evidence["product"]["m4_cases"][0]
    family = json.loads(run(capsys, "imprimitive", "family", "3")[1])
    assert family == evidence["point_imprimitive"]["samples"][1]
    enum = json.loads(run(capsys, "product", "enumerate")[1])
    assert enum["triples"] == evidence["product"]["triples"]
    assert enum["m_values"] == evidence["product"]["m_values"]


def test_reduce_defaults_are_reduce_config(capsys):
    code, out, _ = run(capsys, "reduce")
    assert code == 2
    assert out == emit(run_reduce(), "json")


def _loads(*layers: str) -> set:
    base = {"symreduce", "symreduce.cli", "symreduce.errors", "symreduce.jsontext"}
    return base | {f"symreduce.{name}" for name in layers}


# The symreduce modules a fresh interpreter holds after `import
# symreduce.cli` and one command: each command loads only the layers it runs.
_LOADED = {
    (): _loads(),
    ("check", "16", "6", "2"): _loads("design", "intmath"),
    ("atlas", "order", "L3(4)"): _loads("atlas", "intmath"),
    ("atlas", "out", "L3(4)"): _loads("atlas", "intmath"),
    ("atlas", "scan"): _loads("atlas", "intmath"),
    ("atlas", "catalog"): _loads("atlas", "intmath"),
    ("product", "enumerate"): _loads("product", "design", "intmath"),
    ("product", "enumerate", "--v0-min", "5"): _loads("product", "design", "intmath"),
    ("product", "m4", "6"): _loads("product", "design", "intmath"),
    ("imprimitive", "family", "7"): _loads("imprimitive"),
    ("diagonal", "scan"): _loads("diagonal", "atlas", "intmath"),
    ("diagonal", "scan", "--catalog-bound", "10000000"): _loads("diagonal", "atlas", "intmath"),
    ("reduce",): _loads("atlas", "design", "diagonal", "imprimitive", "intmath", "product", "report"),
}


# Modules no command loads: dataclasses with the inspect, ast, dis and
# tokenize modules it brings in, the package-resource machinery, argparse
# with the gettext and locale modules its messages load, json, which
# compiles regexes on import, re, and __future__, which annotations on
# Python 3.10 and later do not need.
_HEAVY = (
    "dataclasses",
    "inspect",
    "importlib.resources",
    "pathlib",
    "zipfile",
    "tempfile",
    "argparse",
    "gettext",
    "locale",
    "json",
    "re",
    "__future__",
)


@pytest.mark.parametrize("argv", sorted(_LOADED), ids=lambda argv: "-".join(argv) or "import")
def test_command_loads_only_its_layers(argv):
    # The snapshot of sys.modules is taken before the probe imports json
    # to print it.
    probe = (
        "import contextlib, io, sys\n"
        "import symreduce.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        symreduce.cli.main(sys.argv[1:])\n"
        "loaded = [sorted(m for m in sys.modules if m.startswith('symreduce')),"
        f" [m for m in {_HEAVY!r} if m in sys.modules]]\n"
        "import json\n"
        "print(json.dumps(loaded))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}
    # Under -S no site hook runs, so a module of _HEAVY is loaded by the
    # command or not at all.
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True, env=env, check=True
    )
    modules, heavy = json.loads(child.stdout)
    assert set(modules) == _LOADED[argv]
    assert heavy == []


@pytest.mark.parametrize("argv", sorted(argv for argv in _LOADED if argv), ids="-".join)
def test_stdout_is_the_json_dumps_text(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert out == oracles.json_text(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [("atlas", "catalog", "--catalog-bound", "1000000000"), ("diagonal", "scan", "--catalog-bound", "100000000000")],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(symreduce.__file__).resolve().parent.parent)}
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "symreduce", *argv],
            capture_output=True,
            text=True,
            env={**env, "PYTHONHASHSEED": seed},
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0]


# Command lines on which the CLI must read what argparse reads from the same
# command tree (tests/oracles.py): each command with and without its flags,
# --flag=value, prefixes, negative values, missing, extra and badly typed
# arguments, bad choices, unknown names at each level, and -h before and
# after other words.
_ARGV_CORPUS = [
    (),
    ("check", "7", "3", "1"),
    ("check", "-7", "3", "1"),
    ("check", "7", "-3.5", "1"),
    ("check", "7", "3"),
    ("check", "7", "3", "1", "2"),
    ("check", "7", "3", "x"),
    ("check", "7", "--lam", "1"),
    ("atlas",),
    ("atlas", "order", "L3(4)"),
    ("atlas", "out", "L3(4)"),
    ("atlas", "order"),
    ("atlas", "order", "A5", "A6"),
    ("atlas", "order", "-"),
    ("atlas", "order", "-A5"),
    ("atlas", "scan"),
    ("atlas", "scan", "--out4-nmax", "12", "--out4-qmax", "1024"),
    ("atlas", "scan", "--out4-nmax=12", "--out4-qmax=-1"),
    ("atlas", "scan", "--out4-n", "12"),
    ("atlas", "scan", "--out4", "12"),
    ("atlas", "scan", "--out4", "12", "-h"),
    ("atlas", "scan", "--out4-nmax"),
    ("atlas", "scan", "--out4-nmax", "--out4-qmax", "3"),
    ("atlas", "scan", "--families", "unitary"),
    ("atlas", "catalog"),
    ("atlas", "catalog", "--catalog-bound", "200"),
    ("atlas", "catalog", "--catalog-bound", "-3"),
    ("atlas", "catalog", "--catalog-bound=-3"),
    ("atlas", "catalog", "--catalog-bound", "ten"),
    ("atlas", "catalog", "--catalog-bound", ""),
    ("atlas", "catalog", "--catalog-bound", "-x"),
    ("atlas", "catalog", "--catalog-bound", "2", "--catalog-bound", "3"),
    ("atlas", "catalog", "200"),
    ("diagonal", "scan"),
    ("diagonal", "scan", "--catalog-bound", "59"),
    ("diagonal", "scan", "--c", "59"),
    ("product", "enumerate"),
    ("product", "enumerate", "--v0-min", "5"),
    ("product", "enumerate", "--v0", "5"),
    ("product", "enumerate", "--v0=5"),
    ("product", "enumerate", "--v0-min", "3"),
    ("product", "enumerate", "--v0-min", "ten"),
    ("product", "m4", "5"),
    ("product", "m4", "-5"),
    ("product", "m4"),
    ("imprimitive", "family", "3"),
    ("imprimitive", "family", "3.5"),
    ("reduce",),
    ("reduce", "--format", "md", "--v0-min", "5", "--output", "report.md"),
    ("reduce", "--format=md"),
    ("reduce", "--fo", "md"),
    ("reduce", "--format", "xml"),
    ("reduce", "--format", ""),
    ("reduce", "--format"),
    ("reduce", "--output", "-"),
    ("reduce", "--output", "-report"),
    ("reduce", "--o", "a b"),
    ("reduce", "extra"),
    ("reduce", "--catalog-bound", "10"),
    ("frobnicate",),
    ("frobnicate", "-h"),
    ("atlas", "frobnicate"),
    ("diagonal", "frobnicate"),
    ("product", "frobnicate"),
    ("imprimitive", "frobnicate"),
    ("--frobnicate", "check", "7", "3", "1"),
    ("--frobnicate", "-h"),
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "check"),
    ("-h", "frobnicate"),
    ("atlas", "-h"),
    ("atlas", "-h", "frobnicate"),
    ("atlas", "scan", "--help"),
    ("check", "7", "-h", "x"),
    ("check", "x", "3", "1", "-h"),
    ("check", "7", "3", "1", "--help"),
    ("check", "7", "3", "1", "2", "-h"),
    ("reduce", "--help=x"),
    ("reduce", "--format", "xml", "-h"),
    ("reduce", "-h", "--format", "xml"),
]


# The words of argparse's negative-number pattern turn on what \d and $
# accept: Unicode decimal digits and a final newline.
_NUMBER_WORDS = ["-5", "-5\n", "-5\n\n", "-.5", "-5.", "-5.5", "-٣", "-²", "--v0", "- 5", "-", "-\n", "-.", "-1.2.3", "5"]


def test_negative_numbers_are_the_words_of_argparses_pattern():
    for word in _NUMBER_WORDS + oracles.WORDS + oracles.catalog_names():
        assert cli._is_negative_number(word) == oracles.is_negative_number_by_regex(word), word


@given(st.text(st.sampled_from("-.5٣²x \n"), max_size=8))
def test_negative_numbers_agree_with_argparses_pattern_on_generated_words(word):
    assert cli._is_negative_number(word) == oracles.is_negative_number_by_regex(word)


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=lambda argv: shlex.join(argv) or "no-arguments")
def test_reads_the_command_line_as_argparse_does(capsys, argv):
    try:
        expected = oracles.argparse_namespace(list(argv))
    except oracles.ArgparseRejects:
        with pytest.raises(_UsageError):
            _parse(list(argv))
        assert run(capsys, *argv)[:2] == (1, "")
    except SystemExit as exited:
        assert exited.code == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as ours:
            main(list(argv))
        assert ours.value.code == 0
        assert capsys.readouterr().out.startswith("usage: symreduce")
    else:
        assert vars(_parse(list(argv))) == expected


# The stdout sha256 prefix, exit code and stderr of each command but
# `reduce`, whose reports tests/test_report.py pins.  A change to one of
# these outputs updates its pin and says why in CHANGES.md.
_OUTPUT_PINS = [
    ("atlas scan", "a50aaa7a27459736", 0, ""),
    (
        "atlas scan --out4-nmax 5 --out4-qmax 31",
        "d6390202441e3f95",
        1,
        "the box misses the certified region: bounds too small to trust the scan\n",
    ),
    ("atlas order L3(4)", "8a507f2f56c38c3d", 0, ""),
    ("atlas out L3(4)", "a1fb50e6c86fae16", 0, ""),
    ("check 16 6 2", "8f282521ebd3e089", 0, ""),
    ("check 7 7 7", "4dd7a3feabcd86fd", 2, ""),
    ("check --help", "6cc24fb88b02bac5", 0, ""),
    ("atlas catalog", "56b0026fd9f72883", 0, ""),
    ("atlas catalog --catalog-bound 1000000000000", "2ac63e6e0494fe89", 0, ""),
    ("diagonal scan --catalog-bound 100000000000", "0ea0936080e13c79", 0, ""),
    ("product enumerate", "b7c5ba20c87a2f74", 2, ""),
    ("product enumerate --v0-min 5", "962ba245855aa62f", 2, ""),
    ("product m4 5", "8dd6fa4a6221b9d8", 0, ""),
    ("product m4 6", "a7010df3c54a40a7", 0, ""),
    ("imprimitive family 7", "3582be0b0af8ee55", 0, ""),
]


@pytest.mark.parametrize("command, digest, code, err", _OUTPUT_PINS, ids=[p[0] for p in _OUTPUT_PINS])
def test_command_output_is_pinned(capsys, command, digest, code, err):
    try:
        got = main(command.split())
    except SystemExit as exited:  # --help
        got = exited.code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest
    assert (got, captured.err) == (code, err)
