import errno
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gridsyn import cores, write_pla
from gridsyn.cli import main

from helpers import DEMO_PLAS, random_cover

ROOT = Path(__file__).resolve().parent.parent

MALFORMED_NETLISTS = {
    "empty_and": "inputs: a b\n0 AND_DISJOINT\noutput: n0\n",
    "empty_or": "inputs: a b\n0 OR\noutput: n0\n",
    "overlapping_and": "inputs: a b\n0 AND_DISJOINT i0 i0\noutput: n0\n",
    "repeated_inputs": "inputs: a b c\n0 SYM [1] i0 i2\ninputs: a\noutput: n0\n",
    "repeated_output": "inputs: a\n0 INV i0\noutput: n0\noutput: i0\n",
    "node_after_output": "inputs: a\n0 INV i0\noutput: n0\n1 INV n0\n",
    "signed_operand": "inputs: a b\n0 INV i+1\noutput: n0\n",
    "underscored_operand": "inputs: a b\n0 INV i0_1\noutput: n0\n",
    "non_ascii_operand": "inputs: a b\n0 INV i\u0661\noutput: n0\n",
    "zero_padded_operand": "inputs: a b\n0 INV i01\noutput: n0\n",
    "signed_index": "inputs: a\n+0 INV i0\noutput: n0\n",
    "signed_rank": "inputs: a b\n0 SYM [+1] i0 i1\noutput: n0\n",
    "non_numeric_rank": "inputs: a\n0 SYM [x] i0\noutput: n0\n",
    "one_operand_sym": "inputs: a\n0 SYM [1] i0\noutput: n0\n",
    "one_operand_or": "inputs: a\n0 OR i0\noutput: n0\n",
    "full_rank_set": "inputs: a b c\n0 SYM [0,1,2,3] i0 i1 i2\noutput: n0\n",
    "constant_or_operand": "inputs: a b\n0 CONST 1\n1 OR n0 i1\noutput: n1\n",
    "nested_or": "inputs: a b c\n0 OR i0 i1\n1 OR n0 i2\noutput: n1\n",
    "double_inverter": "inputs: a\n0 INV i0\n1 INV n0\noutput: n1\n",
    "duplicate_node": "inputs: a b\n0 INV i0\n1 INV i0\n2 OR n0 n1 i1\noutput: n2\n",
    "unreachable_node": "inputs: a b\n0 INV i0\n1 INV i1\noutput: n1\n",
    "constant_sym_operand": "inputs: a b\n0 CONST 1\n1 SYM [1] n0 i1\noutput: n1\n",
    "repeated_sym_operand": "inputs: a b\n0 SYM [1] i0 i0\n1 SYM [1] i1 n0\noutput: n1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_NETLISTS))
def test_tmap_rejects_malformed_netlist(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.net").write_text(MALFORMED_NETLISTS[name])
    assert main(["tmap", f"{name}.net"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gridsyn: error:")
    assert "Traceback" not in err


def test_verify_rejects_a_repeated_inputs_line(tmp_path, monkeypatch, capsys):
    # exit 1 is reserved for a failed equivalence check
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.net").write_text(MALFORMED_NETLISTS["repeated_inputs"])
    (tmp_path / "r.pla").write_text(".i 3\n.o 1\n1-0 1\n.e\n")
    assert main(["verify", "r.net", "r.pla"]) == 2
    err = capsys.readouterr().err
    assert err == "gridsyn: error: r.net: line 3: repeated inputs line\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_NETLISTS))
def test_verify_rejects_malformed_netlist(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = MALFORMED_NETLISTS[name]
    names = text.splitlines()[0].split()[1:]
    (tmp_path / f"{name}.net").write_text(text)
    pla = f".i {len(names)}\n.o 1\n.ilb {' '.join(names)}\n{'1' * len(names)} 1\n.e\n"
    (tmp_path / "r.pla").write_text(pla)
    assert main(["verify", f"{name}.net", "r.pla"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gridsyn: error:")
    assert "Traceback" not in err


NON_CANONICAL_NETLISTS = {
    "one_operand_sym": 2,
    "one_operand_or": 2,
    "full_rank_set": 2,
    "constant_or_operand": 3,
    "nested_or": 3,
    "double_inverter": 3,
    "duplicate_node": 3,
    "unreachable_node": 2,
    "constant_sym_operand": 3,
    "repeated_sym_operand": 2,
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL_NETLISTS))
def test_non_canonical_netlist_names_its_line(name, tmp_path, monkeypatch, capsys):
    # the reader accepts only what the writer emits
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.net").write_text(MALFORMED_NETLISTS[name])
    (tmp_path / "x.pla").write_text(".i 3\n.o 1\n.ilb a b c\n111 1\n.e\n")
    prefix = f"gridsyn: error: x.net: line {NON_CANONICAL_NETLISTS[name]}: "
    for argv in (["tmap", "x.net"], ["verify", "x.net", "x.pla"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_tmap_rejects_operands_that_map_to_one_signal(tmp_path, monkeypatch, capsys):
    # n0 and n1 are distinct nodes that both map to one 2-input T_1 cell
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.net").write_text(
        "inputs: a b\n0 OR i0 i1\n1 SYM [1,2] i0 i1\n2 SYM [1] n0 n1\noutput: n2\n"
    )
    assert main(["tmap", "x.net"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridsyn: error: node n2: operands n0 and n1 map to one signal\n"


def test_survey_headline(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["explore-planar", "-n", "4", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["total"], summary["planar"]) == (65536, 42244)
    assert summary["nonplanar_witnesses"][0]["mask"] == 0x358
    assert json.loads((tmp_path / "planar_bf4.json").read_text()) == summary


def test_spectrum_headline(capsys):
    assert main(["spectrum", str(DEMO_PLAS / "xor_pair.pla")]) == 0
    assert capsys.readouterr().out == "[0,0,4,0,0]\n"


def test_cores_report_runs(capsys):
    assert main(["cores", str(DEMO_PLAS / "xor_pair.pla")]) == 0
    assert "best core:" in capsys.readouterr().out


def test_cores_report_scans_the_pairs_once(monkeypatch, capsys):
    """One core search serves the pair cores, their widenings and the best core."""
    scans = []
    scan = cores._pair_masks
    monkeypatch.setattr(cores, "_pair_masks", lambda *args: scans.append(args) or scan(*args))
    assert main(["cores", str(DEMO_PLAS / "xor_pair.pla")]) == 0
    assert "best core: Z=" in capsys.readouterr().out
    assert len(scans) == 1


ONE_INPUT_PLA = ".i 1\n.o 1\n.ilb a\n.ob f\n0 1\n.e\n"
EMPTY_CORE_REPORT = "pair cores:\nexpanded cores:\nbest core: none\n"


def test_cores_on_one_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.pla").write_text(ONE_INPUT_PLA)
    assert main(["cores", "one.pla"]) == 0
    assert capsys.readouterr().out == EMPTY_CORE_REPORT
    assert main(["cores", "one.pla", "--json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["outputs"]
    assert entry == {"output": "f", "pair_cores": [], "best": None}


def test_synth_on_one_input(tmp_path, monkeypatch, capsys):
    """A cover with no pair cores still synthesises."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.pla").write_text(ONE_INPUT_PLA)
    assert main(["synth", "one.pla"]) == 0
    assert "one: output = ~a\n" in capsys.readouterr().out


def test_synth_reports_a_failed_verification(tmp_path, monkeypatch, capsys):
    """A mismatch from ``verify`` is false: synth names it, writes no netlist and exits 1."""
    from gridsyn.decompose import VerifyResult

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("gridsyn.cli.verify", lambda nl, cover: VerifyResult(False, (1,), True, 2))
    (tmp_path / "one.pla").write_text(ONE_INPUT_PLA)
    assert main(["synth", "one.pla"]) == 1
    assert "one: VERIFICATION FAILED at (1,)\n" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["one.pla"]


CONSTANT_PLAS = {"zero": ".i 2\n.o 1\n.e\n", "one": ".i 2\n.o 1\n-- 1\n.e\n"}


@pytest.mark.parametrize("stem, value", [("zero", 0), ("one", 1)])
def test_constant_covers_end_to_end(stem, value, tmp_path, monkeypatch, capsys):
    """An empty cover and a tautology synthesise to one CONST node: the JSON
    node carries its value, the text report prints the value as the output
    expression, and the written netlist maps to no cells."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{stem}.pla").write_text(CONSTANT_PLAS[stem])
    assert main(["synth", f"{stem}.pla", "--json"]) == 0
    [circuit] = json.loads(capsys.readouterr().out)["circuits"]
    assert circuit["netlist"]["nodes"] == [
        {"id": 0, "kind": "CONST", "value": value, "operands": []}
    ]
    assert main(["synth", f"{stem}.pla"]) == 0
    assert f"{stem}: output = {value}\n" in capsys.readouterr().out
    assert main(["tmap", f"{stem}.net"]) == 0
    assert capsys.readouterr().out.startswith(
        f"{stem}: mapped netlist -> {stem}.tmap.net\n  total: 0 pitches\n"
    )


def test_cores_skips_the_widening_of_an_empty_pair_core(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.pla").write_text(CONSTANT_PLAS["zero"])
    assert main(["cores", "zero.pla"]) == 0
    assert capsys.readouterr().out == (
        "pair cores:\n  (x0,x1)     plain  0 cubes\nexpanded cores:\nbest core: none\n"
    )


STDOUT_COMMANDS = [
    ["synth", "fa_carry.pla"],
    ["synth", "fa_carry.pla", "--json"],
    ["spectrum", "fa_carry.pla"],
    ["grid", "fa_carry.pla"],
    ["cores", "fa_carry.pla"],
    ["tmap", "fa_carry.pla"],
    ["explore-planar", "-n", "2"],
    ["verify", "carry.net", "fa_carry.pla"],
]


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=" ".join)
def test_a_failed_write_to_stdout_exits_2(sink, argv, tmp_path, monkeypatch, capsys):
    """When stdout refuses the report, a pipe whose reader has gone or a full
    device, every command exits 2 with one error line: status 1 means a
    failed equivalence check, and the interpreter's last flush adds no
    traceback."""
    if sink == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_PLAS / "fa_carry.pla", tmp_path)
    assert main(["synth", "fa_carry.pla", "--out", "carry"]) == 0
    capsys.readouterr()
    if sink == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gridsyn.cli", *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(stdout)
    reason = os.strerror(errno.EPIPE if sink == "closed-pipe" else errno.ENOSPC)
    assert proc.returncode == 2
    assert proc.stderr == f"gridsyn: error: cannot write the report: {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--dc-partition"],
        ["synth", "--core-metric", "cubes"],
        ["cores", "--core-metric", "minterms"],
        ["synth", "--report-cores"],
        ["spectrum", "--seed", "1"],
        ["spectrum", "--out", "s"],
        ["cores", "--seed", "1"],
        ["cores", "--out", "c"],
        ["tmap", "--seed", "1"],
    ],
    ids=["synth-dc-partition", "synth-core-metric", "cores-core-metric", "synth-report-cores",
         "spectrum-seed", "spectrum-out", "cores-seed", "cores-out", "tmap-seed"],
)
def test_unread_and_removed_options_are_refused(tmp_path, argv):
    """A command takes only the options it reads: argparse refuses the
    others, and the removed decomposer options, with status 2 and a usage
    message, not a traceback, before any file is written."""
    (tmp_path / "r.pla").write_text(write_pla(random_cover(random.Random(0), 5, 8)))
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "gridsyn.cli", command, "r.pla", *options],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: gridsyn ")
    assert proc.stderr.endswith(f"gridsyn: error: unrecognized arguments: {' '.join(options)}\n")
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["r.pla"]


def test_synth_is_deterministic(tmp_path, monkeypatch, capsys):
    runs = []
    for k in range(2):
        work = tmp_path / f"run{k}"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["synth", str(DEMO_PLAS / "fa_carry.pla")]) == 0
        runs.append((capsys.readouterr().out, (work / "fa_carry.net").read_text()))
    assert runs[0] == runs[1]
    assert "fa_carry: verified equivalent" in runs[0][0]


def _wide_files(tmp_path, n):
    """A one-cube PLA on n inputs and the netlist of its first input."""
    names = [f"x{i}" for i in range(n)]
    (tmp_path / "wide.pla").write_text(
        f".i {n}\n.o 1\n.ilb {' '.join(names)}\n{'1' + '-' * (n - 1)} 1\n.e\n"
    )
    (tmp_path / "wide.net").write_text(f"inputs: {' '.join(names)}\noutput: i0\n")


@pytest.mark.parametrize(
    "n, text, exhaustive, checked",
    [
        (24, "equivalent\n", True, 1 << 24),
        (25, "equivalent on 1048576 sampled assignments\n", False, 1 << 20),
    ],
)
def test_verify_says_when_it_sampled(n, text, exhaustive, checked, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _wide_files(tmp_path, n)
    assert main(["verify", "wide.net", "wide.pla"]) == 0
    assert capsys.readouterr().out == text
    assert main(["verify", "wide.net", "wide.pla", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["equivalent"], report["exhaustive"], report["checked"]) == (
        True,
        exhaustive,
        checked,
    )


def test_synth_skips_layout_over_the_cap(tmp_path, monkeypatch, capsys):
    # 25 inputs, two of them live: decomposition and verification run, the
    # layout search would have to expand all 2**25 assignments
    monkeypatch.chdir(tmp_path)
    n = 25
    names = [f"x{i}" for i in range(n)]
    (tmp_path / "wide.pla").write_text(
        f".i {n}\n.o 1\n.ilb {' '.join(names)}\n{'---1' + '-' * 10 + '0' + '-' * 10} 1\n.e\n"
    )
    assert main(["synth", "wide.pla"]) == 0
    out = capsys.readouterr().out
    assert "wide: best layout skipped (25 inputs over the 24-input cap)\n" in out
    assert "wide: verified equivalent on 1048576 sampled assignments;" in out
    assert (tmp_path / "wide.net").exists()
    assert main(["synth", "wide.pla", "--json"]) == 0
    (circuit,) = json.loads(capsys.readouterr().out)["circuits"]
    assert circuit["layout"] is None
    assert (circuit["inputs"], circuit["exhaustive"], circuit["checked"]) == (25, False, 1 << 20)


def test_synth_rejects_exhaustive_layout_over_nine_inputs(tmp_path, monkeypatch, capsys):
    # refused before decomposing, so no netlist is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w10.pla").write_text(write_pla(random_cover(random.Random(10), 10, 13)))
    assert main(["synth", "w10.pla", "--minimize", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridsyn: error: exhaustive layout search requires n <= 9\n"
    assert list(tmp_path.glob("*.net")) == []


def test_synth_rejects_exhaustive_layout_over_the_cap(tmp_path, monkeypatch, capsys):
    # over 24 inputs too: --minimize exhaustive is refused, not skipped, and
    # before any netlist is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w25.pla").write_text(f".i 25\n.o 1\n{'11' + '-' * 23} 1\n.e\n")
    assert main(["synth", "w25.pla", "--minimize", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridsyn: error: exhaustive layout search requires n <= 9\n"
    assert [p.name for p in tmp_path.iterdir()] == ["w25.pla"]


def test_synth_searches_nine_inputs_exactly(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w9.pla").write_text(write_pla(random_cover(random.Random(9), 9, 12)))
    assert main(["synth", "w9.pla", "--minimize", "exhaustive", "--json"]) == 0
    (circuit,) = json.loads(capsys.readouterr().out)["circuits"]
    assert circuit["inputs"] == 9
    assert main(["synth", "w9.pla", "--json"]) == 0
    (greedy,) = json.loads(capsys.readouterr().out)["circuits"]
    exact, climbed = circuit["layout"], greedy["layout"]
    assert (exact["N"], exact["L"]) <= (climbed["N"], climbed["L"])


@pytest.mark.parametrize("flags", [["--order", "d,c,b,a"], ["--phases", "a"],
                                   ["--order", "d,c,b,a", "--phases", "a"],
                                   ["--order", ""], ["--phases", ""]])
@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_grid_refuses_minimize_with_a_configuration(mode, flags, capsys):
    argv = ["grid", str(DEMO_PLAS / "xor_pair.pla"), "--minimize", mode, *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "gridsyn: error: --minimize cannot be combined with --order or --phases\n"
    )


@pytest.mark.parametrize("flags, message", [
    (["--phases", "a,a"], "--phases must list each input at most once"),
    (["--phases", "b,c,b"], "--phases must list each input at most once"),
    (["--order", "a,a,b,c"], "--order must list every input exactly once"),
])
def test_grid_refuses_a_repeated_input_name(flags, message, capsys):
    assert main(["grid", str(DEMO_PLAS / "xor_pair.pla"), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gridsyn: error: {message}\n")


@pytest.mark.parametrize("flag", ["--order", "--phases"])
def test_grid_refuses_an_empty_name_list(flag, capsys):
    # an empty list is given, not absent: grid does not read it as the default
    assert main(["grid", str(DEMO_PLAS / "xor_pair.pla"), flag, ""]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gridsyn: error: unknown input '' in {flag}\n")


def test_verify_names_both_input_lists(tmp_path, monkeypatch, capsys):
    # exit 1 is reserved for a failed equivalence check
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.net").write_text("inputs: b a\n0 INV i0\noutput: n0\n")
    (tmp_path / "r.pla").write_text(".i 2\n.o 1\n.ilb a b\n01 1\n.e\n")
    assert main(["verify", "r.net", "r.pla"]) == 2
    assert capsys.readouterr().err == (
        "gridsyn: error: netlist inputs (b, a) differ from the cover's (a, b)\n"
    )


GRID_OUT_MESSAGE = "--out names the --render svg file and needs --render svg"
GRID_SEED_MESSAGE = "--seed seeds the greedy layout search and needs --minimize greedy"


@pytest.mark.parametrize("flags, message", [
    (["--out", "foo"], GRID_OUT_MESSAGE),
    (["--out", "foo", "--render", "ascii"], GRID_OUT_MESSAGE),
    (["--out", "foo", "--seed", "5"], GRID_OUT_MESSAGE),
    (["--seed", "5"], GRID_SEED_MESSAGE),
    (["--seed", "0", "--render", "svg"], GRID_SEED_MESSAGE),
    (["--seed", "5", "--minimize", "exhaustive"], GRID_SEED_MESSAGE),
], ids=["out", "out-ascii", "out-seed", "seed", "seed-svg", "seed-exhaustive"])
def test_grid_refuses_the_options_it_would_ignore(tmp_path, flags, message):
    """``grid`` writes to ``--out`` only under ``--render svg`` and reads
    ``--seed`` only under ``--minimize greedy``; elsewhere either option
    exits 2 with one error line, before any file is written."""
    shutil.copy(DEMO_PLAS / "xor_pair.pla", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "gridsyn.cli", "grid", "xor_pair.pla", *flags],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"gridsyn: error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["xor_pair.pla"]


@pytest.mark.parametrize("n", [8, 25])
@pytest.mark.parametrize("seed", ["0", "5"])
def test_synth_refuses_a_seed_without_greedy_search(tmp_path, n, seed):
    """``synth`` reads ``--seed`` only in the greedy layout search, as
    ``grid`` does: under ``--minimize exhaustive`` the option exits 2 with
    grid's error line at any input width, before any netlist is written."""
    (tmp_path / "wide.pla").write_text(
        f".i {n}\n.o 1\n{'1' + '-' * (n - 1)} 1\n.e\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gridsyn.cli", "synth", "wide.pla",
         "--minimize", "exhaustive", "--seed", seed],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"gridsyn: error: {GRID_SEED_MESSAGE}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["wide.pla"]


@pytest.mark.parametrize("n", [3, 24, 25])
def test_verify_takes_no_seed(tmp_path, n):
    """``verify`` has no ``--seed`` at any input width: its sample over the
    expansion cap is fixed, so the option is a usage error with one error line."""
    _wide_files(tmp_path, n)
    proc = subprocess.run(
        [sys.executable, "-m", "gridsyn.cli", "verify", "wide.net", "wide.pla", "--seed", "5"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: gridsyn ")
    assert [line for line in proc.stderr.splitlines() if "error" in line] == [
        "gridsyn: error: unrecognized arguments: --seed 5"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.net", "wide.pla"]


def test_synth_reads_seed_under_greedy(tmp_path, monkeypatch, capsys):
    """``--seed`` stays valid where the greedy layout search reads it, at any
    input width; at 25 inputs the search is skipped and the check sampled."""
    monkeypatch.chdir(tmp_path)
    pla = str(DEMO_PLAS / "xor_pair.pla")
    reports = []
    for seed in ([], ["--seed", "0"]):
        assert main(["synth", pla, "--json", *seed]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    wide = tmp_path / "wide.pla"
    wide.write_text(".i 25\n.o 1\n11" + "-" * 23 + " 1\n.e\n", encoding="utf-8")
    assert main(["synth", str(wide), "--seed", "5"]) == 0
    assert "on 1048576 sampled assignments" in capsys.readouterr().out


def _seeded_wide_pla() -> str:
    """A seeded 25-input PLA whose parts of equal don't-care count
    (``cores.dc_partition``) read at most 24 inputs each."""
    rng = random.Random(25)
    cubes = []
    for dead, count in ((1, 1), (13, 3), (16, 2), (20, 4)):
        skip = set(rng.sample(range(25), dead))
        for _ in range(count):
            cubes.append("".join("-" if j in skip else rng.choice("01") for j in range(25)))
    return ".i 25\n.o 1\n" + "".join(c + " 1\n" for c in cubes) + ".e\n"


#: sha256 of the ``--json`` reports of ``synth wide.pla`` and ``verify wide.net
#: wide.pla`` on ``_seeded_wide_pla``, as written when the sample had a seed, at its default 0.
WIDE_REPORT_SHA256 = {
    "synth": "778e0f42717332c2a15d78f6f60bba8d4522a6b2f1ceb5503790f1c4ae8461d5",
    "verify": "2468449e970958e68ee2c0a4cc10f1d23d8b43c653caf8f5017054cb19966c89",
}


def test_sampled_check_keeps_its_sample(tmp_path, monkeypatch, capsys):
    """Over the cap ``verify`` compares a fixed sample of 2**20 assignments,
    the blocks the default seed drew, so the reports keep their bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.pla").write_text(_seeded_wide_pla(), encoding="utf-8")
    digests = {}
    for argv in (["synth", "wide.pla"], ["verify", "wide.net", "wide.pla"]):
        assert main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        digests[argv[0]] = hashlib.sha256(out.encode()).hexdigest()
        report = json.loads(out)
        check = report["circuits"][0] if argv[0] == "synth" else report
        assert (check["exhaustive"], check["checked"]) == (False, 1 << 20)
    assert digests == WIDE_REPORT_SHA256


def test_grid_reads_out_under_svg_and_seed_under_greedy(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pla = str(DEMO_PLAS / "xor_pair.pla")
    assert main(["grid", pla, "--render", "svg", "--out", "foo"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["foo.svg"]
    assert capsys.readouterr().out.endswith("svg -> foo.svg\n")
    reports = []
    for seed in ([], ["--seed", "0"], ["--seed", "5"]):
        assert main(["grid", pla, "--minimize", "greedy", "--json", *seed]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


#: An environment whose locale encodes stdout and files as ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_non_ascii_names_under_an_ascii_locale(tmp_path):
    """Artifacts are UTF-8 whatever the locale, and text reports escape what
    stdout cannot encode instead of failing."""
    (tmp_path / "u.pla").write_text(".i 2\n.o 1\n.ilb caf\u00e9 b\n11 1\n.e\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ASCII_LOCALE)

    def run(*argv: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "gridsyn.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
        return proc.stdout

    assert b"u: output = SYM[2](caf\\xe9, b)\n" in run("synth", "u.pla")
    run("tmap", "u.pla")
    for artifact in ("u.net", "u.tmap.net"):
        assert "inputs: caf\u00e9 b\n" in (tmp_path / artifact).read_text(encoding="utf-8")


@pytest.mark.parametrize("arity", ["0", "-1"])
@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("command", ["synth", "tmap"])
def test_max_arity_below_one_is_refused(command, table, arity, tmp_path, monkeypatch, capsys):
    # with or without a pitch table, before any artifact is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "costs.txt").write_text("t 1 1 1\nt 2 1 2\nt 2 2 2\n")
    shutil.copy(DEMO_PLAS / "fa_carry.pla", tmp_path)
    extra = ["--pitch-table", "costs.txt"] if table else []
    assert main([command, "fa_carry.pla", "--max-arity", arity, *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "gridsyn: error: library needs max_arity >= 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["costs.txt", "fa_carry.pla"]


def test_tmap_row_of_a_netlist_has_no_cube_table(tmp_path, monkeypatch, capsys):
    """A netlist has no cubes or density: its report row prints "-" there, not 0."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_PLAS / "fa_carry.pla", tmp_path)
    assert main(["tmap", "fa_carry.pla"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["fa_carry", "3", "3", "67", "3"]
    assert main(["synth", "fa_carry.pla"]) == 0
    capsys.readouterr()
    assert main(["tmap", "fa_carry.net"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["fa_carry", "3", "-", "-", "3"]


SIX_INPUT_TABLE = "".join(f"t{k}of{n} {n} {k} {n}\n" for n in range(1, 7) for k in range(1, n + 1))
ALL_OR_NONE6 = ".i 6\n.o 1\n111111 1\n000000 1\n.e\n"


@pytest.mark.parametrize("arity", [[], ["--max-arity", "6"]])
def test_pitch_table_sets_the_default_arity(arity, tmp_path, monkeypatch, capsys):
    # without --max-arity the table's largest arity (6) applies, not 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "costs.txt").write_text(SIX_INPUT_TABLE)
    (tmp_path / "w6.pla").write_text(ALL_OR_NONE6)
    assert main(["tmap", "w6.pla", "--pitch-table", "costs.txt", "--json", *arity]) == 0
    assert json.loads(capsys.readouterr().out)["circuits"][0]["total_pitches"] == 15


def test_plain_inventory_keeps_arity_five(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w6.pla").write_text(ALL_OR_NONE6)
    assert main(["tmap", "w6.pla"]) == 2
    assert capsys.readouterr().err == (
        "gridsyn: error: symmetric component of 6 inputs exceeds library arity 5\n"
    )


BAD_NETLIST_ERROR = "bad.net: line 2: SYM operand i0 repeats"
BAD_TABLE_ERROR = "bad.txt: line 1: expected 'name arity threshold cost'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "bad.net", "fa_carry.pla"], BAD_NETLIST_ERROR),
        (["tmap", "bad.net"], BAD_NETLIST_ERROR),
        (["tmap", "fa_carry.pla", "--pitch-table", "bad.txt"], BAD_TABLE_ERROR),
        (["synth", "fa_carry.pla", "--pitch-table", "bad.txt"], BAD_TABLE_ERROR),
        (["synth", "dup.pla"], "dup.pla: duplicate output names"),
        (["synth", "twice.pla"], "twice.pla: line 2: repeated .i line"),
    ],
    ids=[
        "verify-netlist",
        "tmap-netlist",
        "tmap-pitch-table",
        "synth-pitch-table",
        "synth-duplicate-output-names",
        "synth-repeated-directive",
    ],
)
def test_parse_errors_name_their_file(argv, message, tmp_path, monkeypatch, capsys):
    # with two input files, a bare line number would not say which one it is in
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_PLAS / "fa_carry.pla", tmp_path)
    (tmp_path / "bad.net").write_text(MALFORMED_NETLISTS["repeated_sym_operand"])
    (tmp_path / "bad.txt").write_text("t1of2 2 1\n")
    (tmp_path / "dup.pla").write_text(".i 2\n.o 2\n.ob f f\n11 11\n")
    (tmp_path / "twice.pla").write_text(".i 3\n.i 2\n11\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gridsyn: error: {message}\n")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["tmap", "fa_carry.pla", "--pitch-table", "nope.txt"], "nope.txt"),
        (["tmap", "nope.net"], "nope.net"),
        (["verify", "nope.net", "fa_carry.pla"], "nope.net"),
        (["synth", "nope.pla"], "nope.pla"),
        (["tmap", "fa_carry.pla", "--pitch-table", "latin1.txt"], "latin1.txt"),
        (["verify", "latin1.net", "fa_carry.pla"], "latin1.net"),
        (["synth", "latin1.pla"], "latin1.pla"),
    ],
)
def test_unreadable_files_are_named(argv, missing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO_PLAS / "fa_carry.pla", tmp_path)
    for name in ("latin1.txt", "latin1.net", "latin1.pla"):
        (tmp_path / name).write_bytes(b"# caf\xe9\n")  # Latin-1, not UTF-8
    if (tmp_path / missing).exists():
        reason = "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"
    else:
        reason = "No such file or directory"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gridsyn: error: {missing}: {reason}\n")


# ---------------------------------------------------------------------------
# output pin: every command's status, stdout, stderr and artifacts

#: Recomputed when the decomposer began splitting every sub-cover by
#: don't-care count: only the outputs of ``r5.pla`` changed (its ``synth`` and
#: ``tmap`` runs and the four netlists written from it); the demo PLAs' are
#: byte-identical.
PIN_DIGEST = "fadfd4c508c33ab0544d910503f4936355767b533c49347a197674825c445ccc"

PIN_INPUTS = {
    "r5.pla": write_pla(random_cover(random.Random(1), 5, 8)),
    "r6.pla": write_pla(random_cover(random.Random(2), 6, 10)),
    "one.pla": ONE_INPUT_PLA,
    "bad.pla": ".i 2\n.o 1\n1x 1\n.e\n",
    "costs.txt": "inv 1 - 0.5\nt1 1 1 1\nt1of2 2 1 1.5\nt2of2 2 2 1.5\nt1of3 3 1 2\nt2of3 3 2 2.5\n"
    "t3of3 3 3 2.5\n",
}


def _pin_commands(stems: list[str]) -> list[list[str]]:
    """The corpus before ``synth`` has run: every PLA through every command."""
    runs = []
    for fmt in ([], ["--json"]):
        for stem in stems:
            pla = f"{stem}.pla"
            for command in ("synth", "spectrum", "grid", "cores", "tmap"):
                runs.append([command, pla, *fmt])
        for stem in ("r5", "majority5", "adder"):
            runs.append(["synth", f"{stem}.pla", "--minimize", "exhaustive", "--max-arity", "3",
                         "--out", f"{stem}_x", *fmt])
        runs.append(["synth", "r6.pla", "--minimize", "exhaustive", *fmt])
        runs.append(["synth", "fa_sum.pla", "--pitch-table", "costs.txt", "--max-arity", "3",
                     *fmt])
        for extra in (["--order", "a,c,b,d"], ["--phases", "b,c"], ["--render", "svg"],
                      ["--minimize", "greedy"], ["--order", "a,a,b,c"], ["--order", "a,z"],
                      ["--phases", "b,q"]):
            runs.append(["grid", "xor_pair.pla", *extra, *fmt])
        runs.append(["grid", "adder.pla", "--render", "svg", "--out", "add", *fmt])
        runs.append(["grid", "r5.pla", "--minimize", "exhaustive", "--order", "x4,x3,x2,x1,x0",
                     *fmt])
        runs.append(["tmap", "fa_sum.pla", "--pitch-table", "costs.txt", "--max-arity", "3",
                     *fmt])
        runs.append(["tmap", "and5.pla", "--pitch-table", "costs.txt", *fmt])
        for n in range(4):
            runs.append(["explore-planar", "-n", str(n), *fmt])
        runs.append(["explore-planar", "-n", "2", "--out", "bf2.json", *fmt])
        runs.append(["verify", "missing.net", "and5.pla", *fmt])
    return runs


def _pin_net_commands(nets: list[str]) -> list[list[str]]:
    """The corpus on the netlists ``synth`` and ``tmap`` wrote."""
    runs = []
    for fmt in ([], ["--json"]):
        for net in nets:
            if not net.endswith(".tmap.net"):
                runs.append(["tmap", net, *fmt])
                runs.append(["tmap", net, "--max-arity", "3", *fmt])
            pla = net.removesuffix(".net").removesuffix(".tmap") + ".pla"
            if Path(pla).exists():
                runs.append(["verify", net, pla, *fmt])
        for net, pla in (("and5.net", "or5.pla"), ("fa_carry.net", "fa_sum.pla"),
                         ("r5.net", "majority5.pla"), ("parity4.net", "xor_pair.pla"),
                         ("and5.net", "fa_sum.pla"), ("fa_sum.net", "adder.pla"),
                         ("fa_sum.net", "bad.pla")):
            runs.append(["verify", net, pla, *fmt])
    return runs


def _pin_digest(work: Path, monkeypatch, capsys) -> str:
    shutil.copytree(DEMO_PLAS, work)
    for name, text in PIN_INPUTS.items():
        (work / name).write_text(text)
    monkeypatch.chdir(work)
    stems = sorted(p.stem for p in work.glob("*.pla"))
    h = hashlib.sha256()

    def run(argv):
        status = main(argv)
        out, err = capsys.readouterr()
        h.update(json.dumps([argv, status, out, err]).encode() + b"\n")

    for argv in _pin_commands(stems):
        run(argv)
    nets = sorted(p.name for p in work.glob("*.net"))
    for argv in _pin_net_commands(nets):
        run(argv)
    for p in sorted(work.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def test_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    assert _pin_digest(tmp_path / "work", monkeypatch, capsys) == PIN_DIGEST
