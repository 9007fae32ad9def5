import json
import random

import pytest

from gridsyn import write_pla
from gridsyn.cli import main

from helpers import DEMO_PLAS, random_cover

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
    assert err == "gridsyn: error: line 3: repeated inputs line\n"


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


def test_synth_reports_cores_on_one_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.pla").write_text(ONE_INPUT_PLA)
    assert main(["synth", "one.pla", "--report-cores"]) == 0
    out = capsys.readouterr().out
    assert "one: output = ~a\n" in out
    assert EMPTY_CORE_REPORT in out


def test_synth_core_report_uses_the_core_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.pla").write_text(write_pla(random_cover(random.Random(0), 5, 8)))
    reports = {}
    for metric in ("cubes", "minterms"):
        assert main(["cores", "r.pla", "--core-metric", metric]) == 0
        reports[metric] = capsys.readouterr().out
    assert reports["cubes"] != reports["minterms"]
    assert main(["synth", "r.pla", "--report-cores", "--core-metric", "minterms"]) == 0
    assert reports["minterms"] in capsys.readouterr().out


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


def test_synth_rejects_exhaustive_layout_over_eight_inputs(tmp_path, monkeypatch, capsys):
    # refused before decomposing, so no netlist is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w9.pla").write_text(write_pla(random_cover(random.Random(9), 9, 12)))
    assert main(["synth", "w9.pla", "--minimize", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridsyn: error: exhaustive layout search requires n <= 8\n"
    assert list(tmp_path.glob("*.net")) == []
