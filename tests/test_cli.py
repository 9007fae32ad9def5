import json

import pytest

from gridsyn.cli import main

MALFORMED_NETLISTS = {
    "empty_and": "inputs: a b\n0 AND_DISJOINT\noutput: n0\n",
    "empty_or": "inputs: a b\n0 OR\noutput: n0\n",
    "overlapping_and": "inputs: a b\n0 AND_DISJOINT i0 i0\noutput: n0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_NETLISTS))
def test_tmap_rejects_malformed_netlist(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.net").write_text(MALFORMED_NETLISTS[name])
    assert main(["tmap", f"{name}.net"]) == 2
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
