"""Every command of the README's "Command line" block, run through ``cli.main``.

A run copies the demo PLAs into a fresh directory and runs the block's
commands there in order, as the README prints them (``verify`` reads the
netlist that ``synth`` wrote).  Two runs must print the same bytes and
leave the same artifacts.
"""

from __future__ import annotations

import shlex
import shutil
from pathlib import Path

import pytest

from gridsyn.cli import main

from helpers import DEMO_PLAS

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of each line of the Command line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        cmd, _, comment = line.partition("#")
        argv = shlex.split(cmd)
        assert argv[0] == "gridsyn", line
        commands.append((argv[1:], comment.strip()))
    return commands


def run_readme(work: Path, monkeypatch, capsys) -> tuple[list[tuple[int, str]], dict[str, bytes]]:
    """Exit status and stdout of each README command, and the artifacts left."""
    shutil.copytree(DEMO_PLAS, work / "demos" / "pla")
    monkeypatch.chdir(work)
    results = []
    for argv, _ in readme_commands():
        status = main(argv)
        results.append((status, capsys.readouterr().out))
    artifacts = {
        p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()
    }
    return results, artifacts


def test_readme_block_is_parsed():
    commands = [argv[0] for argv, _ in readme_commands()]
    assert commands == [
        "synth", "spectrum", "grid", "grid", "cores", "tmap", "explore-planar", "verify",
    ]


def test_readme_commands_succeed_and_repeat(tmp_path, monkeypatch, capsys):
    first, first_files = run_readme(tmp_path / "a", monkeypatch, capsys)
    second, second_files = run_readme(tmp_path / "b", monkeypatch, capsys)
    assert [status for status, _ in first] == [0] * len(first)
    assert first == second
    assert first_files == second_files
    assert sorted(first_files) == [
        "fa_carry.net", "fa_sum.tmap.net", "planar_bf3.json", "xor_pair.svg",
    ]
    # the outputs the README's comments promise
    for (argv, comment), (_, out) in zip(readme_commands(), first):
        if comment.startswith("["):
            assert out == comment + "\n"
        elif comment.startswith("N="):
            assert comment.split(" + ")[0] + "\n" in out
    assert first[-1][1] == "equivalent\n"


def test_failure_statuses(tmp_path, monkeypatch, capsys):
    run_readme(tmp_path, monkeypatch, capsys)
    # 1: a netlist that is not equivalent to the PLA
    assert main(["verify", "fa_carry.net", "demos/pla/fa_sum.pla"]) == 1
    assert capsys.readouterr().out.startswith("mismatch at ")
    # 2: a missing file, a malformed PLA, and arguments argparse rejects
    assert main(["spectrum", "missing.pla"]) == 2
    (tmp_path / "bad.pla").write_text(".i 2\n.o 1\n1x 1\n.e\n")
    assert main(["synth", "bad.pla"]) == 2
    err = capsys.readouterr().err
    assert err.count("gridsyn: error:") == 2 and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["grid"])
    assert exc.value.code == 2


def test_survey_headline_in_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["explore-planar", "-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["functions of 4 inputs: 65536", "planar: 42244", "non-planar: 23292"]
    assert lines[3] == "  witness mask 0x358"
