"""The library quick start, the run configuration and the command lines in
README.md work as written."""

import pathlib
import re
import shlex

import hierdde as h
from hierdde import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per root, then the verdict and the strong spectrum
    assert len(lines) > 2
    assert lines[-2].startswith("Stable ")
    assert lines[-1].startswith("StrongSpectrum(")


def _json_block(heading):
    """The first json code block after a README heading."""
    text = README.read_text().split(heading, 1)[1]
    return re.search(r"```json\n(.*?)```", text, re.S).group(1)


def test_readme_run_configuration_loads(tmp_path):
    (tmp_path / "system.json").write_text(
        _json_block("### System description (JSON)"))
    (tmp_path / "run.json").write_text(
        _json_block("### Run configuration (JSON)"))
    cfg = h.load_config(str(tmp_path / "run.json"))
    assert cfg.grid == h.GridSpec(omega_count=801, phase_count=64,
                                  omega_range=(-3.2, 3.2))
    assert cfg.window == h.Rectangle(-0.1, 0.1, -3.0, 3.0)


def test_readme_commands_run(tmp_path, monkeypatch):
    # each line of the command block, in a directory holding the README's
    # run.json and system.json, exits 0 and writes into results/
    (tmp_path / "system.json").write_text(
        _json_block("### System description (JSON)"))
    (tmp_path / "run.json").write_text(
        _json_block("### Run configuration (JSON)"))
    monkeypatch.chdir(tmp_path)
    text = README.read_text().split("## Command line", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", text, re.S).group(1).splitlines()
    assert len(lines) == 5
    for line in lines:
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "hierdde"
        assert cli.main(argv) == 0, line
    written = {p.name for p in (tmp_path / "results").iterdir()}
    assert {"spectrum.csv", "manifolds.csv", "classify.json",
            "validate.csv", "example_fig2-stable.json"} <= written
