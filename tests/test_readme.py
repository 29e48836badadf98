"""The library quick start in README.md runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per root, then the verdict and the strong spectrum
    assert len(lines) > 2
    assert lines[-2].startswith("Stable ")
    assert lines[-1].startswith("StrongSpectrum(")
