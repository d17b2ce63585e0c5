"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from htfid import cli
from htfid.commands import DEFAULT_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_examples():
    """The python blocks under "## Library use", in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_example_runs():
    code = library_use_examples()[0]
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    htf = scope["htf"]
    assert sorted(htf.harmonics) == list(range(-3, 4))
    assert htf.omega_grid.size == 600
    for values in htf.harmonics.values():
        assert np.all(np.isfinite(values))


def test_library_estimation_example_runs():
    # the estimation block continues in the scope of the theory block
    scope = {}
    for code in library_use_examples():
        exec(compile(code, str(README), "exec"), scope)
    assert "records" not in scope
    assert abs(scope["fit"].k_hat - 200.0) / 200.0 < 1e-3
    assert abs(scope["fit"].c_hat - 2.0) / 2.0 < 0.05


def test_command_line_examples_run(tmp_path, monkeypatch):
    # The first shell block under "## Command line", command by command in
    # order, with its runs/ directory under tmp_path.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [argv for argv in commands if argv]
    assert [argv[0] for argv in commands] == ["htfid"] * len(commands)
    assert "compare" in [argv[1] for argv in commands]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


def test_configuration_block_is_the_default_config():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Configuration") :]
    block = re.search(r"```json\n(.*?)```", section, flags=re.S).group(1)
    assert json.loads(block) == DEFAULT_CONFIG
