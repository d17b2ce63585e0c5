"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from htfid import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    htf = scope["htf"]
    assert sorted(htf.harmonics) == list(range(-3, 4))
    assert htf.omega_grid.size == 600
    for values in htf.harmonics.values():
        assert np.all(np.isfinite(values))


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
    assert json.loads(block) == cli.DEFAULT_CONFIG
