"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

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
