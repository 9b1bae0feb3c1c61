"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:library-quickstart", "exec"), namespace)
    x_next = namespace["x_next"]
    assert x_next.shape == (2,)
    assert np.all((x_next >= 0.0) & (x_next <= 1.0))
