"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

from etdac.diagnostics import StepDiagnostics

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    diag = scope["diag"]
    assert isinstance(diag, StepDiagnostics)
    assert (diag.n, diag.t) == (1, 0.05)
    assert diag.alpha_min == scope["alpha_min"] == 1.0
    assert diag.dissipation_ok and diag.mbp_ok
    assert capsys.readouterr().out.split() == [repr(diag.energy), repr(diag.max_norm), "True", "True"]
