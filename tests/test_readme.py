"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    code = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, names)
    sol, report = names["sol"], names["report"]
    assert sol.b_star == 0.5
    assert sol.objective == pytest.approx(0.18, abs=1e-12)
    ranked = [(e.forecast_index, e.kind, e.value) for e in report.entries[:2]]
    assert ranked == [(0, "upper_bound", pytest.approx(0.8, abs=1e-12)), (1, "upper_bound", 0.0)]
    # The printed lines are the ones the comments give.
    assert out.getvalue().splitlines() == [
        "0.5 0.17999999999999994",
        "0 upper_bound 0.8",
        "1 upper_bound 0.0",
    ]
