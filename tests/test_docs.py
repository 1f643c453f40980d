"""The README's library example runs against the installed names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_entry_points_run():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library entry points)", "exec"), namespace)
    assert namespace["traj"].norm_deviation() < 1e-10
    assert namespace["report"].all_passed
