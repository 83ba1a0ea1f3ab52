"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(heading):
    """The first ```python block under the README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_library"}
    exec(compile(section_code("Library"), str(README), "exec"), namespace)
    assert namespace["s"] > 2.0
    assert namespace["alice_out"].report_bytes == \
        namespace["bob_out"].report_bytes
