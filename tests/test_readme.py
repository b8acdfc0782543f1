"""The README's library example runs as written."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(monkeypatch):
    code = library_block()
    assert "cv.read_edgelist" in code and "g.component_labels" in code
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md: Library use", "exec"), {})
