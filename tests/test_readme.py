"""The README's library example runs as written, and its command lines
parse."""
import re
import shlex
from pathlib import Path

from controversy.cli import _COMMANDS, build_parser

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


def command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.startswith("controversy ")]


def test_command_line_block_parses():
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command for line in command_lines()]
    assert sorted(commands) == sorted(_COMMANDS)  # one example per subcommand
