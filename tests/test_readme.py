"""The README's library tour runs as written, and its CLI lines parse."""
import re
import shlex
from pathlib import Path

from ticsp.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_source() -> str:
    text = README.read_text()
    match = re.search(r"^## Library tour\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README.md has no python block under '## Library tour'"
    return match.group(1)


def test_library_tour_runs(capsys):
    namespace = {}
    exec(compile(tour_source(), str(README), "exec"), namespace)
    assert namespace["result"].attractor == "HTE"
    assert abs(namespace["result"].t_exp - 16.22) < 0.01
    assert namespace["stage"].t_exp == namespace["result"].t_exp
    assert namespace["cmp"].max_err is not None


def test_cli_lines_parse():
    lines = re.findall(r"^ticsp (.*)$", README.read_text(), re.M)
    assert len(lines) >= 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True))
        assert callable(args.func), line
