"""The README's CLI examples, run as written: each `$ sidonrainbow ...` line of
its CLI block through cli.main in an empty working directory, its stdout
compared with the lines printed under it and its stderr empty. A `...` line stands for any run of
lines, and a `$ cat FILE` line after a command compares FILE's lines. Every
backticked `module.NAME` of a sidonrainbow module must name an attribute that
exists."""
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from sidonrainbow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    examples, lines = [], None
    for line in block.splitlines():
        if line.startswith("$ "):
            cmd, *args = shlex.split(line[2:], comments=True)
            if cmd == "sidonrainbow":
                lines, files = [], {}
                examples.append(pytest.param(args, lines, files, id=" ".join(args)))
            else:
                assert cmd == "cat" and len(args) == 1 and examples, line
                lines = files[args[0]] = []
        elif lines is not None:
            lines.append(line)
    return examples


def matches(expected: list[str], text: str) -> bool:
    while expected and not expected[-1]:
        expected = expected[:-1]  # the blank line before the next example
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line + "\n") for line in expected)
    return re.fullmatch(pattern, text) is not None


EXAMPLES = cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, stdout, files", EXAMPLES)
def test_readme_cli_example(argv, stdout, files, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert matches(stdout, captured.out)
    assert captured.err == ""
    for name, lines in files.items():
        assert matches(lines, (tmp_path / name).read_text(encoding="utf-8"))


def test_readme_names_resolve():
    names = re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    ours = [(mod, name) for mod, name in names if importlib.util.find_spec(f"sidonrainbow.{mod}")]
    assert len(ours) >= 7
    missing = [f"{mod}.{name}" for mod, name in ours if not hasattr(importlib.import_module(f"sidonrainbow.{mod}"), name)]
    assert not missing
