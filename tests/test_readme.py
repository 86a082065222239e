"""README.md stays true to the program: the library example runs as
written, every flag it names exists, and every command-line example
parses."""

import argparse
import re
import shlex
from pathlib import Path

from chirped_bath import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:library-example", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_named_flags_exist():
    """Every --flag outside the pip install lines belongs to a subcommand."""
    lines = [ln for ln in README.read_text().splitlines() if not ln.lstrip().startswith("pip ")]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", "\n".join(lines)))
    accepted = {flag for sp in _subcommands().values() for flag in sp._option_string_actions}
    assert named and not named - accepted, sorted(named - accepted)


def test_command_line_examples_parse():
    section = README.read_text().split("Examples:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = block.strip().splitlines()
    assert len(examples) == 7
    for line in examples:
        argv = shlex.split(line)
        assert argv[0] == "chirped-bath"
        assert cli.build_parser().parse_args(argv[1:]).command == argv[1]
