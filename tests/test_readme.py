"""The README's library example runs as written, and its command line
section names the options the parser takes, in examples the parser
accepts."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from rbkernel.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})


def _parsers(parser):
    """``parser`` and every subparser below it, nested ones included."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_command_line_section_names_the_parsers_long_options():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    options = {opt for parser in _parsers(build_parser()) for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings if opt.startswith("--")}
    assert named == options


def test_command_line_examples_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert examples and all(argv[0] == "rbkernel" for argv in examples)
    for argv in examples:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail("the parser refuses the README example %r" % " ".join(argv))
