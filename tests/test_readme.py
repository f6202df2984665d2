"""The README's library example runs as written, and its command line
section names the options the parser takes."""

import argparse
import re
from pathlib import Path

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
