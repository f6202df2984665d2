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


def test_command_line_section_names_the_parsers_long_options():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings if opt.startswith("--")}
    assert named == options
