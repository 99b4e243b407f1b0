"""The README's command-line section against the parser it documents."""

import re
from pathlib import Path

from divplan.cli import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line_section() -> str:
    text = README.read_text()
    start = text.index("## Command line")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _parser_options() -> set:
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return {
        option
        for sub in subcommands.choices.values()
        for option in sub._option_string_actions
    }


def test_every_readme_flag_is_a_cli_option():
    flags = set(re.findall(r"--[a-z][a-z-]*", _command_line_section()))
    assert flags and flags <= _parser_options(), sorted(flags - _parser_options())


def test_bundled_readme_examples_run(tmp_path, monkeypatch):
    lines = [
        line.split()[1:]
        for line in _command_line_section().splitlines()
        if line.startswith(("divplan plan --domain", "divplan render"))
    ]
    assert [argv[0] for argv in lines] == ["plan", "render"] * 3
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == EXIT_OK, argv
