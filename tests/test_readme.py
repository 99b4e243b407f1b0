"""The README's command-line section against the program it documents."""

import json
import re
from pathlib import Path

from divplan.cli import EXIT_OK, _space_of, build_parser, main
from divplan.domains.urban import urban_pack

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
    # both ways: no flag the parser lacks, and no option the README leaves out
    flags = set(re.findall(r"--[a-z][a-z-]*", _command_line_section()))
    options = _parser_options() - {"-h", "--help"}
    assert flags and flags <= options, sorted(flags - options)
    assert options <= flags, sorted(options - flags)


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


def test_readme_space_file_rebuilds_the_bundled_urban_space(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", _command_line_section(), re.S)
    space_file = tmp_path / "space.json"
    space_file.write_text(block)
    sim, bundled = urban_pack()
    space = _space_of(json.loads(block), sim, "README")
    for mine, theirs in zip(space.features, bundled.features, strict=True):
        assert (mine.name, mine.domain, mine.expression) == (
            theirs.name, theirs.domain, theirs.expression
        )
    report = tmp_path / "urban.json"
    argv = ["plan", "--domain", "urban", "--k", "2", "--space", str(space_file)]
    assert main([*argv, "--out", str(report)]) == EXIT_OK
    mine = json.loads(report.read_text())
    golden = json.loads((GOLDEN / "urban-k2.json").read_text())
    assert (mine["result"], mine["stats"]) == (golden["result"], golden["stats"])
