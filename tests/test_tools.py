"""The report corpus and seed census scripts under tools/ import and run their setup."""
import importlib.util
import sys
from pathlib import Path

import pytest

from clarke_kkt.errors import ProblemParseError
from clarke_kkt.problem import parse_problem

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # seed_census imports report_corpus by this name
    spec.loader.exec_module(module)
    return module


report_corpus = load("report_corpus")
seed_census = load("seed_census")


def test_every_command_template_formats(tmp_path):
    files = report_corpus._problem_files(tmp_path)
    for template, _ in report_corpus.commands():
        command = [token.format(**files) for token in template]
        assert not any("{" in token for token in command), template


def test_problem_files_parse_except_the_malformed(tmp_path):
    # deep_parens nests 101 parentheses, one past the parser's bound
    unparsable = set(report_corpus.MALFORMED) | {"deep_parens"}
    files = report_corpus._problem_files(tmp_path)
    for name, path in files.items():
        if name == "TMP":
            continue
        text = Path(path).read_text(encoding="utf-8")
        if name in unparsable:
            with pytest.raises(ProblemParseError):
                parse_problem(text)
        else:
            parse_problem(text)


def test_census_commands_are_corpus_commands():
    corpus = [argv for argv, _ in report_corpus.commands()]
    census = seed_census.census_commands()
    assert census
    assert all(argv in corpus for argv in census)
