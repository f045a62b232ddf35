"""The README's examples run, and give the results written in their comments."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from dtcodes import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## section`` heading."""
    after = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def _literal(comment: str):
    """The value a comment states, or None when it is prose."""
    try:
        return ast.literal_eval(comment.strip())
    except (ValueError, SyntaxError):
        return None


def _commented_values(block: str):
    """(code, value) of each line whose comment is a bare value."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = _literal(comment)
        if comment and value is not None:
            yield code.strip(), value


def test_library_block_gives_its_commented_results():
    block = _block("Library", "python")
    namespace: dict = {}
    exec(block, namespace)
    checked = {code: value for code, value in _commented_values(block)}
    assert checked == {
        "report.d_opt": 4,
        'report.to_dict()["counts"]': {"dt_only": 4, "dc": 4, "nc": 0},
    }
    for code, value in checked.items():
        assert eval(code, namespace) == value, code


_COMMANDS = [
    (shlex.split(code)[1:], value)
    for code, value in _commented_values(_block("Command line", "sh"))
    if code.startswith("dtcodes ")
]


def test_every_valued_command_is_checked():
    assert [" ".join(argv) for argv, _ in _COMMANDS] == [
        "code --q 3 --nc (1,2,1,1,1,0) --minwt",
        "awe --q 3 --threshold --d 6",
    ]


@pytest.mark.parametrize("argv,value", _COMMANDS, ids=[" ".join(a) for a, _ in _COMMANDS])
def test_command_prints_its_commented_value(argv, value, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == f"{value}\n"
