import ast
import re
import shlex
from pathlib import Path

import movingframes
from movingframes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_once():
    names = movingframes.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(movingframes, name)] == []
    namespace = {}
    exec("from movingframes import *", namespace)
    assert set(names) <= namespace.keys()


def test_readme_quick_tour_runs():
    """The README's python block runs as it stands, and every expression line
    whose comment is a Python literal evaluates to that literal."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(block, namespace)
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == expected, line


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every ``movingframes`` line of the README's CLI block exits 0, run in
    order in an empty directory, so later lines read the files earlier ones write."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("movingframes ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) == 0, line
        capsys.readouterr()
