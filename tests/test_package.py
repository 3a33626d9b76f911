import ast
import importlib
import pkgutil
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


def test_public_names_are_pinned():
    assert sorted(movingframes.__all__) == [
        "BalanceReport", "DocumentError", "FrameReport", "OperatorSet", "SignedInvolution",
        "UnbalancedWitness", "augment_with_normal", "build_minimal_balanced",
        "build_pairing_matrix", "check_tight", "count_pair_slice", "count_sign_slice",
        "enumerate_full", "extract_pairings", "frame_operator", "is_balanced",
        "make_operator", "operator_images", "probe_points", "project_tangent",
        "read_document", "reconstruct", "s1_basis", "s3_basis", "sample_sphere",
        "sign_flip_bijection", "tangency_defect", "tangent_basis", "validate_pairing_matrix",
        "verify_moving_funtf", "witness_cross_term", "witness_unbalanced", "write_document",
    ]


def test_tuning_constants_are_pinned():
    """The private all-caps ints of every module of the package, twelve in
    all: a new one changes this pin and the count in the ROADMAP together."""
    constants = {}
    for info in pkgutil.iter_modules(movingframes.__path__, "movingframes."):
        module = importlib.import_module(info.name)
        names = sorted(name for name, value in vars(module).items()
                       if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name) and type(value) is int)
        if names:
            constants[info.name] = names
    assert constants == {
        "movingframes.balance": ["_BLOCK", "_CHUNK", "_FORM", "_GROUP"],
        "movingframes.documents": ["_BLOCK", "_CHUNK", "_MAX_NUMBER"],
        "movingframes.framecheck": ["_BLOCK", "_DENSE", "_ROWS", "_SMALL"],
        "movingframes.sphere": ["_DRAW_PAIRS"],
    }


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
