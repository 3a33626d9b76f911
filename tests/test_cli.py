import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import movingframes
from movingframes import balance, cli, read_document
from movingframes.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def min2_file(tmp_path, capsys):
    path = tmp_path / "min2.json"
    code, _, _ = run(capsys, "gen-min", 2, "-o", path)
    assert code == 0
    return path


class TestGenFull:
    def test_n2_document(self, tmp_path, capsys):
        path = tmp_path / "full2.json"
        code, _, _ = run(capsys, "gen-full", 2, "-o", path)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert len(doc["operators"]) == 12
        assert doc["metadata"]["generator"] == "full-enumeration"

    def test_n1_document(self, capsys):
        code, out, _ = run(capsys, "gen-full", 1, "--no-timestamp")
        assert code == 0
        assert len(json.loads(out)["operators"]) == 2

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "gen-full", 9)
        assert code == 2
        assert "--cap-override" in err

    def test_cap_override(self, capsys, monkeypatch):
        import movingframes.cli as cli_mod
        monkeypatch.setattr(cli_mod, "DEFAULT_ENUMERATION_CAP", 2)
        code, _, err = run(capsys, "gen-full", 3)
        assert code == 2 and "--cap-override" in err
        code, out, _ = run(capsys, "gen-full", 3, "--cap-override", 3, "--no-timestamp")
        assert code == 0
        assert len(json.loads(out)["operators"]) == 120

    def test_no_cap_hint_for_nonpositive_n(self, capsys):
        code, _, err = run(capsys, "gen-full", 0)
        assert code == 2
        assert "positive" in err
        assert "--cap-override" not in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_rejects_nonpositive_cap_override(self, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gen-full", 3, "--cap-override", cap)
        assert exc.value.code == 2
        assert "argument --cap-override" in capsys.readouterr().err


class TestGenMin:
    @pytest.mark.parametrize("n,size", [(1, 1), (3, 20), (5, 144)])
    def test_sizes(self, n, size, capsys):
        code, out, _ = run(capsys, "gen-min", n, "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["operators"]) == size
        assert doc["metadata"]["generator"] == "theorem-3.4"

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "gen-min", 3, "--no-timestamp")
        _, out2, _ = run(capsys, "gen-min", 3, "--no-timestamp")
        assert out1 == out2


class TestCheckBalance:
    def test_minimal_set_balanced(self, min2_file, capsys):
        code, out, _ = run(capsys, "check-balance", min2_file)
        assert code == 0
        report = json.loads(out)
        assert report["balanced"] is True
        assert report["set_size"] == 6

    def test_clipped_set_unbalanced(self, min2_file, tmp_path, capsys):
        doc = json.loads(min2_file.read_text())
        doc["operators"] = doc["operators"][:-1]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-balance", clipped)
        assert code == 1
        report = json.loads(out)
        assert report["balanced"] is False
        assert report["condition_i_failures"]
        assert report["condition_i_failures"][0]["required"] == "5/3"

    def test_corrupted_sign_is_malformed(self, min2_file, tmp_path, capsys):
        doc = json.loads(min2_file.read_text())
        doc["operators"][0]["signs"][0] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-balance", bad)
        assert code == 3
        assert "record 0" in err

    def test_non_integer_entries_are_malformed(self, tmp_path, capsys):
        # int() would read either as the S^1 operator; each must be refused by type,
        # 2.0 too, though it lies in the range 1..2
        bad = tmp_path / "coerced.json"
        for record, first in (({"pairing": [2.9, "1"], "signs": [True, -1.5]}, "2.9"),
                              ({"pairing": [2.0, 1], "signs": [1, -1]}, "2.0")):
            bad.write_text(json.dumps({"n": 1, "operators": [record]}))
            code, _, err = run(capsys, "check-balance", bad)
            assert code == 3
            assert ("operator record 0 is invalid: pairing index at position 1 "
                    f"must be an int, got {first}") in err

    def test_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        # the last two are JSON, but not an object
        for text in (b"{{{", b'\xff\xfe{"n":1}', b"[" * 200000,
                     b'{"n": ' + b"1" * 5000 + b', "operators": []}', b"[1, 2]", b"7"):
            bad.write_bytes(text)
            code, _, err = run(capsys, "check-balance", bad)
            assert code == 3
            assert err.startswith("error: ") and err.count("\n") == 1


class TestCheckFuntf:
    def test_minimal_set(self, min2_file, capsys):
        code, out, _ = run(capsys, "check-funtf", min2_file, "--samples", 20)
        assert code == 0
        report = json.loads(out)
        assert report["tight"] is True
        assert report["theoretical_constant"] == pytest.approx(2.0)

    def test_s3_preset_asset(self, tmp_path, capsys):
        asset = files("movingframes") / "assets" / "s3_preset.json"
        path = tmp_path / "s3.json"
        path.write_text(asset.read_text())
        code, out, _ = run(capsys, "check-funtf", path, "--samples", 20)
        assert code == 0
        report = json.loads(out)
        assert report["theoretical_constant"] == pytest.approx(1.0)
        assert abs(report["frame_constant"] - 1.0) < 1e-12

    def test_unbalanced_gets_witness(self, min2_file, tmp_path, capsys):
        doc = json.loads(min2_file.read_text())
        # drop one operator that pairs coordinates 1 and 2, so the slice
        # count at (1, 2) falls to 1 against a required 5/3
        drop = next(i for i, op in enumerate(doc["operators"])
                    if op["pairing"][0] == 2)
        doc["operators"] = [op for i, op in enumerate(doc["operators"]) if i != drop]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-funtf", clipped, "--samples", 5)
        assert code == 1
        report = json.loads(out)
        assert report["tight"] is False
        assert report["witness"]["defect"] == "1/3"
        assert report["witness"]["probe_pair"] == [1, 2]

    @pytest.mark.parametrize("case", ["min3-minus-last", "one-operator-n8"])
    def test_a_large_tolerance_never_passes_an_unbalanced_set(self, case, tmp_path, capsys):
        """--tol bounds the float cross-check; the exact coefficients decide.
        gen-min 3 minus its last operator takes F's route, and one operator at
        n = 8 (d = 16) the image rows."""
        path = tmp_path / "doc.json"
        if case == "min3-minus-last":
            assert run(capsys, "gen-min", 3, "-o", path)[0] == 0
            doc = json.loads(path.read_text())
            doc["operators"].pop()
        else:
            doc = {"n": 8, "operators": [{"pairing": [i + 2 - 2 * (i % 2) for i in range(16)],
                                          "signs": [1 - 2 * (i % 2) for i in range(16)]}]}
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-funtf", path, "--tol", 1000)
        assert code == 1
        report = json.loads(out)
        assert report["tight"] is False
        assert "witness" in report

    def test_an_unbalanced_document_is_scattered_once(self, tmp_path, capsys, monkeypatch):
        """gen-min 10 minus its last operator (d = 20, where the slice counts
        take two tables): the frame check and the witness's balance report
        read one decode, which asks balance._grouping once."""
        path = tmp_path / "doc.json"
        assert run(capsys, "gen-min", 10, "-o", path)[0] == 0
        doc = json.loads(path.read_text())
        doc["operators"].pop()
        path.write_text(json.dumps(doc))
        passes, grouping = [], balance._grouping
        monkeypatch.setattr(balance, "_grouping", lambda a_set: passes.append(1) or grouping(a_set))
        code, out, _ = run(capsys, "check-funtf", path)
        assert code == 1
        report = json.loads(out)
        assert report["tight"] is False and "witness" in report
        assert len(passes) == 1

    def test_deterministic_reports(self, min2_file, capsys):
        _, out1, _ = run(capsys, "check-funtf", min2_file, "--samples", 10, "--seed", 4)
        _, out2, _ = run(capsys, "check-funtf", min2_file, "--samples", 10, "--seed", 4)
        assert out1 == out2


    def test_benchmark_arguments_parse(self, min2_file, capsys):
        code, out, _ = run(capsys, "check-funtf", min2_file, "--seed", 4, "--tol", "1e-9")
        assert code == 0
        assert json.loads(out)["tight"] is True

    @pytest.mark.parametrize("tol", ["nan", "-1", "-0.5e-9", "inf", "1e400"])
    def test_rejects_nan_or_negative_tolerance(self, min2_file, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check-funtf", min2_file, "--tol", tol)
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["demo-erasure", "doc.json", "--trials", 0],
        ["demo-erasure", "doc.json", "--trials", -3],
        ["demo-erasure", "doc.json", "--erase", -1],
        ["demo-erasure", "doc.json", "--point-seed", -1],
        ["check-funtf", "doc.json", "--seed", -1],
        ["check-funtf", "doc.json", "--samples", 0],
        ["check-funtf", "doc.json", "--samples", "x"],
    ])
    def test_out_of_range_integers_name_the_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        assert f"argument {argv[2]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["matrix", 2, "--tol", 5],
        ["matrix", 2, "--seed", 1],
        ["matrix", 2, "--no-timestamp"],
        ["gen-min", 2, "--samples", 9],
        ["gen-full", 2, "--samples", 3],
        ["check-balance", "doc.json", "--no-timestamp"],
        ["check-funtf", "doc.json", "--erase", 1],
        ["demo-erasure", "doc.json", "--tol", 1],
    ])
    def test_options_of_other_subcommands_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unwritable_output_is_a_usage_error(self, min2_file, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        # check-balance on a balanced set would exit 0; a failed write must not read as 1
        for argv in (["gen-min", 2, "-o", target], ["check-balance", min2_file, "-o", target]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_unallocatable_sample_count_is_a_usage_error(self, min2_file, capsys):
        # 10^15 points of R^4 need 28.4 PiB, more than any address space, so
        # the allocation is refused at once; exit 1 would read as "not tight"
        code, out, err = run(capsys, "check-funtf", min2_file, "--samples", 10**15)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_closed_stdout_is_a_usage_error(self):
        # the reader stops after 10 bytes of a 1.5 MB document
        env = dict(os.environ, PYTHONPATH=str(Path(movingframes.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "movingframes.cli", "gen-min", "8"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == "error: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["gen-min", "8"], ["check-balance"], ["check-funtf"]],
                             ids=["gen-min-8", "check-balance", "check-funtf"])
    def test_a_closed_pipe_on_both_streams_is_a_usage_error(self, argv, unbuffered, min2_file):
        """One pipe takes stdout and stderr, so the error line cannot be written
        either: it goes to devnull, and the exit code stays 2.  That line used
        to raise out of main (exit 1, which reads as "verdict false") or fail
        the flush at exit (120).  gen-min 8 fills the pipe, which is closed
        after 5 bytes; the checks of a balanced document, which would exit 0,
        write to a pipe whose reader has already closed it."""
        env = dict(os.environ, PYTHONPATH=str(Path(movingframes.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "movingframes.cli", *argv]
        if argv[0] == "gen-min":
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
            assert len(proc.stdout.read(5)) == 5
            proc.stdout.close()
        else:
            read, write = os.pipe()
            os.close(read)
            proc = subprocess.Popen([*command, str(min2_file)], stdout=write, stderr=write, env=env)
            os.close(write)
        assert proc.wait(timeout=60) == 2


# SHA-256 of `gen-min n --no-timestamp` and `gen-full n --no-timestamp`, as
# written by json.dumps(doc, indent=2) from one dict per operator
GEN_MIN_SHA256 = {
    1: "c754855a1a595426b50f712e9f7e2f77f7c73cd0b1e614fce1fd240165360583",
    2: "1dcc3cea2d60dfeb0166e20f71d297ae20b5dc3e6d2fddf0ab6922aa6b5ab8ef",
    3: "7a72383ca34972ee10daf96f12173fdf7391fd4e388821924aa76ec8567f3468",
    4: "cb6903c583a85b1ce3452dbbfcbee947b20f75674be46ab2ada0cf2f005e2c36",
    5: "d5dbabf1255014d12a9da1ab7786b8a4b73576c31b995cf9cf073e5220cbcd2a",
    6: "9685ae7c7ce4b7530358a1201657fb345e2b388afef74fed5c9bbc17abcd0480",
    7: "53313dd61ae68955c5881ae205d6f8d8d99ca6e14d94289d4560f8977c975b19",
    8: "49c6772d1c4e7e59e2b45e2675bd0be1705ae0142e562711bfde9ba60aaed572",
    9: "bb5ec4f913c0fb2fa615ec2a2a29dbef9c8c2cca722291ddfab878e09354b947",
    10: "f14218c4d6197235bf5edbb7bdcc8e46e8cbb2b9f4556cd5ed94a7aa03d23b3d",
}
GEN_FULL_SHA256 = {
    1: "e775072577cc404325500f77fb5d19da01a69aa03f37f59604da491debeb2556",
    2: "0ec0c9e1b4eaf29f54c022b633409d165de9b279b24c86080042a93b53be678b",
    3: "26304336b0f625f09dabc2ce616c3de287bd7ff18e4fb4d1d010a02d9dbb701d",
    4: "e40c9c29111faa48ea78ea7de91f8ed5baf516fb7504c397ec301526e103575b",
}


class TestGoldenDocuments:
    @pytest.mark.parametrize("command,n,digest",
                             [("gen-min", n, h) for n, h in GEN_MIN_SHA256.items()]
                             + [("gen-full", n, h) for n, h in GEN_FULL_SHA256.items()])
    def test_document_bytes(self, command, n, digest, capsys):
        code, out, _ = run(capsys, command, n, "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSizeCaps:
    @pytest.mark.parametrize("argv", [["gen-min", 13], ["gen-min", 4, "--cap-override", 3],
                                      ["matrix", 101], ["matrix", 3, "--cap-override", 2]])
    def test_refused_above_the_cap(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: n={argv[1]} exceeds the size cap ")
        assert err.endswith(" (see --cap-override)\n")

    @pytest.mark.parametrize("command", ["gen-min", "matrix"])
    def test_no_cap_hint_for_nonpositive_n(self, command, capsys):
        code, out, err = run(capsys, command, 0)
        assert (code, out) == (2, "")
        assert err == "error: n must be a positive integer, got 0\n"

    def test_override_admits_n(self, capsys):
        code, out, _ = run(capsys, "matrix", 3, "--cap-override", 3)
        assert code == 0 and len(out.splitlines()) == 6


# SHA-256 of `matrix n` stdout, pinned while the matrix was built as nested tuples
MATRIX_SHA256 = {
    1: "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d",
    2: "1dbb9eb358decacbb58744e1f89f10f657148cb4193ae1cb67a1b7bde5b766f5",
    3: "854d89ff71ee6db7c5235f8e8acd75d3e3b86ca9a453888334aa729ec1c59493",
    7: "30e81fcaef9cc4e70e54c6c3c34b15e40ee0050d26b6f9f4ff52ff4cc3f2e9db",
    25: "17df2ea0f9dea351b86adf8d94906d8690c66371b5c8f49db239811ccc0c4a52",
    50: "23a50cfb7e3545f73d36876b7f8e1a6a63802005753e8406836486cadbbc6952",
    100: "bf4c8ec4b437eab6772c1f8aa5134741f8877962569994354181ce541646e829",
}


class TestMatrix:
    @pytest.mark.parametrize("n,digest", MATRIX_SHA256.items())
    def test_golden_bytes(self, n, digest, capsys):
        code, out, _ = run(capsys, "matrix", n)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "matrix", 1)
        assert code == 0
        assert out == "0 1\n1 0\n"

    def test_n2(self, capsys):
        code, out, _ = run(capsys, "matrix", 2)
        assert code == 0
        assert out == "0 2 3 1\n2 0 1 3\n3 1 0 2\n1 3 2 0\n"

    def test_n4_rows_are_permutations(self, capsys):
        code, out, _ = run(capsys, "matrix", 4)
        assert code == 0
        for line in out.strip().split("\n"):
            assert sorted(int(v) for v in line.split(" ")) == list(range(8))


class TestDemoErasure:
    def test_no_erasure_is_exact(self, min2_file, capsys):
        code, out, _ = run(capsys, "demo-erasure", min2_file, "--erase", 0,
                           "--trials", 5)
        assert code == 0
        assert json.loads(out)["error_norm_frame"] <= 1e-12

    def test_frame_beats_basis_on_average(self, min2_file, capsys):
        code, out, _ = run(capsys, "demo-erasure", min2_file, "--erase", 1,
                           "--trials", 100)
        assert code == 0
        report = json.loads(out)
        assert report["error_norm_frame"] < report["error_norm_basis_baseline"]

    def test_heavy_erasure_still_reports(self, min2_file, capsys):
        code, out, _ = run(capsys, "demo-erasure", min2_file, "--erase", 5,
                           "--trials", 10)
        assert code == 0
        report = json.loads(out)
        assert report["error_norm_frame"] > 0

    def test_rejects_erasing_everything(self, min2_file, capsys):
        code, _, err = run(capsys, "demo-erasure", min2_file, "--erase", 6)
        assert code == 2
        assert "erase" in err

    def test_rejects_unbalanced_set(self, min2_file, tmp_path, capsys):
        doc = json.loads(min2_file.read_text())
        doc["operators"] = doc["operators"][:-1]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(doc))
        code, out, err = run(capsys, "demo-erasure", clipped, "--erase", 1)
        assert (code, out) == (2, "")
        assert err == "error: erasure demo requires a balanced operator set\n"


class TestEntrypoint:
    @pytest.mark.parametrize("argv,expected", [
        (["gen-min", "2"], 0),
        (["check-balance", "missing.json"], 3),
        (["gen-min", "0"], 2),
    ])
    def test_exit_code_is_that_of_main(self, argv, expected, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["movingframes", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == expected


def loaded_by_cli_calls(module: str, tmp_path) -> tuple[str, str]:
    """Whether ``module`` is in sys.modules after importing the CLI, and after
    gen-min, check-balance and check-funtf in that interpreter, at n = 3 and at
    n = 8, whose slices are counted pairing by pairing."""
    script = "\n".join([
        "import sys",
        "from movingframes.cli import main",
        f"before = {module!r} in sys.modules",
        "for n in (3, 8):",
        "    for argv in (f'gen-min {n} -o F', 'check-balance F -o B', 'check-funtf F -o T'):",
        "        assert main(argv.split()) == 0, argv",
        f"print(before, {module!r} in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(movingframes.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, after = proc.stdout.split()
    return before, after


class TestImports:
    def test_cli_calls_load_no_numpy_ma(self, tmp_path):
        # numpy 2.4 loads numpy.ma on first use (np.unique without return flags
        # does), some 15 ms of a CLI call; numpy 1.x loads it with numpy
        before, after = loaded_by_cli_calls("numpy.ma", tmp_path)
        assert after == before

    def test_cli_calls_load_no_numpy_random(self, tmp_path):
        # sample_sphere draws from the standard library; importing numpy.random,
        # which numpy 2.x loads on first use and 1.x with numpy, would add some
        # 15 ms and 5 MB to every check-funtf call
        before, after = loaded_by_cli_calls("numpy.random", tmp_path)
        assert after == before


class TestRoundTrip:
    def test_document_reload_matches(self, tmp_path, capsys):
        path = tmp_path / "full3.json"
        run(capsys, "gen-full", 3, "-o", path)
        from movingframes import enumerate_full
        assert read_document(path) == enumerate_full(3)
