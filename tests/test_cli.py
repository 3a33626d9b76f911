import json
from importlib.resources import files

import pytest

from movingframes import read_document
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
        # int() would read this as the S^1 operator; it must be refused
        bad = tmp_path / "coerced.json"
        bad.write_text(json.dumps({"n": 1, "operators": [
            {"pairing": [2.9, "1"], "signs": [True, -1.5]}]}))
        code, _, err = run(capsys, "check-balance", bad)
        assert code == 3
        assert "operator record 0" in err

    def test_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        for text in (b"{{{", b'\xff\xfe{"n":1}', b"[" * 200000,
                     b'{"n": ' + b"1" * 5000 + b', "operators": []}'):
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
        ["matrix", 2, "--cap-override", 9],
        ["gen-min", 2, "--cap-override", 9],
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


class TestMatrix:
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


class TestRoundTrip:
    def test_document_reload_matches(self, tmp_path, capsys):
        path = tmp_path / "full3.json"
        run(capsys, "gen-full", 3, "-o", path)
        from movingframes import enumerate_full
        assert read_document(path) == enumerate_full(3)
