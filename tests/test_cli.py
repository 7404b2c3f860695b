"""Command line surface: argument handling, formats, round-trips."""

import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from g2orbits import cli, orbits
from g2orbits.cli import main
from g2orbits.classify import classify, principal_interval
from g2orbits.orbits import action_spec, spectrum_report

from util import spy


def _values(text: str, key: str) -> list[str]:
    """The values of ``key`` in a text report, one per row."""
    return re.findall(rf"^  {key} +(.*)$", text, re.M)


class TestVerifyAlgebra:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["verify-algebra"]) == 0
        out = capsys.readouterr().out
        assert _values(out, "passed") == ["True"] * 6

    def test_json_format(self, capsys):
        assert main(["verify-algebra", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["command"] == "verify-algebra"
        assert all(row["passed"] for row in doc["rows"])

    def test_negative_seed_is_an_error(self, capsys):
        assert main(["verify-algebra", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --seed must be a non-negative integer, got -1\n"


class TestOrbit:
    def test_t_and_s_agree(self, capsys):
        assert main(["orbit", "--type", "II", "--s", "0.2", "--format", "json"]) == 0
        by_s = json.loads(capsys.readouterr().out)["rows"][0]
        assert main(["orbit", "--type", "II", "--t", "0.4", "--format", "json"]) == 0
        by_t = json.loads(capsys.readouterr().out)["rows"][0]
        assert by_s == by_t

    def test_exactly_one_parameter_required(self):
        with pytest.raises(SystemExit) as err:
            main(["orbit", "--type", "II"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["orbit", "--type", "II", "--t", "0.4", "--s", "0.2"])
        assert err.value.code == 2

    def test_text_report(self, capsys):
        assert main(["orbit", "--type", "III", "--t", "1.0"]) == 0
        out = capsys.readouterr().out
        assert _values(out, "dim") == ["20"]
        assert re.fullmatch(r"(\S+ x \d+, )*\S+ x \d+", _values(out, "curvatures")[0])

    def test_singular_parameter_is_an_error(self, capsys):
        assert main(["orbit", "--type", "II", "--t", "0.0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ty, t", [("IV", 3e-9), ("IV", -3e-9), ("II", np.pi / 2 - 1e-7), ("II", np.pi / 2 + 1e-7)]
    )
    def test_parameter_next_to_a_singular_end_is_an_error(self, capsys, ty, t):
        assert main(["orbit", "--type", ty, f"--t={t!r}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_type_rejected(self):
        with pytest.raises(SystemExit):
            main(["orbit", "--type", "VII", "--t", "0.4"])

    @pytest.mark.parametrize(
        "args", [["--t", "inf"], ["--t", "nan"], ["--t", "3.0"], ["--s", "-0.1"]]
    )
    def test_parameter_outside_range_is_an_error(self, capsys, args):
        assert main(["orbit", "--type", "II", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_arithmetic_error_is_an_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ArithmeticError("complement dimension 14 != 14 - 14")

        monkeypatch.setattr(cli, "spectrum_report", fail)
        assert main(["orbit", "--type", "II", "--t", "0.4"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestScan:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "scan.csv"
        assert main(
            ["scan", "--type", "V", "--samples", "7", "--format", "csv",
             "--output", str(path)]
        ) == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7

        spec = action_spec("V")
        lo, hi = principal_interval(spec)
        for row, t in zip(rows, np.linspace(lo, hi, 7)):
            report = spectrum_report(spec, float(t))
            assert float(row["t"]) == report.t
            assert float(row["s"]) == report.s
            assert int(row["dim"]) == report.orbit_dim
            assert float(row["mean_curvature"]) == report.mean_curvature
            assert float(row["norm_sq"]) == report.norm_sq
            expanded = [v for v, m in report.curvatures for _ in range(m)]
            parsed = [float(row[f"pc{i + 1:02d}"]) for i in range(20)]
            assert parsed == expanded

    def test_json_rows(self, capsys):
        assert main(
            ["scan", "--type", "II", "--samples", "4", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["samples"] == 4
        assert len(doc["rows"]) == 4
        assert all(row["dim"] == 13 for row in doc["rows"])

    def test_no_samples_is_an_error(self, capsys):
        assert main(["scan", "--type", "II", "--samples", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unallocatable_samples_is_an_error(self, capsys):
        # 1e13 parameters need 73 TiB: the allocation is refused at once.
        assert main(["scan", "--type", "II", "--samples", "10000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_kernel_call_per_block(self, capsys, monkeypatch):
        calls = spy(monkeypatch, orbits, "_principal_lifts", lambda spec, ts: len(ts))
        assert main(["scan", "--type", "IV", "--samples", "40", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert calls == [orbits.FRAME_BLOCK, 40 - orbits.FRAME_BLOCK]
        monkeypatch.undo()
        spec = action_spec("IV")
        for row in rows:
            report = spectrum_report(spec, row["t"])
            assert row["curvatures"] == [[v, m] for v, m in report.curvatures]
            assert (row["mean_curvature"], row["norm_sq"]) == (
                report.mean_curvature, report.norm_sq
            )


class TestClassify:
    def test_type_iii_text(self, capsys):
        assert main(["classify", "--type", "III"]) == 0
        out = capsys.readouterr().out
        # minimal orbit at s = pi/3, biharmonic at s = (2/3) arccot(4/3);
        # compare on a 12-character prefix (roots are located to ~1e-12)
        assert format(np.pi / 3, ".17g")[:12] in out
        assert format((2 / 3) * np.arctan(3 / 4), ".17g")[:12] in out
        assert _values(out, "passed") == ["True"]

    def test_json_provenance_labels(self, capsys):
        assert main(["classify", "--type", "IV", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][0]
        assert row["closed_form"] == "type IV principal-curvature closed forms"
        assert row["passed"] is True
        assert row["singular_dims"] == [17, 17]

    def test_type_v_note_emitted(self, capsys):
        assert main(["classify", "--type", "V", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert any("sqrt(211)" in note for note in row["notes"])

    def test_json_root_diagnostics(self, capsys):
        assert main(["classify", "--type", "II", "--format", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["rows"][0]["root_diagnostics"]
        assert set(diagnostics) == {"f_H", "f_A"}
        for entry in diagnostics.values():
            assert set(entry) == {"n", "tail", "defect", "evaluations", "coefficients"}
            assert len(entry["coefficients"]) == 5
        assert main(["classify", "--type", "II"]) == 0
        assert "root_diagnostics" not in capsys.readouterr().out

    def test_austere_verdict_must_agree(self, capsys, monkeypatch):
        # classify writes the verdict; the command line only renders it
        flipped = classify(dataclasses.replace(action_spec("IV"), austere=False))
        monkeypatch.setattr(cli, "classify_type", lambda ty: flipped)
        assert main(["classify", "--type", "IV", "--format", "json"]) == 1
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["closed_form_austere"] is False
        assert row["minimal_austere"] is True
        assert row["passed"] is False


class TestTables:
    def test_one_frame_per_row(self, capsys, monkeypatch):
        calls = spy(monkeypatch, orbits, "_principal_lifts")
        assert main(["tables", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == len(calls) == 12

    def test_all_types_pass(self, capsys):
        assert main(["tables"]) == 0
        assert _values(capsys.readouterr().out, "passed") == ["True"] * 12

    def test_csv(self, capsys):
        assert main(["tables", "--type", "II", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("action_type,")
        assert len(lines) == 4


def test_row_keys_and_csv_headers_are_fixed(capsys):
    assert main(["classify", "--type", "III", "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["rows"][0]) == [
        "action_type", "minimal_t", "minimal_s", "closed_form_minimal_t",
        "minimal_deviation", "minimal_austere", "closed_form_austere", "biharmonic_t",
        "biharmonic_s", "closed_form_biharmonic_t", "biharmonic_deviation",
        "singular_dims", "closed_form", "notes", "passed", "root_diagnostics",
    ]
    assert main(["classify", "--type", "III", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "action_type,minimal_t,minimal_s,closed_form_minimal_t,minimal_deviation,"
        "minimal_austere,closed_form_austere,biharmonic_t,closed_form_biharmonic_t,"
        "biharmonic_deviation,singular_dim_lo,singular_dim_hi,passed"
    )
    assert main(["tables", "--type", "II", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "action_type,t,s,max_deviation,passed"


@pytest.mark.parametrize(
    "argv", [["classify", "--type", "III"], ["tables", "--type", "II"], ["verify-algebra"]]
)
def test_csv_fields_equal_json_values(capsys, argv):
    assert main([*argv, "--format", "csv"]) == 0
    header, *records = csv.reader(io.StringIO(capsys.readouterr().out))
    assert all(len(record) == len(header) for record in records)
    table = [dict(zip(header, record)) for record in records]
    assert main([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(table) == len(rows) > 0
    for fields, row in zip(table, rows):
        dims = row.get("singular_dims", [None, None])
        row = dict(row, singular_dim_lo=dims[0], singular_dim_hi=dims[1])
        for key, text in fields.items():
            value = row[key]
            if isinstance(value, list):
                assert [float(x) for x in text.split(";")] == value, key
            elif isinstance(value, (bool, str)):
                assert text == str(value), key
            else:
                assert type(value)(text) == value, key


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
@pytest.mark.parametrize(
    "argv", [["orbit", "--type", "III", "--t", "1.0"], ["scan", "--type", "II"], ["tables"]]
)
def test_bad_cluster_tolerance_is_an_error(capsys, argv, value):
    assert main([*argv, f"--cluster-tol={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing_dir", "directory"])
def test_unwritable_output_is_an_error(capsys, tmp_path, target):
    path = tmp_path / target
    assert main(["orbit", "--type", "II", "--t", "0.5", "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
