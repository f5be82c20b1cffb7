"""End-to-end tests of the command line interface."""

import json

import pytest

from msindex import errors, moduli
from msindex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", "--family", "H", "--a", "0.5")
    assert code == 0
    assert "family H  a 0.5" in out
    assert "eigenvalues of the key matrix" in out
    assert "(p, q)" in out or "p" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "tD", "--a", "-14", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["family"] == "tD"
    assert rec["a"] == -14.0
    assert rec["canonical_family"] == "tP"
    assert rec["canonical_a"] == 14.0
    assert len(rec["eig_w"]) == 9
    assert len(rec["eig_wdiff"]) == 18
    assert rec["p"] + rec["q"] + rec["nullity_E"] == 9
    assert rec["diagnostics"]["tau_asymmetry"] <= 1e-12
    # measured from W, which is Hermitian by construction
    assert rec["diagnostics"]["w_hermitian_defect"] == 0.0
    # emitted with sorted keys, so a sorted re-encoding is byte equal
    assert out.strip() == json.dumps(rec, indent=2, sort_keys=True)


def test_analyze_json_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", "--family", "rPD", "--a", "0.7", "--json")
    _, second, _ = run(capsys, "analyze", "--family", "rPD", "--a", "0.7", "--json")
    assert first == second


def test_analyze_csv_shape(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "tP", "--a", "14", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert len(header) == len(row)
    assert "eig_w_1" in header and "eig_wdiff_18" in header
    # repr round trip: parsing a cell reproduces the float exactly
    a_col = header.index("a")
    assert float(row[a_col]) == 14.0


def test_analyze_json_csv_exclusive(capsys):
    code, _, err = run(capsys, "analyze", "--family", "H", "--a", "0.5",
                       "--json", "--csv")
    assert code == 1
    assert "usage error" in err


def test_analyze_domain_error(capsys):
    code, _, err = run(capsys, "analyze", "--family", "H", "--a", "1.5")
    assert code == 2
    assert "domain error" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--family", "gyroid", "--a", "0.5")
    assert code == 1


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_verify_h(capsys):
    code, out, _ = run(capsys, "verify", "--family", "H", "--a", "0.5")
    assert code == 0
    assert out.count("H-identity-") == 2
    assert "pass" in out


def test_verify_rejects_other_families(capsys):
    code, _, _ = run(capsys, "verify", "--family", "tP", "--a", "14")
    assert code == 1


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, err = run(capsys, "sweep", "--family", "H",
                         "--min", "0.4", "--max", "0.45", "--steps", "16",
                         "--out", str(target))
    assert code == 0
    assert "no transitions" in out
    raw = target.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.startswith("a,det_w,min_abs_eig_w,p,q,nullity_E,index_E\n")
    assert "transitions" in text


def test_sweep_stdout_split(capsys):
    code, out, err = run(capsys, "sweep", "--family", "H",
                         "--min", "0.4", "--max", "0.45", "--steps", "16")
    assert code == 0
    assert out.startswith("a,det_w")
    assert "interval" in err


def test_sweep_unwritable_target(capsys):
    code, _, err = run(capsys, "sweep", "--family", "H",
                       "--min", "0.4", "--max", "0.45", "--steps", "16",
                       "--out", "/nonexistent-dir/scan.csv")
    assert code == 4
    assert "i/o error" in err or "No such file" in err


def test_sweep_rejects_infinite_refine_tol(capsys):
    code, _, err = run(capsys, "sweep", "--family", "rPD",
                       "--min", "0.45", "--max", "0.55", "--steps", "16",
                       "--refine-tol", "inf")
    assert code == 2
    assert "refine_tol" in err


def test_quad_tol_flag_is_recorded(capsys):
    _, out, _ = run(capsys, "analyze", "--family", "H", "--a", "0.5",
                    "--json", "--quad-tol", "1e-10")
    assert json.loads(out)["tolerances"]["quad_rel_tol"] == 1e-10


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_quad_tol_flag_must_be_positive(capsys, tol):
    code, _, err = run(capsys, "analyze", "--family", "H", "--a", "0.5",
                       "--quad-tol", tol)
    assert code == 1
    assert "usage error" in err


def _error_classes():
    return sorted((c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.MsindexError)),
                  key=lambda c: c.__name__)


@pytest.mark.parametrize("exc", _error_classes(), ids=lambda c: c.__name__)
def test_package_errors_map_to_exit_codes(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(moduli, "analyze", fail)
    code, _, err = run(capsys, "analyze", "--family", "H", "--a", "0.5")
    if issubclass(exc, errors.UsageError):
        assert (code, err) == (1, "usage error: injected\n")
    elif issubclass(exc, errors.DomainError):
        assert (code, err) == (2, "domain error: injected\n")
    else:
        assert (code, err) == (3, "numerical failure: injected\n")


def test_reproduce_single_family(capsys):
    code, out, _ = run(capsys, "reproduce", "--family", "tCLP", "--steps", "16")
    assert code == 0
    assert "[tCLP] PASS" in out


def test_reproduce_requires_scope(capsys):
    code, _, _ = run(capsys, "reproduce")
    assert code == 1
