import json

from qcolour.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_classical_text(capsys):
    code, out = run(capsys, "solve", "--psi", "classical", "--degree", "-1")
    assert code == 0
    assert "M_0 = 1*u + O(h^6)" in out
    assert "M_1 = 1 + O(h^6)" in out
    assert "PASS solve" in out


def test_solve_reports_no_solution(capsys):
    code, out = run(capsys, "solve", "--psi", "perturbed-verma",
                    "--degree", "-1")
    assert code == 1
    assert "no solution" in out


def test_solve_two_colourings(capsys):
    code, out = run(capsys, "solve", "--psi", "quantum",
                    "--psi2", "classical", "--degree", "0")
    assert code == 0
    assert "M_1 = 1" in out          # leading trivialisation entry


def test_axioms_four_pass_lines(capsys):
    code, out = run(capsys, "axioms", "--psi", "quantum", "--order", "6")
    assert code == 0
    assert out.count("PASS") == 4
    for nm in ("deformation", "regularity", "quotient", "verma"):
        assert f"axiom-{nm}" in out


def test_axioms_failure_exit(capsys):
    code, out = run(capsys, "axioms", "--psi", "perturbed-verma")
    assert code == 1
    assert "FAIL axiom-verma" in out


def test_expand(capsys):
    code, out = run(capsys, "expand", "--psi", "classical", "--depth", "2")
    assert code == 0
    assert "minus.0 = 1*v" in out


def test_rep(capsys):
    code, out = run(capsys, "rep", "--psi", "quantum", "--n", "2")
    assert code == 0
    assert "PASS ladder-relations" in out


def test_char_csv_rows(capsys):
    code, out = run(capsys, "char", "--datum", "B2", "--weight", "1,0")
    assert code == 0
    assert "1,0,1" in out and "dim=5" in out


def test_dual_char(capsys):
    code, out = run(capsys, "dual-char", "--datum", "B2", "--weight", "2,0")
    assert code == 0
    assert "L(2,0) x 1" in out
    assert "PASS dual-contains-irreducible" in out


def test_liq_json_schema(capsys):
    code, out = run(capsys, "liq", "--g", "2", "--n", "4",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qcolour-report/1"
    assert doc["ok"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "power-commutation" in names and "dual-decomposition" in names
    assert doc["seed"] == 7021


def test_rootcombi(capsys):
    code, out = run(capsys, "rootcombi", "--max-rank", "2")
    assert code == 0
    assert "G2-unique-dominant" in out and "FAIL" not in out


def test_config_error_exit_code(capsys):
    code = main(["axioms", "--psi", "no-such-colouring"])
    assert code == 2


def test_inconclusive_search_exit_code(capsys):
    code = main(["solve", "--psi", "quantum", "--degree", "-1",
                 "--pmax", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("inconclusive: ") and "p_max = 2" in err
    assert "Traceback" not in err


def test_usage_error_exit_code():
    assert main(["solve", "--psi", "classical"]) == 2   # missing --degree


def test_byte_identical_reruns(capsys):
    _, first = run(capsys, "liq", "--g", "3", "--n", "3", "--format", "json")
    _, second = run(capsys, "liq", "--g", "3", "--n", "3", "--format", "json")
    assert first == second
    _, a = run(capsys, "char", "--datum", "G2", "--weight", "1,0")
    _, b = run(capsys, "char", "--datum", "G2", "--weight", "1,0")
    assert a == b


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "rootcombi", "--max-rank", "2",
                    "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["ok"] is True


def test_colouring_file_uses_its_own_order(tmp_path, capsys):
    cfg = tmp_path / "col.cfg"
    cfg.write_text("variant = polyseries\norder = 3\nminus.0 = v\n"
                   "minus.1 = v*u\nplus.0 = v\nplus.1 = v*u\n")
    code, out = run(capsys, "axioms", "--psi", f"@{cfg}")
    assert code == 1                     # fails verma, but cleanly
    assert "FAIL axiom-verma" in out
    code, out = run(capsys, "solve", "--psi", f"@{cfg}", "--degree", "-1")
    assert code == 1 and "no solution" in out


def test_datum_file(tmp_path, capsys):
    cfg = tmp_path / "b2.cfg"
    cfg.write_text("name = myB2\nmatrix = 2 -1 ; -2 2\nd = 2 1\n")
    code, out = run(capsys, "char", "--datum", f"@{cfg}", "--weight", "0,1")
    assert code == 0 and "dim=4" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = x\nmatrix = 2 -1 ; -2 2\nd = 1 1\n")
    assert main(["char", "--datum", f"@{bad}", "--weight", "0,1"]) == 2
