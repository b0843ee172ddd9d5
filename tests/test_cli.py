import itertools
import json
import subprocess
import sys

import jsonschema
import pytest

from liecones.cli import REPORT_SCHEMA, main, rep_from_json, rep_to_json_full
from liecones.cliffrep import clifford_module


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def check_schema(doc):
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_validate_catalog(capsys):
    code, out = run_cli(["validate", "--catalog", "h(1)"], capsys)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["status"] == "OK"
    assert doc["results"]["jacobi_ok"] is True


def test_validate_algebra_file(tmp_path, capsys):
    from liecones.catalog import build
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(build("h(1)").algebra.to_json()))
    code, out = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["antisymmetry_ok"] is True


def test_input_errors_exit_1(capsys, tmp_path):
    code, out = run_cli(["validate", "--catalog", "e8"], capsys)
    assert code == 1
    doc = json.loads(out)
    check_schema(doc)
    assert doc["status"] == "ERROR"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(["validate", "--algebra", str(bad)], capsys)
    assert code == 1

    code, out = run_cli(["polarize", "--catalog", "h(1)", "--lambda", "1,2"], capsys)
    assert code == 1          # wrong functional length


def test_analyze(capsys):
    code, out = run_cli(["analyze", "--catalog", "sl(2,R)"], capsys)
    doc = json.loads(out)
    assert doc["results"]["nilpotent"] is False
    assert doc["results"]["centroid_dim"]["even"] == 1


def test_cartan_and_roots(capsys):
    code, out = run_cli(["cartan", "--catalog", "gl(1|1)"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["results"]["h0"]["dim"] == 2

    code, out = run_cli(["roots", "--catalog", "su(2)"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OK"
    alphas = sorted(r["alpha"][0] for r in doc["results"]["roots"])
    assert alphas == ["-2", "0", "2"]
    assert doc["results"]["symmetric"] is True

    # sl(2,R) is Hermitian: the scan finds the compact so(2) Cartan
    code, out = run_cli(["roots", "--catalog", "sl(2,R)"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OK"
    assert sorted(r["alpha"][0] for r in doc["results"]["roots"]) == ["-2", "0", "2"]

    # gl(1|1): the unique Cartan acts with real eigenvalues on the odd part
    code, out = run_cli(["roots", "--catalog", "gl(1|1)", "--cap", "100"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "UNDETERMINED"


def test_cone_check_and_star_reduced(capsys):
    code, out = run_cli(["cone-check", "--catalog", "cl(1|2,++)"], capsys)
    doc = json.loads(out)
    assert doc["results"]["pd_search"]["status"] == "POINTED_CERTIFIED"

    code, out = run_cli(["star-reduced", "--catalog", "cl(1|2,+-)"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OBSTRUCTED"
    assert doc["results"]["reasons"][0]["kind"] == "isotropic_odd"

    code, out = run_cli(["star-reduced", "--catalog", "su(1,1|1,1)",
                         "--cap", "400"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OBSTRUCTED"
    assert doc["results"]["reasons"][0]["kind"] == "root_square_hull"


def test_polarize_and_orbit_classify(capsys):
    code, out = run_cli(["polarize", "--catalog", "hc(2|2,++)",
                         "--lambda", "0,0,1"], capsys)
    doc = json.loads(out)
    assert doc["results"]["m0_dim"] == 2 and doc["results"]["clifford_dim"] == 2

    code, out = run_cli(["polarize", "--catalog", "cl(1|2,++)",
                         "--lambda", "-1"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "UNDETERMINED"

    code, out = run_cli(["orbit-classify", "--catalog", "hc(2|2,++)",
                         "--box", "central"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OK"
    assert doc["results"]["orbit_count"] == 3    # central characters 0, 1, 2


def test_orbit_box_file(tmp_path, capsys):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"functionals": [["0", "0", "1"], ["1", "1", "1"]]}))
    code, out = run_cli(["orbit-classify", "--catalog", "h(1)",
                         "--box", str(box)], capsys)
    doc = json.loads(out)
    assert doc["results"]["orbit_count"] == 1    # same orbit: lam(Z) = 1


def test_clifford_command(capsys):
    code, out = run_cli(["clifford", "--d", "3", "--normalization", "2,2,2"], capsys)
    doc = json.loads(out)
    assert doc["results"]["dimension"] == 4 and doc["results"]["verification"] is True

    code, out = run_cli(["clifford", "--catalog", "cl(1|2,++)", "--gamma", "1"], capsys)
    doc = json.loads(out)
    assert doc["results"]["classification"] == "OK"
    assert doc["results"]["module_count"] == 2

    code, out = run_cli(["clifford", "--catalog", "cl(1|2,+-)", "--gamma", "1"], capsys)
    doc = json.loads(out)
    assert doc["results"]["classification"] == "NONE"


def test_verify_rep_roundtrip(tmp_path, capsys):
    rep = clifford_module(2, [2, 2])
    doc = rep_to_json_full(rep)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    rep2 = rep_from_json(json.loads(path.read_text()))
    assert rep2.mats == rep.mats
    code, out = run_cli(["verify-rep", "--rep", str(path)], capsys)
    rdoc = json.loads(out)
    assert code == 0 and rdoc["results"]["all_ok"] is True


def test_hwm_command(capsys):
    code, out = run_cli(["hwm", "--catalog", "osp(1|2)", "--x0", "1",
                         "--depth", "4", "--weight", "0"], capsys)
    doc = json.loads(out)
    assert doc["status"] == "OK"
    weights = {w["weight"][0]: w["multiplicity"] for w in doc["results"]["weights"]}
    assert weights == {str(-m): 1 for m in range(9)}


def test_catalog_commands(capsys):
    code, out = run_cli(["catalog", "list"], capsys)
    doc = json.loads(out)
    assert "h(1)" in doc["results"]["keys"]
    code, out = run_cli(["catalog", "get", "gl(1|1)"], capsys)
    doc = json.loads(out)
    assert doc["results"]["algebra"]["even"] == 2
    code, out = run_cli(["catalog", "table1", "psq(p,q)"], capsys)
    doc = json.loads(out)
    assert doc["results"]["even_quotient"] == "su(p,q)"


def test_schema_flag(capsys):
    code, out = run_cli(["--schema"], capsys)
    assert code == 0
    schema = json.loads(out)
    assert schema["title"] == "liecones report"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(["validate", "--catalog", "h(1)", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_determinism_subprocess():
    cmds = [
        ["validate", "--catalog", "gl(1|1)"],
        ["star-reduced", "--catalog", "cl(1|2,+-)"],
        ["polarize", "--catalog", "h(1)", "--lambda", "0,0,1"],
        ["hwm", "--catalog", "osp(1|2)", "--x0", "1", "--depth", "3"],
    ]
    for cmd in cmds:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "liecones.cli"] + cmd,
                                  capture_output=True, text=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], cmd


def test_all_reports_validate_against_schema(capsys):
    cmds = [
        ["analyze", "--catalog", "cl(1|1,+)"],
        ["cartan", "--catalog", "h(1)"],
        ["cone-check", "--catalog", "cl(1|1,-)"],
        ["catalog", "list"],
    ]
    for cmd in cmds:
        code, out = run_cli(cmd, capsys)
        check_schema(json.loads(out))


def test_validate_reports_violations_exit_zero(tmp_path, capsys):
    # computed-but-failing verdicts still exit 0 (spec: exit 0 = computed)
    doc = {
        "name": "bad", "field": "Q", "even": 3, "odd": 0,
        "basis": ["X", "Y", "Z"],
        "brackets": [
            {"left": 0, "right": 1, "out": [{"k": 2, "c": "1"}]},
            {"left": 1, "right": 0, "out": [{"k": 2, "c": "1"}]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "OK"
    assert rep["results"]["antisymmetry_ok"] is False
    assert ["antisymmetry", 0, 1] in rep["results"]["violations"]


def test_bracket_output_index_out_of_range_exits_1(tmp_path, capsys):
    doc = {"name": "bad", "field": "Q", "even": 2, "odd": 0,
           "brackets": [{"left": 0, "right": 1, "out": [{"k": 7, "c": "1"}]}]}
    path = tmp_path / "bad_out.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "ERROR" and "out of range" in rep["results"]["error"]


def test_optimized_python_prints_same_bytes():
    """Witness re-checks are explicit code, so python -O changes no output."""
    for cmd in (["star-reduced", "--catalog", "sq(1,1)", "--cap", "400"],
                ["clifford", "--catalog", "cl(1|3,+++)", "--gamma", "1"]):
        outs = [subprocess.run([sys.executable, *flags, "-m", "liecones.cli", *cmd],
                               capture_output=True, text=True, check=True).stdout
                for flags in ([], ["-O"])]
        assert outs[0] == outs[1], cmd


def test_cartan_rejects_even_bracket_leaving_even_part(tmp_path, capsys):
    # [X, Y] = f with f odd violates parity, so no verdict
    doc = {"name": "par", "field": "Q", "even": 2, "odd": 1, "basis": ["X", "Y", "f"],
           "brackets": [{"left": 0, "right": 1, "out": [{"k": 2, "c": "1"}]}]}
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["cartan", "--algebra", str(path)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "ERROR" and '["parity", 0, 1, 2]' in rep["results"]["error"]


# [f, f] = f with f odd: parity fails in a bracket of odd arguments
PARITY_DOC = {"name": "par", "field": "Q", "even": 1, "odd": 1, "basis": ["X", "f"],
              "brackets": [{"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]}]}
PARITY_VIOLATIONS = [["parity", 1, 1, 1], ["jacobi", 1, 1, 1]]
# [X, Y] = X, [Y, Z] = Y, [X, Z] = Z: antisymmetric, Jacobi fails
JACOBI_DOC = {"name": "jac", "field": "Q", "even": 3, "odd": 0, "basis": ["X", "Y", "Z"],
              "brackets": [{"left": 0, "right": 1, "out": [{"k": 0, "c": "1"}]},
                           {"left": 1, "right": 2, "out": [{"k": 1, "c": "1"}]},
                           {"left": 0, "right": 2, "out": [{"k": 2, "c": "1"}]}]}
JACOBI_VIOLATIONS = [["jacobi", *p] for p in itertools.permutations(range(3))]


@pytest.mark.parametrize("doc, violations, command", [
    (PARITY_DOC, PARITY_VIOLATIONS, "cartan"),          # exit 2 (NotCartan) before
    (JACOBI_DOC, JACOBI_VIOLATIONS, "star-reduced"),    # exit 0 with CONE_OK before
])
def test_invalid_algebra_file_gets_no_verdict(tmp_path, capsys, doc, violations, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli([command, "--algebra", str(path)], capsys)
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "ERROR"
    assert rep["results"] == {"error": "algebra file violates the axioms: "
                                       + json.dumps(violations)}
    code, out = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 0 and json.loads(out)["results"]["violations"] == violations


def test_sympy_loaded_only_by_factoring():
    """sympy is imported on the first polynomial factorisation, not before."""
    script = (
        "import contextlib, io, sys\n"
        "import liecones.cli\n"
        "seen = ['sympy' in sys.modules]\n"
        "for cmd in (['catalog', 'list'], ['validate', '--catalog', 'h(1)'],\n"
        "            ['analyze', '--catalog', 'gl(1|1)'], ['cartan', '--catalog', 'sl(2,R)'],\n"
        "            ['orbit-classify', '--catalog', 'h(1)'],\n"
        "            ['clifford', '--d', '2', '--normalization', '1,1'],\n"
        "            ['roots', '--catalog', 'osp(1|2)']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        liecones.cli.main(cmd)\n"
        "    seen.append('sympy' in sys.modules)\n"
        "print(seen)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == str([False] * 7 + [True])


def _rep_doc(drop_operator=False, algebra_bracket=None, operator_entry=None):
    doc = rep_to_json_full(clifford_module(2, [2, 2]))
    if drop_operator:
        doc["operators"] = doc["operators"][:-1]
    if algebra_bracket:
        doc["algebra"]["brackets"].append(algebra_bracket)
    if operator_entry is not None:
        doc["operators"][0][0][0] = operator_entry
    return doc


MALFORMED_FILES = {
    "box_low.json": {"type": "grid", "low": "a"},
    "box_rows.json": {"functionals": [1, 2]},
    "alg_brackets.json": {"field": "Q", "even": 1, "odd": 0, "brackets": [1]},
    "alg_list.json": [1, 2],
    "alg_field.json": {"field": 3, "even": 1, "odd": 1},
    "alg_even.json": {"field": "Q", "even": 1.5, "odd": 0},
    "alg_basis.json": {"field": "Q", "even": 2, "odd": 0, "basis": "ab"},
    "alg_tag.json": {"field": "Q_sqrt(" + "9" * 5000 + ")", "even": 1, "odd": 0},
    "rep_missing.json": _rep_doc(drop_operator=True),
    "rep_antisym.json": _rep_doc(algebra_bracket={"left": 0, "right": 0,
                                                  "out": [{"k": 0, "c": "1"}]}),
    "rep_entry.json": _rep_doc(operator_entry=1),
}


MALFORMED_RUNS = [
    (["hwm", "--catalog", "osp(1|2)", "--x0", "1", "--depth", "-1"], "depth must be >= 0"),
    (["hwm", "--catalog", "osp(1|2)", "--x0", "1", "--depth", "1", "--dim-v", "-3"],
     "module dimension must be >= 1"),
    (["clifford", "--d", "3", "--normalization", "1,x,1"], "bad scalar term 'x'"),
    (["clifford", "--d", "2", "--normalization", "1,i"], "no imaginary component"),
    (["verify-rep", "--rep", "rep_missing.json"], "one operator per algebra basis element"),
    (["verify-rep", "--rep", "rep_antisym.json"], "algebra file violates the axioms: "),
    (["verify-rep", "--rep", "rep_entry.json"], "array of rows of scalar strings"),
    (["orbit-classify", "--catalog", "h(1)", "--box", "box_low.json"],
     "'low' must be an integer"),
    (["orbit-classify", "--catalog", "h(1)", "--box", "box_rows.json"],
     "array of coordinate arrays"),
    (["validate", "--algebra", "alg_brackets.json"], "expected an object with 'left'"),
    (["validate", "--algebra", "alg_list.json"], "expected an object with 'field'"),
    (["validate", "--algebra", "alg_field.json"], "'field' must be a string"),
    (["validate", "--algebra", "alg_even.json"], "'even' must be an integer"),
    (["validate", "--algebra", "alg_basis.json"], "'basis' must be an array"),
    (["validate", "--algebra", "alg_tag.json"], "bad field tag"),
]


@pytest.mark.parametrize("argv, error", MALFORMED_RUNS,
                         ids=[" ".join(argv) for argv, _ in MALFORMED_RUNS])
def test_malformed_input_exits_1_without_verdict(tmp_path, capsys, argv, error):
    for name, doc in MALFORMED_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in MALFORMED_FILES else a for a in argv]
    code, out = run_cli(argv, capsys)
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "ERROR"
    assert list(rep["results"]) == ["error"] and error in rep["results"]["error"]


def test_field_tag_above_the_tower_bound_exits_1(tmp_path, capsys):
    """A 30-digit d is rejected before any squarefree trial division."""
    path = tmp_path / "bigd.json"
    path.write_text(json.dumps({"field": "Q_sqrt(100000000000000000000000000057)",
                                "even": 1, "odd": 0}))
    code, out = run_cli(["validate", "--algebra", str(path)], capsys)
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "ERROR"
    assert "tower bound" in rep["results"]["error"]
