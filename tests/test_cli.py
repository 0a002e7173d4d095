import cmath
import json
import subprocess
import sys
from pathlib import Path

import pytest

from folres.cli import main
from folres.parsing import format_field, parse_field
from folres.errors import ParseError

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def load_golden(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


EXACT_CASES = {
    "classify_z_example": ["classify", "[x^2, x*z, y - x*z]"],
    "classify_radial": ["classify", "[x, y, z]"],
    "classify_squares": ["classify", "[x^2, y^2, z^2]"],
    "blowup_xlambda_curve_chart_y": [
        "blowup", "[y - z, x*z, z^3]", "--center", "curve", "--chart", "y",
    ],
    "blowup_radial_point_chart_z": [
        "blowup", "[x, y, z]", "--center", "point", "--chart", "z",
    ],
    "resolve_xlambda": ["resolve", "[y - z, x*z, z^3]"],
    "resolve_family_01": ["resolve", "[y - x*z, x*z, z^2]"],
    "resolve_family_00": ["resolve", "[y, x*z, z^2]"],
    "resolve_linear_elementary": ["resolve", "[x, 2y, 3z]", "--separatrix", "axis"],
    "resolve_divisor_k1": ["resolve", "[y*z, x*z^2, z^3]"],
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_golden_exact(name, capsys):
    code, out = run_cli(EXACT_CASES[name], capsys)
    assert code == 0
    assert json.loads(out) == load_golden(name)


def test_headline_fields_of_goldens():
    assert load_golden("classify_z_example")["class"] == "nilpotent_nonzero"
    assert load_golden("classify_radial")["class"] == "elementary"
    assert load_golden("classify_squares")["class"] == "zero_linear_part"

    blow = load_golden("blowup_xlambda_curve_chart_y")
    assert blow["components"] == ["-z + y*z", "x - y*z^2", "z^3"]
    assert blow["divisor_exponent"] == 0
    assert blow["new_class"] == "nilpotent_nonzero"

    radial = load_golden("blowup_radial_point_chart_z")
    assert radial["dicritical"] is True
    assert radial["divisor_exponent"] == 1

    xl = load_golden("resolve_xlambda")
    assert xl["outcome"] == "persistent_normal_form_matched"
    assert xl["report"]["n"] == 3
    assert xl["verdict"] == "not_semicomplete"

    fam01 = load_golden("resolve_family_01")
    assert fam01["report"]["n"] == 2 and fam01["report"]["k"] == 0
    assert fam01["verdict"] == "semicomplete_by_holonomy"
    assert fam01["holonomy"] == {"alpha": "0", "beta": "1", "is_identity": True}

    fam00 = load_golden("resolve_family_00")
    assert fam00["verdict"] == "not_semicomplete_by_holonomy"

    lin = load_golden("resolve_linear_elementary")
    assert lin["outcome"] == "reached_elementary"
    assert len(lin["steps"]) == 1

    k1 = load_golden("resolve_divisor_k1")
    assert k1["report"]["k"] == 1 and k1["report"]["n"] == 2
    assert k1["verdict"] == "not_semicomplete"


def test_holonomy_golden(capsys):
    code, out = run_cli(["holonomy", "--alpha", "0", "--beta", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    gold = load_golden("holonomy_01")
    assert doc["is_identity"] is True
    assert doc["alpha"] == gold["alpha"] and doc["beta"] == gold["beta"]
    for row, grow in zip(doc["matrix"], gold["matrix"]):
        for entry, gentry in zip(row, grow):
            assert complex(*entry) == pytest.approx(complex(*gentry), abs=1e-12)


def test_timeform_golden(capsys):
    code, out = run_cli(
        ["timeform", "--exponent", "3", "--turns", "1/2", "--x0-re", "0.1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["abs"] < 1e-10
    assert doc["rho"] == "x^3" and doc["turns"] == "1/2"


def test_timeform_residue(capsys):
    code, out = run_cli(
        ["timeform", "--exponent", "1", "--turns", "1", "--x0-re", "0.5"], capsys
    )
    doc = json.loads(out)
    assert complex(*doc["integral"]) == pytest.approx(2j * cmath.pi, abs=1e-10)


def test_byte_stability(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(["resolve", "[y - z, x*z, z^3]"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_weight2_error_exit_code(capsys):
    code, out = run_cli(["blowup", "[x, y, z]", "--weight", "2"], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "NotInNormalForm"


def test_parse_error_exit_code(capsys):
    code, out = run_cli(["classify", "[x, y"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "parse"
    assert isinstance(doc["position"], int)


def test_parse_error_position_annotated():
    with pytest.raises(ParseError) as info:
        parse_field("[x, y, z] junk", 8)
    assert info.value.position == 10


def test_parse_print_parse_idempotent():
    for text in ("[x^2, x*z, y - x*z]", "[y - z, x*z, z^3]", "[1/2*x + i*y, -z, x*y*z]"):
        f1 = parse_field(text, 12)
        printed = format_field(f1)
        f2 = parse_field(printed, 12)
        assert format_field(f2) == printed
        assert f1.eq_trusted(f2)


def test_juxtaposition_and_fractions():
    f = parse_field("[2y, 1/2*z, -3x]", 8)
    assert f.fx.coeff((0, 1, 0)).re == 2
    assert str(f.fy.coeff((0, 0, 1))) == "1/2"
    assert f.fz.coeff((1, 0, 0)).re == -3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(["classify", "[x, y, z]", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["class"] == "elementary"


def test_console_entry_point_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "folres.cli", "classify", "[x, y, z]"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["class"] == "elementary"


def test_resolve_separatrix_file(tmp_path, capsys):
    curve = {"x_of_z": ["0", "0"], "y_of_z": ["0", "0"]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, out = run_cli(
        [
            "resolve", "[y, x*z, z^3]",
            "--separatrix", "file",
            "--separatrix-file", str(path),
            "--max-steps", "2",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "persistent_normal_form_matched"


def test_resolve_separatrix_file_round_trip(tmp_path, capsys):
    # the separatrix x = (1/2+i) z^2, y = -2i z^2 is printed in the scalar
    # grammar of reports, and a report's prefix must load back in
    field = "[y + 2*i*z^2 + (1+2*i)*z^4, x*z - (1/2+i)*z^3 - 4*i*z^4, z^3]"
    code, out = run_cli(["resolve", field, "--trunc", "12"], capsys)
    assert code == 0
    solved = json.loads(out)
    prefix = solved["report"]["separatrix_prefix"]
    assert prefix["x_of_z"][2] == "1/2+i"
    assert prefix["y_of_z"][2] == "-2*i"
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(prefix))
    code, out = run_cli(
        ["resolve", field, "--trunc", "12", "--separatrix", "file", "--separatrix-file", str(path)],
        capsys,
    )
    assert code == 0
    loaded = json.loads(out)
    assert loaded["separatrix"] == "file"
    assert loaded["report"] == solved["report"]


@pytest.mark.parametrize(
    "coeffs",
    [["0", "1/0"], ["0", "x"], ["0", "1.5"], ["0", None], []],
    ids=["zero-division", "variable", "decimal", "null", "empty"],
)
def test_malformed_separatrix_file_exit_code(tmp_path, capsys, coeffs):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"x_of_z": coeffs, "y_of_z": coeffs}))
    code, out = run_cli(
        ["resolve", "[y, x*z, z^3]", "--separatrix", "file", "--separatrix-file", str(path)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["message"].startswith("cannot load the separatrix file")


def test_negative_trunc_exit_code(capsys):
    code, out = run_cli(["classify", "[x, y, z]", "--trunc", "-1"], capsys)
    assert code == 3
    assert "--trunc" in json.loads(out)["message"]


def test_negative_max_steps_exit_code(capsys):
    code, out = run_cli(["resolve", "[y - z, x*z, z^3]", "--max-steps", "-1"], capsys)
    assert code == 3
    assert "--max-steps" in json.loads(out)["message"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["holonomy", "--alpha", "abc", "--beta", "1"], "--alpha"),
        (["holonomy", "--alpha", "1", "--beta", "1/0"], "--beta"),
        (["timeform", "--turns", "x"], "--turns"),
        (["holonomy", "--alpha", "1e400", "--beta", "1"], "--alpha"),
        (["holonomy", "--alpha", "1", "--beta=-1e400"], "--beta"),
    ],
)
def test_bad_rational_flag_exit_code(args, flag, capsys):
    code, out = run_cli(args, capsys)
    assert code == 3
    assert flag in json.loads(out)["message"]


def test_curve_chart_must_be_transverse(capsys):
    code, out = run_cli(
        ["blowup", "[y - z, x*z, z^3]", "--center", "curve", "--chart", "x"], capsys
    )
    assert code == 2
    assert json.loads(out)["error"] == "parse"


def test_timeform_rho_must_be_univariate(capsys):
    code, out = run_cli(["timeform", "--rho", "x^2 + y"], capsys)
    assert code == 2


def test_resolve_requires_adapted_coordinates(capsys):
    # the graph solver parameterizes over z; a field whose distinguished
    # axis is not the z-axis is refused rather than guessed at
    code, out = run_cli(["resolve", "[x^2, x*z, y - x*z]"], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "NotGraphParameterizable"


def test_precision_exhausted_exit_code(capsys):
    code, out = run_cli(
        ["resolve", "[y - z, x*z, z^3]", "--trunc", "5", "--max-steps", "10"], capsys
    )
    assert code == 4
    assert json.loads(out)["error"] == "precision_exhausted"
