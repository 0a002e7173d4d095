import cmath
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from folres import MSeries, VectorField
from folres.cli import main
from folres.parsing import format_field, parse_field
from folres.errors import ParseError
from folres.scalars import GaussianRational

from conftest import rand_normal_form

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
    "blowup_weight2_divisor_k1": ["blowup", "[y*z, x*z^2, z^3]", "--weight", "2"],
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


def test_holonomy_near_equal_parameters(capsys):
    # beta - alpha = 1e-22 rounds to float(beta) == float(alpha): the matrix
    # is the unipotent limit, and is_identity stays exact
    beta = "10000000000000000000001/10000000000000000000000"
    code, out = run_cli(["holonomy", "--alpha", "1", "--beta", beta], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_identity"] is False and doc["beta"] == beta
    assert complex(*doc["matrix"][0][1]) == pytest.approx(2j * cmath.pi, abs=1e-12)


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


def test_unknown_flag_exit_code(capsys):
    # output is compact JSON unless --pretty; there is no --json flag
    with pytest.raises(SystemExit) as exc:
        main(["classify", "[x, y, z]", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


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


def test_unwritable_out_file_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli(["classify", "[x, y, z]", "--out", str(target)], capsys)
    assert code == 3
    error = json.loads(out)
    assert error["error"] == "output"
    assert "--out" in error["message"] and str(target) in error["message"]
    assert not target.exists()


def test_console_entry_point_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "folres.cli", "classify", "[x, y, z]"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["class"] == "elementary"


def _resolve_file_curve(tmp_path, capsys, coeffs, max_steps):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"x_of_z": ["0"] * coeffs, "y_of_z": ["0"] * coeffs}))
    code, out = run_cli(
        [
            "resolve", "[y, x*z, z^3]",
            "--separatrix", "file",
            "--separatrix-file", str(path),
            "--max-steps", str(max_steps),
        ],
        capsys,
    )
    return code, json.loads(out)


def test_resolve_separatrix_file(tmp_path, capsys):
    # the z-axis through the run's target (24 coefficients at trunc 24)
    code, out = _resolve_file_curve(tmp_path, capsys, 24, 2)
    assert code == 0
    assert out["outcome"] == "persistent_normal_form_matched"
    assert [(s["mult"], s["matched"]) for s in out["steps"]] == [(3, True)]


def test_resolve_short_separatrix_file_is_reported_not_extended(tmp_path, capsys):
    # a file shorter than the step's target is certified as it stands: the
    # driver does not solve a longer separatrix in its place
    code, out = _resolve_file_curve(tmp_path, capsys, 2, 0)
    assert code == 0
    assert out["outcome"] == "max_steps_exhausted"
    assert [(s["mult"], s["matched"], s["no_match_reason"]) for s in out["steps"]] == [
        (None, False, "carried curve is known through degree 1, the match needs 20")
    ]
    assert out["report"] is None
    code, out = _resolve_file_curve(tmp_path, capsys, 2, 2)
    assert code == 4
    assert out["message"] == "blow-up step 1: curve ledger needs 2, has 1"
    # one coefficient is a graph over z too: at ledger 0, T reads 0
    code, out = _resolve_file_curve(tmp_path, capsys, 1, 0)
    assert code == 0
    assert out["steps"][0]["no_match_reason"] == (
        "carried curve is known through degree 0, the match needs 20"
    )


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


DIVISOR_FIELD = "[y*z - z^2, x*z^2, z^4]"


@pytest.mark.parametrize(
    "flip, code, message",
    [
        (20, 3, "separatrix residual vanishes only through degree 19"),
        (21, 3, "separatrix residual vanishes only through degree 20"),
        (22, 0, None),
    ],
)
def test_resolve_checks_the_residual_of_the_representative(tmp_path, capsys, flip, code, message):
    # the field is z rep, and the check reads the residual of rep along the
    # file's curve: rep's solved separatrix (ledger 22) with y_of_z[flip]
    # moved by 1.  That residual is known through degree 21, so a flip at 21
    # shows at its degree 20; the residual of z rep cut to the curve's ledger
    # misses it.  The degree printed is counted in rep
    from folres.errors import FolresError
    from folres.resolve import resolve_along
    from folres.separatrix import FormalCurve, solve_graph_separatrix
    from folres.series import USeries
    from folres.vfield import factor_divisor

    field = parse_field(DIVISOR_FIELD, 24)
    k, rep = factor_divisor(field, "z")
    solved = solve_graph_separatrix(rep, rep.trunc - 1)
    assert (k, solved.ledger) == (1, 22)
    y_of_z = list(solved.phi2.coeffs)
    y_of_z[flip] += GaussianRational(1)
    curve = FormalCurve.graph(solved.phi1, USeries(y_of_z, 22))
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps({"x_of_z": [str(c) for c in curve.phi1.coeffs], "y_of_z": [str(c) for c in y_of_z]})
    )
    argv = ["resolve", DIVISOR_FIELD, "--separatrix", "file", "--separatrix-file", str(path)]
    found, out = run_cli(argv, capsys)
    assert found == code
    if message is None:
        assert json.loads(out)["outcome"] == "persistent_normal_form_matched"
        return
    assert json.loads(out) == {"error": "FolresError", "message": message}
    with pytest.raises(FolresError) as exc:
        resolve_along(field, curve, 3)
    assert str(exc.value) == message


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


@pytest.mark.parametrize(
    "x_of_z, y_of_z, message",
    [
        ([], ["0", "0"], "x_of_z is empty"),
        (["0", "0"], [], "y_of_z is empty"),
        (["0", "0", "0"], ["0", "0"], "x_of_z has 3 coefficients and y_of_z has 2"),
    ],
    ids=["empty-x", "empty-y", "unequal"],
)
def test_separatrix_file_list_lengths_exit_code(tmp_path, capsys, x_of_z, y_of_z, message):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"x_of_z": x_of_z, "y_of_z": y_of_z}))
    code, out = run_cli(
        ["resolve", "[y, x*z, z^3]", "--separatrix", "file", "--separatrix-file", str(path)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["message"] == f"cannot load the separatrix file: {message}"


@pytest.mark.parametrize(
    "x_of_z", ["00", {"0": "0", "1": "0"}, 0], ids=["string", "object", "number"]
)
def test_separatrix_file_that_is_not_a_list_exit_code(tmp_path, capsys, x_of_z):
    # a string or an object would otherwise be read character by character
    # or key by key: "00" would load as the curve (0, 0)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"x_of_z": x_of_z, "y_of_z": ["0", "0"]}))
    code, out = run_cli(
        ["resolve", "[y, x*z, z^3]", "--separatrix", "file", "--separatrix-file", str(path)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["message"] == "cannot load the separatrix file: x_of_z is not a list"


def test_resolve_deep_power_fills_its_rows_without_recursion(capsys):
    # x^990 and its x-partial read a chain of 990 rows of x(z)^f; the
    # composer fills it in a loop, so the stack depth does not grow with it
    code, out = run_cli(
        ["resolve", "[y + x^990, x*z, z^3]", "--trunc", "1000", "--max-steps", "0"], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "resolve",
        "field": ["y + x^990", "x*z", "z^3"],
        "trunc": 1000,
        "separatrix": "solve",
        "outcome": "max_steps_exhausted",
        "steps": [
            {
                "chart": None,
                "class": "nilpotent_nonzero",
                "mult": 3,
                "divisor_exponent": 0,
                "tangency": 1000,
                "matched": False,
                "no_match_reason": "first component is not y + z*(series)",
            }
        ],
        "report": None,
        "verdict": None,
    }


@pytest.mark.parametrize(
    "field, separatrix",
    [("[z, 0, 0]", "axis"), ("[y - z, x*z, z^3]", "file")],
    ids=["x-component-along-axis", "zero-file-curve"],
)
def test_resolve_rejects_a_curve_that_is_not_invariant(tmp_path, capsys, field, separatrix):
    # on the z-axis phi1' = phi2' = 0, so only the minors through phi3'
    # see X1 o phi; both fields have X1 o phi = T
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"x_of_z": ["0", "0", "0"], "y_of_z": ["0", "0", "0"]}))
    code, out = run_cli(
        ["resolve", field, "--trunc", "8", "--separatrix", separatrix, "--separatrix-file", str(path)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["message"].startswith("separatrix residual vanishes only")


@pytest.mark.parametrize(
    "argv, steps, compositions",
    [
        (["resolve", "[y - z, x*z, z^3]", "--trunc", "24"], 3, 0),
        (EXACT_CASES["resolve_divisor_k1"], 1, 0),
        (["resolve", "[y, x*z, z^3]", "--separatrix", "axis", "--no-match-stop",
          "--max-steps", "3"], 4, 3),
    ],
    ids=["xlambda-three-steps", "divisor-k1-one-step", "axis-four-steps"],
)
def test_resolve_composes_each_step_image_once(argv, steps, compositions, capsys, monkeypatch):
    # the residual check and the driver's first step share one image, and
    # each later step carries it through its blow-up.  The driver reads the
    # image of the separatrix it solves from the solver, so the run
    # composes nothing; any other curve is composed once per field
    # component, however many steps
    import folres.separatrix as sx

    original = sx.compose_curve
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sx, "compose_curve", counted)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert len(json.loads(out)["steps"]) == steps
    assert len(calls) == compositions


def test_resolve_factors_the_input_field_once(capsys, monkeypatch):
    # the solved curve, the residual check and the first step read one
    # factor-divisor representative of the input field.  Every z^k factoring
    # is counted: the input's, and none at the two later steps, whose
    # blow-up has already divided its field by the divisor (that chart
    # division, a different field, is not counted)
    import folres.resolve
    import folres.vfield

    original = folres.vfield.factor_divisor
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (folres.resolve, folres.vfield):
        monkeypatch.setattr(module, "factor_divisor", counted)
    code, out = run_cli(["resolve", "[y - z, x*z, z^3]"], capsys)
    assert code == 0
    assert len(json.loads(out)["steps"]) == 3
    assert len(calls) == 1


def test_resolve_solves_one_separatrix_per_run(capsys, monkeypatch):
    # --separatrix solve solves the input's separatrix once; every step of
    # the driver certifies the curve it carries, the tangency-1 one included
    import folres.resolve
    import folres.separatrix

    original = folres.separatrix.solve_graph_separatrix
    calls = []

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    for module in (folres.resolve, folres.separatrix):
        monkeypatch.setattr(module, "solve_graph_separatrix", counted)
    code, out = run_cli(["resolve", "[y - z, x*z, z^3]"], capsys)
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [(s["tangency"], s["matched"]) for s in steps] == [(1, False), (1, False), (2, True)]
    assert calls == [23]


TRANSPORT_FALLBACK_FIELD = (
    "[-i*y*z^2 + (1+i)*y^2 - i*y^2*z, 2*x*y + 2*x^3 + (1+i)*x*y*z, -2*y^3 - 2*z^3 + x*z]"
)


def _record_transports(monkeypatch) -> list:
    """Log "ok" or the exception's name for each `_transport_image` call
    that `resolve_along` makes."""
    import folres.resolve

    original = folres.resolve._transport_image
    outcomes = []

    def recorded(*args):
        try:
            image = original(*args)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
            raise
        outcomes.append("ok")
        return image

    monkeypatch.setattr(folres.resolve, "_transport_image", recorded)
    return outcomes


def test_resolve_goes_on_when_the_image_cannot_be_transported(capsys, monkeypatch):
    # at trunc 5 the second blow-up's image cannot be divided by its shift;
    # the step then composes its image and the run goes on, where a raising
    # transport would end it in exit 3
    transports = _record_transports(monkeypatch)
    argv = ["resolve", TRANSPORT_FALLBACK_FIELD, "--trunc", "5", "--max-steps", "2"]
    code, out = run_cli(argv, capsys)
    assert transports == ["ok", "NotDivisible"]  # one per blow-up
    assert code == 0
    steps = [
        ("null", "zero_linear_part", 0, 4, "zero_linear_part"),
        ('"point_chart_z"', "zero_linear_part", 1, 3, "zero_linear_part"),
        ('"point_chart_z"', "elementary", 1, 2, "elementary"),
    ]
    assert out == (
        '{"command": "resolve", "field": ["(1+i)*y^2 - i*y^2*z - i*y*z^2", '
        '"2*x*y + 2*x^3 + (1+i)*x*y*z", "x*z - 2*y^3 - 2*z^3"], "trunc": 5, '
        '"separatrix": "solve", "outcome": "reached_elementary", "steps": ['
        + ", ".join(
            f'{{"chart": {chart}, "class": "{cls}", "mult": null, "divisor_exponent": {e}, '
            f'"tangency": {tan}, "matched": false, "no_match_reason": "foliation '
            f'representative is {rep}, not nilpotent-nonzero"}}'
            for chart, cls, e, tan, rep in steps
        )
        + '], "report": null, "verdict": null}\n'
    )


def test_a_step_whose_transport_fails_reads_its_multiplicity_from_its_image(
    capsys, monkeypatch
):
    # at trunc 8 the third blow-up's image cannot be transported, and the
    # step reads the multiplicity of the image it composes: 1, as at trunc
    # 12, where every transport succeeds
    transports = _record_transports(monkeypatch)
    field = (
        "[(3+i)*y^3 + i*x*y^2*z + (-2-i)*x*z^3 + (-3-i)*y^4, (1+i)*x^2 + 3*x^4 + 2*x^3*z, "
        "(3-i)*x*y^2 + (-1+i)*x^3*z + 2*x*y*z^2 - i*z^4]"
    )
    for trunc, logged in (("8", ["ok", "ok", "NotDivisible"]), ("12", ["ok"] * 3)):
        transports.clear()
        code, out = run_cli(["resolve", field, "--trunc", trunc], capsys)
        assert code == 0
        assert transports == logged
        report = json.loads(out)
        assert report["outcome"] == "reached_elementary"
        assert [s["mult"] for s in report["steps"]] == [4, 3, 2, 1]


@pytest.mark.parametrize("trunc", ["-1", "1025"])
def test_negative_trunc_exit_code(trunc, capsys):
    code, out = run_cli(["classify", "[x, y, z]", "--trunc", trunc], capsys)
    assert code == 3
    message = json.loads(out)["message"]
    assert "--trunc" in message and "1024" in message


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
        # refused at once, not after seconds of quadrature
        (["timeform", "--turns", "1e400"], "--turns"),
        (["timeform", "--turns=-1e400"], "--turns"),
    ],
)
def test_bad_rational_flag_exit_code(args, flag, capsys):
    code, out = run_cli(args, capsys)
    assert code == 3
    assert flag in json.loads(out)["message"]


def test_unprintable_coefficient_exit_code(capsys):
    # 17^4096 parses, but its 5,040 digits pass Python's int-string limit
    code, out = run_cli(["classify", "[17^4096, y, z]"], capsys)
    assert code == 3
    error = json.loads(out)
    assert error["error"] == "FolresError"
    assert f"{sys.get_int_max_str_digits()} digits" in error["message"]


@pytest.mark.parametrize(
    "field",
    ["[17^4096*i, y, z]", "[17^4096 + i, y, z]", "[x/17^4096, y, z]", "[i*x/17^4096, y, z]"],
    ids=["imaginary", "complex", "denominator", "imaginary-denominator"],
)
def test_unprintable_coefficient_of_every_shape(field, capsys):
    # the printer's every scalar shape goes to text through the same guard
    code, out = run_cli(["classify", field], capsys)
    assert code == 3
    assert json.loads(out) == {
        "error": "FolresError",
        "message": f"cannot print a coefficient of more than {sys.get_int_max_str_digits()} digits",
    }


def test_power_too_large_exit_code(capsys):
    # the base's 16.8-Mbit coefficient to the 4096th would be 68.7 Gbit
    code, out = run_cli(["classify", "[((2^4096)^4096)^4096, y, z]"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "parse",
        "message": "power too large (at position 16)",
        "position": 16,
    }


def test_curve_chart_must_be_transverse(capsys):
    # the field parses; the flag pair is refused as a bad flag (exit 3) that
    # names both flags, not as a parse error
    for axis in "xyz":
        code, out = run_cli(
            ["blowup", "[y - z, x*z, z^3]", "--center", "curve", "--center-axis", axis,
             "--chart", axis],
            capsys,
        )
        assert code == 3
        error = json.loads(out)
        assert error["error"] == "FolresError" and "position" not in error
        assert f"--chart {axis}" in error["message"]
        assert f"--center-axis {axis}" in error["message"]


def test_timeform_rho_must_be_univariate(capsys):
    code, out = run_cli(["timeform", "--rho", "x^2 + y"], capsys)
    assert code == 2


def test_resolve_requires_adapted_coordinates(capsys):
    # the graph solver parameterizes over z; a field whose distinguished
    # axis is not the z-axis is refused rather than guessed at
    code, out = run_cli(["resolve", "[x^2, x*z, y - x*z]"], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "NotGraphParameterizable"


def test_resolve_dicritical_field_exit_code(capsys):
    # every degree-1 column of the radial field vanishes, so the solver pins
    # no degree of a graph separatrix within the ledger
    code, out = run_cli(["resolve", "[x, y, z]"], capsys)
    assert code == 3
    error = json.loads(out)
    assert error["error"] == "NotGraphParameterizable"
    assert "ledger 24" in error["message"]


@pytest.mark.parametrize(
    "argv, ledger",
    [
        # the ledger cuts the z^3 of X_lambda, so H reads 0 on the z-axis
        (["resolve", "[y - z, x*z, z^3]", "--trunc", "2"], "2"),
        # z^-1 X = [1, 0, 0] at ledger 23 has no third component at all
        (["resolve", "[z, 0, 0]"], "23 of the field divided by z"),
        # z^-2 X = [x, y, 1] at ledger 22: the solver reads the divided field
        (["resolve", "[x*z^2, y*z^2, z^2]"], "22 of the field divided by z^2"),
    ],
    ids=["xlambda-cut-by-ledger", "zero-third-component", "z-squared-field"],
)
def test_resolve_names_the_ledger_without_a_z_axis_term(argv, ledger, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 3
    assert json.loads(out) == {
        "error": "NotGraphParameterizable",
        "message": "third component has no positive-order part on the z-axis "
        f"through the field ledger {ledger}",
    }


def test_precision_exhausted_exit_code(capsys):
    code, out = run_cli(
        ["resolve", "[y - z, x*z, z^3]", "--trunc", "5", "--max-steps", "10"], capsys
    )
    assert code == 4
    assert json.loads(out) == {
        "error": "precision_exhausted",
        "message": "blow-up step 4: field trunc needs 3, has 2",
    }


@st.composite
def _resolve_fields(draw):
    """A random sparse field, or a soak normal form times z^k, as printed."""
    if draw(st.booleans()):
        monos = st.tuples(*(st.integers(0, 4),) * 3)
        scalars = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))
        comps = [MSeries(draw(st.dictionaries(monos, scalars, max_size=4)), 24) for _ in range(3)]
        return format_field(VectorField(*comps))
    X, _, _ = rand_normal_form(random.Random(draw(st.integers(0, 10**6))), 24)
    factor = MSeries.monomial(1, (0, 0, draw(st.integers(0, 2))), 24)
    return format_field(X.map(lambda c: c * factor))


@settings(max_examples=50, deadline=None)
@given(
    field=_resolve_fields(),
    trunc=st.integers(3, 14),
    separatrix=st.sampled_from(["solve", "axis"]),
    max_steps=st.integers(0, 6),
    no_match_stop=st.booleans(),
)
def test_resolve_argv_fuzz_ends_in_a_documented_exit_code(
    field, trunc, separatrix, max_steps, no_match_stop
):
    argv = ["resolve", field, "--trunc", str(trunc), "--separatrix", separatrix]
    argv += ["--max-steps", str(max_steps)] + ["--no-match-stop"] * no_match_stop
    code, doc = _documented_run(argv)
    if code == 0:
        assert len(doc["steps"]) <= max_steps + 1


def _documented_run(argv):
    """Run `main` on argv and check that it printed one JSON document and
    ended in exit 0, 3 or 4; an exception other than the documented errors
    would escape `main`.  A printed field always parses, so exit 2 is never
    allowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 3, 4), (argv, text)
    assert text.endswith("}\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert ("error" not in doc) == (code == 0)
    if code == 0:
        assert doc["command"] == argv[0]
    return code, doc


_BLOWUP_FLAGS = [
    ["--center", center, "--center-axis", axis, "--chart", chart, "--weight", weight]
    for center in ("point", "curve")
    for axis in "xyz"
    for chart in "xyz"
    for weight in ("1", "2")
]


@settings(max_examples=30, deadline=None)
@given(field=_resolve_fields(), trunc=st.integers(0, 14))
def test_classify_and_blowup_argv_fuzz_end_in_a_documented_exit_code(field, trunc):
    # classify, and blowup under every --center/--center-axis/--chart/--weight
    # combination, of a printed field
    _documented_run(["classify", field, "--trunc", str(trunc)])
    for flags in _BLOWUP_FLAGS:
        _documented_run(["blowup", field, "--trunc", str(trunc)] + flags)


# flag values: rationals and integers, junk, numerals past Python's
# int-string limit, and values past the float range
_RATIONALS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=50).map(str),
    st.integers(-5, 8).map(str),
)
_JUNK = st.sampled_from(["abc", "", "1/0", "1e", "0x10", "i", "1/2-i"])
_OVERLONG = st.integers(4301, 4400).map(lambda n: "9" * n)
_PAST_FLOAT = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400"])
_FLAG_VALUES = st.one_of(_RATIONALS, _JUNK, _OVERLONG, _PAST_FLOAT)


@settings(max_examples=30, deadline=None)
@given(alpha=_FLAG_VALUES, beta=_FLAG_VALUES)
def test_holonomy_argv_fuzz_ends_in_a_documented_exit_code(alpha, beta):
    # the --flag=value form keeps a value such as "-1" from reading as a flag
    code, doc = _documented_run(["holonomy", f"--alpha={alpha}", f"--beta={beta}"])
    if code == 3:
        assert "--alpha" in doc["message"] or "--beta" in doc["message"]


@settings(max_examples=30, deadline=None)
@given(
    exponent=st.one_of(st.none(), _RATIONALS, _FLAG_VALUES),
    rho=st.one_of(st.none(), st.sampled_from(["x^2 + 1", "1 - x", "x^3", "x*y", "0", "x^"])),
    x0_re=st.one_of(st.none(), _RATIONALS, _FLAG_VALUES),
    x0_im=st.one_of(st.none(), _RATIONALS, _FLAG_VALUES),
    # a --turns past the float range, 1e400 included, is refused before
    # any quadrature
    turns=st.one_of(st.none(), _RATIONALS, _JUNK, _OVERLONG, _PAST_FLOAT),
)
def test_timeform_argv_fuzz_ends_in_a_documented_exit_code(exponent, rho, x0_re, x0_im, turns):
    # an omitted flag takes its default, and about a third of the runs pass
    # every flag check and integrate with mpmath.  Only --rho is parsed by
    # the field grammar, so only it may end in exit 2.
    argv = ["timeform"]
    for flag, value in (("--exponent", exponent), ("--rho", rho), ("--x0-re", x0_re),
                        ("--x0-im", x0_im), ("--turns", turns)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert code in ((0, 2, 3, 4) if rho is not None else (0, 3, 4)), (argv, text)
    assert text.endswith("}\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert ("error" not in doc) == (code == 0)
    if code == 0:
        assert doc["command"] == "timeform"
        # no rho x^m with m < 0, which --rho would refuse
        assert exponent is None or int(exponent) >= 0


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--x0-re", "nan"], "--x0-re"),
        (["--x0-re", "inf"], "--x0-re"),
        (["--x0-re", "1e400"], "--x0-re"),
        (["--x0-im", "nan"], "--x0-im"),
        (["--x0-im=-inf"], "--x0-im"),
        (["--x0-im", "1e400"], "--x0-im"),
        (["--x0-re", "abc"], "--x0-re"),
        (["--exponent=-1"], "--exponent"),
        (["--exponent", "1.5"], "--exponent"),
        (["--exponent", "abc"], "--exponent"),
    ],
)
def test_timeform_bad_flag_exit_code(args, flag, capsys):
    # a flag error naming the flag, not an integration failure or x^-1
    code, out = run_cli(["timeform"] + args, capsys)
    assert code == 3
    error = json.loads(out)
    assert error["error"] == "FolresError" and flag in error["message"]
