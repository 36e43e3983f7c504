import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgimplicit.cli as cli
from mgimplicit import implicitize, regions
from mgimplicit.cli import main
from mgimplicit.multipoly import _NAME
from mgimplicit.problem import ProblemValidationError, load_problem

REPO = Path(__file__).resolve().parent.parent
GOLDEN_JSON = str(REPO / "problems" / "bigraded_22.json")
GOLDEN_TXT = str(REPO / "problems" / "bigraded_22.txt")
BASEPOINT_JSON = str(REPO / "problems" / "p1p1_22_basepoint.json")


# -- problem files ------------------------------------------------------------------

def test_load_json_problem():
    pf = load_problem(GOLDEN_JSON)
    inst = pf.instance()
    assert inst.gamma == (2, 2)
    assert inst.n == 3
    assert inst.target.names == ("X_0", "X_1", "X_2", "X_3")


def test_text_and_json_problems_agree():
    a = load_problem(GOLDEN_JSON).instance()
    b = load_problem(GOLDEN_TXT).instance()
    assert a.f == b.f
    assert a.gamma == b.gamma


def test_problem_rejects_duplicate_names(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"blocks": [["s", "s"]], "polynomials": ["s", "s"]}))
    with pytest.raises(ProblemValidationError, match="unique"):
        load_problem(bad)


def test_problem_rejects_inconsistent_degrees(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "s^2*t"]})
    )
    with pytest.raises(ProblemValidationError, match="multidegree"):
        load_problem(bad).instance()


def test_problem_rejects_degree_override_mismatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "u*v"], "degree": [2, 2]}
        )
    )
    with pytest.raises(ProblemValidationError, match="declared degree"):
        load_problem(bad).instance()


def test_text_problem_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("blocks: s u ; t v\nf0 = s*t\nbogus line without equals\n")
    with pytest.raises(ProblemValidationError, match="line 3"):
        load_problem(bad)


@pytest.mark.parametrize(
    "field, bad",
    [
        ({"target_vars": ["X+Y", "1", "B", "C"]}, "X+Y"),
        ({"target_vars": ["", "A", "B", "C"]}, ""),
        ({"blocks": [["s", "u"], ["t v"]]}, "t v"),
    ],
    ids=["target-operator", "target-empty", "block-space"],
)
def test_cli_rejects_names_the_grammar_cannot_read(tmp_path, capsys, field, bad):
    # such a name used to print deltas like "X+Y*1 - B*C" that do not parse back
    f = tmp_path / "bad.json"
    problem = {"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "s*v", "u*t", "u*v"]}
    f.write_text(json.dumps({**problem, **field}))
    assert main(["implicitize", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(bad) in err


def _problem_text(problem):
    """The line-oriented text form of a JSON problem."""
    lines = ["blocks: " + " ; ".join(" ".join(g) for g in problem["blocks"])]
    if "target_vars" in problem:
        lines.append("targets: " + " ".join(problem["target_vars"]))
    lines += [f"f{k} = {p}" for k, p in enumerate(problem["polynomials"])]
    return "\n".join(lines) + "\n"


VALID = {
    "blocks": [["s", "u"], ["t", "v"]],
    "target_vars": ["X_0", "X_1", "X_2", "X_3"],
    "polynomials": ["s*t", "s*v", "u*t", "u*v"],
    "degree": [1, 1],
}
BAD_NAMES = st.sampled_from(["X+Y", "1", "", "t v"]) | st.text(max_size=6).filter(
    lambda t: not re.fullmatch(_NAME, t)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def malformed_problems(draw):
    """``(suffix, file text)`` of a problem file with at least one defect: a
    truncated JSON document, a field of the wrong type, an unknown key, a
    variable name the polynomial grammar cannot read, a polynomial with a
    dangling operator, or a text line that is neither a key nor a polynomial."""
    problem = json.loads(json.dumps(VALID))
    kind = draw(
        st.sampled_from(["truncated", "mistyped", "unknown-key", "bad-name", "bad-poly", "bad-line"])
    )
    if kind == "truncated":
        text = json.dumps(problem)
        return ".json", text[: draw(st.integers(0, len(text) - 1))]
    if kind == "mistyped":
        key = draw(st.sampled_from(sorted(VALID)))
        # null is the default of the optional keys, so it is not a defect
        problem[key] = draw(JSON_VALUES.filter(lambda v: v is not None and not isinstance(v, list)))
        return ".json", json.dumps(problem)
    if kind == "unknown-key":
        problem[draw(st.text(max_size=5).filter(lambda k: k not in VALID))] = draw(JSON_VALUES)
        return ".json", json.dumps(problem)
    if kind == "bad-name":
        names = draw(st.sampled_from([problem["target_vars"], *problem["blocks"]]))
        names[draw(st.integers(0, len(names) - 1))] = draw(BAD_NAMES)
    elif kind == "bad-poly":
        k = draw(st.integers(0, 3))
        problem["polynomials"][k] += draw(st.sampled_from([" +", "*", "^", " - 1/0"]))
    suffix = draw(st.sampled_from([".json", ".txt"]))
    if kind == "bad-line" or suffix == ".txt":
        if any(not n.strip() or n != "".join(n.split()) for g in problem["blocks"] for n in g):
            # a name with blanks changes the block layout of the text form
            suffix = ".json"
    if kind == "bad-line":
        suffix = ".txt"
        lines = _problem_text(problem).splitlines()
        junk = draw(
            st.text(st.characters(blacklist_characters="=:#;\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), min_size=1)
            .filter(lambda t: t.strip() and not t.strip().startswith("--"))
        )
        lines.insert(draw(st.integers(0, len(lines))), junk)
        return suffix, "\n".join(lines) + "\n"
    return suffix, json.dumps(problem) if suffix == ".json" else _problem_text(problem)


@pytest.mark.parametrize(
    "command",
    [["info"], ["matrix", "--nu", "1,1"], ["implicitize"], ["verify", "--poly", "{poly}"]],
    ids=["info", "matrix", "implicitize", "verify"],
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(malformed_problems())
def test_info_rejects_malformed_problems_cleanly(command, case):
    # every command that loads a problem file refuses the same defects
    # with the same clean validation error
    suffix, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"problem{suffix}"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        poly = Path(tmp) / "delta.txt"
        poly.write_text("X_0*X_3 - X_1*X_2\n")
        argv = [command[0], str(path)] + [arg.format(poly=poly) for arg in command[1:]]
        code, err = _run_captured(argv)
    assert code == 1, text
    assert err.startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suffix, text, message",
    [
        (".txt", "blocks: s u ; t v\ntargets: A B C D\ntargets: W X Y Z\n", "line 3: duplicate 'targets' (first given on line 2)"),
        (".txt", "blocks: s u ; t v\ndegree: 1 1\nf0 = s*t\ndegree: 2 2\n", "line 4: duplicate 'degree' (first given on line 2)"),
        (".txt", "blocks: s u ; t v\nblocks: s u ; t v\n", "line 2: duplicate 'blocks' (first given on line 1)"),
        (".json", '{"blocks": [["s", "u"], ["t", "v"]], "degree": [1, 1], "degree": [2, 2]}', "duplicate key 'degree'"),
        (".json", '{"blocks": [["s", "u"]], "blocks": [["t", "v"]]}', "duplicate key 'blocks'"),
    ],
    ids=["text-targets", "text-degree", "text-blocks", "json-degree", "json-blocks"],
)
def test_info_rejects_duplicate_headers(tmp_path, suffix, text, message):
    # a repeated header used to keep its last value silently; it is refused
    # as soon as it is read, before the polynomials are looked for
    path = tmp_path / f"problem{suffix}"
    path.write_text(text)
    code, err = _run_captured(["info", str(path)])
    assert code == 1
    assert err == f"error: {message}\n"


def _run_captured(argv):
    """Exit code and standard error of ``main(argv)``; standard output is dropped."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# -- info ----------------------------------------------------------------------------

def test_cmd_info_golden(capsys):
    assert main(["info", GOLDEN_JSON]) == 0
    out = capsys.readouterr().out
    assert "s u ; t v" in out
    assert "gamma: (2, 2)" in out
    assert "(1, 3)" in out and "(3, 1)" in out


def test_cmd_info_single_block(tmp_path, capsys):
    f = tmp_path / "p1.json"
    f.write_text(
        json.dumps({"blocks": [["x", "y"]], "polynomials": ["x^2", "x*y", "y^2"]})
    )
    assert main(["info", str(f)]) == 0
    out = capsys.readouterr().out
    assert "(r = (1,))" in out


def test_cmd_info_validation_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps({"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "s^2*t^2"]})
    )
    assert main(["info", str(f)]) == 1
    assert "multidegree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    [
        {"polynomials": 5},
        {"blocks": 3},
        {"degree": 1},
        {"blocks": [[1, 2]]},
        {"target_vars": "XY"},
        {"blocks": ["su", "tv"]},
    ],
    ids=["polynomials-int", "blocks-int", "degree-int", "blocks-int-names", "targets-str", "blocks-str"],
)
def test_cmd_info_rejects_mistyped_json_field(tmp_path, capsys, field):
    f = tmp_path / "bad.json"
    problem = {"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "u*v"]}
    f.write_text(json.dumps({**problem, **field}))
    assert main(["info", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cmd_info_evaluation_points(tmp_path, capsys):
    assert main(["info", GOLDEN_JSON, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluation_points"] == {"determinant": 165, "verification": 289}
    p2p1 = tmp_path / "p2p1.json"
    p2p1.write_text(
        json.dumps(
            {
                "blocks": [["x0", "x1", "x2"], ["y0", "y1"]],
                "polynomials": ["x0*y0^2", "x1*y0*y1", "x2*y1^2", "x0*y1^2 + x1*y0^2"],
            }
        )
    )
    assert main(["info", str(p2p1), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluation_points"] == {"determinant": 84, "verification": 364}
    assert main(["info", str(p2p1)]) == 0
    assert (
        "evaluation points at the suggestion: 84 per maximal minor, at most 364 for verification"
        in capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["info", GOLDEN_JSON],
        ["info", GOLDEN_JSON, "--json"],
        ["region", "--blocks", "1,1", "--gamma", "2,2"],
        ["region", "--blocks", "1,1", "--gamma", "2,2", "--json"],
        ["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", "-"],
        ["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", "{tmp}/r.svg"],
    ],
    ids=["info", "info-json", "region", "region-json", "region-ascii-plot", "region-svg-plot"],
)
def test_cli_scans_corners_once(tmp_path, monkeypatch, capsys, argv):
    scans = []
    scan = regions.complement_corners

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(regions, "complement_corners", counting)
    monkeypatch.setattr(cli, "complement_corners", counting)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 0
    assert len(scans) == 1


# -- region --------------------------------------------------------------------------

def test_cmd_info_json(capsys):
    assert main(["info", GOLDEN_JSON, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == [2, 2]
    assert payload["suggested_nu"] == [1, 3]
    assert payload["strand_dims"] == {"[1, 3]": 8, "[3, 1]": 8}


def test_cmd_region_json(capsys):
    assert main(["region", "--blocks", "1,1", "--gamma", "2,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complement_corners"] == [[1, 3], [3, 1]]
    assert {"alpha": [1], "shift": [0, 2]} in payload["parts"]
    assert {"alpha": [1, 2], "shift": [2, 2]} in payload["parts"]


def test_cmd_region_golden(capsys):
    assert main(["region", "--blocks", "1,1", "--gamma", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "complement corners: (1, 3), (3, 1)" in out


def test_cmd_region_from_file(capsys):
    assert main(["region", GOLDEN_JSON]) == 0
    assert "suggested nu: (1, 3)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--blocks", "1,1,1", "--gamma", "5,5,5"], ["--blocks", "1,1"], ["--gamma", "2,2"]],
    ids=["both", "blocks", "gamma"],
)
def test_cmd_region_rejects_a_file_with_blocks_or_gamma(capsys, flags):
    # the file used to win silently: r = [1, 1], gamma = [2, 2]
    assert main(["region", GOLDEN_JSON, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


def test_cmd_region_unit_gamma(capsys):
    assert main(["region", "--blocks", "1,1", "--gamma", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "complement corners: (0, 1), (1, 0)" in out


def test_cmd_region_rejects_nonpositive_gamma(capsys):
    assert main(["region", "--blocks", "1,1", "--gamma", "2,0"]) == 1
    assert "strictly positive" in capsys.readouterr().err


def test_cmd_region_plot_refused_for_three_blocks(capsys):
    assert main(["region", "--blocks", "1,1,1", "--gamma", "1,1,1", "--plot", "-"]) == 0
    captured = capsys.readouterr()
    assert "plot refused" in captured.err
    assert "complement corners" in captured.out


def test_cmd_region_svg_plot(tmp_path, capsys):
    out_path = tmp_path / "region.svg"
    assert main(["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", str(out_path)]) == 0
    assert out_path.read_text().startswith("<svg")


def test_cmd_region_ascii_plot(capsys):
    assert main(["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", "-"]) == 0
    assert "#" in capsys.readouterr().out


# -- matrix --------------------------------------------------------------------------

def test_cmd_matrix_golden(capsys):
    assert main(["matrix", GOLDEN_JSON, "--nu", "3,1"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["rows"] == 8 and payload["cols"] == 8
    assert payload["nu"] == [3, 1]
    assert payload["row_labels"][0] == "s^3*t"
    assert payload["warnings"] == []
    assert not captured.err


def test_cmd_matrix_in_region_warns(capsys):
    assert main(["matrix", GOLDEN_JSON, "--nu", "2,2"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["rows"] == 9 and payload["cols"] == 11
    assert any("unreliable region" in w for w in payload["warnings"])
    assert "unreliable region" in captured.err


def test_cmd_matrix_wrong_arity(capsys):
    assert main(["matrix", GOLDEN_JSON, "--nu", "3,1,2"]) == 1
    assert "components" in capsys.readouterr().err


def test_cmd_matrix_negative_nu_as_separate_argument(capsys):
    # a negative component must not be read as an option flag
    assert main(["matrix", GOLDEN_JSON, "--nu", "-1,5"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["nu"] == [-1, 5]
    assert payload["rows"] == 0
    assert main(["matrix", GOLDEN_JSON, "--nu=-1,5"]) == 0
    assert capsys.readouterr().out == captured.out


def test_cmd_matrix_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mgimplicit.cli", "matrix", GOLDEN_JSON, "--nu", "3,1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", GOLDEN_JSON, "--nu", "3,1", "--out", "{tmp}/missing/m.json"],
        ["implicitize", "{bilinear}", "--nu", "1,0", "--out", "{tmp}"],
        ["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", "{tmp}/missing/r.svg"],
    ],
    ids=["matrix-out", "implicitize-out-directory", "region-plot"],
)
def test_cli_failed_write_is_a_validation_error(tmp_path, capsys, argv):
    bilinear = tmp_path / "bilinear.json"
    bilinear.write_text(
        json.dumps({"blocks": [["s", "u"], ["t", "v"]], "polynomials": ["s*t", "s*v", "u*t", "u*v"]})
    )
    assert main([a.format(tmp=tmp_path, bilinear=bilinear) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["implicitize", "matrix"])
@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/out.json"], ids=["directory", "missing-parent"])
def test_out_path_rejected_before_the_work(tmp_path, monkeypatch, capsys, command, out):
    def fail(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")

    monkeypatch.setattr(cli, "run_pipeline", fail)
    monkeypatch.setattr(cli, "representation_matrix", fail)
    out = out.format(tmp=tmp_path)
    argv = [command, GOLDEN_JSON, "--nu", "3,1", "--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: [Errno ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("plot", ["{tmp}", "{tmp}/missing/r.svg"], ids=["directory", "missing-parent"])
def test_plot_path_rejected_before_the_work(tmp_path, monkeypatch, capsys, plot):
    def fail(*args, **kwargs):
        raise AssertionError("the region was computed before the plot path was checked")

    monkeypatch.setattr(cli, "complement_corners", fail)
    plot = plot.format(tmp=tmp_path)
    assert main(["region", "--blocks", "1,1", "--gamma", "2,2", "--plot", plot]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {plot}: [Errno ")
    assert list(tmp_path.iterdir()) == []


def test_cmd_matrix_out_file(tmp_path):
    out_path = tmp_path / "m.json"
    assert main(["matrix", GOLDEN_JSON, "--nu", "3,1", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["rows"] == 8


# -- implicitize -----------------------------------------------------------------------

def test_cmd_implicitize_golden(capsys):
    assert main(["implicitize", GOLDEN_JSON, "--nu", "3,1", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["degree"] == 8
    assert payload["generic_rank"] == 8
    assert payload["delta"].startswith("63569053*X_0^8")


def test_cmd_implicitize_rejects_zero_points_before_the_determinant(monkeypatch, capsys):
    calls = []
    det_on_columns = implicitize._det_on_columns

    def counting(*args):
        calls.append(args)
        return det_on_columns(*args)

    monkeypatch.setattr(implicitize, "_det_on_columns", counting)
    assert main(["implicitize", GOLDEN_JSON, "--points", "0"]) == 1
    assert capsys.readouterr().err == "error: points must be at least 1\n"
    assert calls == []


def test_cmd_implicitize_rejects_non_hypersurface(tmp_path, capsys):
    f = tmp_path / "p1.json"
    f.write_text(
        json.dumps({"blocks": [["x", "y"]], "polynomials": ["x^2", "y^2"]})
    )
    assert main(["implicitize", str(f)]) == 1
    assert "hypersurface" in capsys.readouterr().err


def test_cmd_implicitize_bilinear(tmp_path, capsys):
    f = tmp_path / "bilinear.json"
    f.write_text(
        json.dumps(
            {
                "blocks": [["s", "u"], ["t", "v"]],
                "polynomials": ["s*t", "s*v", "u*t", "u*v"],
            }
        )
    )
    # the Segre quadric: X_0*X_3 - X_1*X_2
    assert main(["implicitize", str(f), "--nu", "1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["degree"] == 2
    assert payload["delta"] in ("T_0*T_3 - T_1*T_2", "T_1*T_2 - T_0*T_3")


def test_cmd_implicitize_wide_example(capsys):
    # one simple base point: an 8x9 M_nu, and the degree drops from 8 to 7
    assert main(["implicitize", BASEPOINT_JSON, "--nu", "3,1"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["matrix"] == {"rows": 8, "cols": 9}
    assert payload["degree"] == 7 == payload["expected_degree"]
    assert payload["verified"] is True
    assert "delta is the determinant of the whole strand complex" in err


def test_cmd_implicitize_has_no_samples_option(capsys):
    assert main(["implicitize", GOLDEN_JSON, "--samples", "6"]) == 1


def test_cmd_implicitize_has_no_trials_option(capsys):
    # full row rank is proved by the determinant's elimination at a grid
    # point; there are no generic-rank trials left to count
    assert main(["implicitize", GOLDEN_JSON, "--trials", "4"]) == 1


def test_cmd_implicitize_in_region_fails_cleanly(capsys):
    assert main(["implicitize", GOLDEN_JSON, "--nu", "2,2"]) == 2
    assert "re-check nu" in capsys.readouterr().err


def test_cmd_implicitize_negative_nu_as_separate_argument(capsys):
    # parsed as the vector (-1, 5), whose strand is empty: a clean pipeline error
    assert main(["implicitize", GOLDEN_JSON, "--nu", "-1,5"]) == 2
    err = capsys.readouterr().err
    assert "empty strand at nu (-1, 5)" in err
    assert "expected one argument" not in err


# -- verify ----------------------------------------------------------------------------

def test_cmd_verify_golden_delta(tmp_path, capsys):
    assert main(["implicitize", GOLDEN_JSON, "--nu", "3,1", "--out", str(tmp_path / "r.json")]) == 0
    delta = json.loads((tmp_path / "r.json").read_text())["delta"]
    poly_file = tmp_path / "delta.txt"
    poly_file.write_text(delta + "\n")
    assert main(["verify", GOLDEN_JSON, "--poly", str(poly_file)]) == 0
    assert "vanishes exactly" in capsys.readouterr().out


def test_cmd_verify_rejects_plane(tmp_path, capsys):
    poly_file = tmp_path / "p.txt"
    poly_file.write_text("X_0")
    assert main(["verify", GOLDEN_JSON, "--poly", str(poly_file)]) == 2
    assert "does NOT vanish" in capsys.readouterr().out


def test_cmd_verify_rejects_zero(tmp_path, capsys):
    poly_file = tmp_path / "zero.txt"
    poly_file.write_text("0")
    assert main(["verify", GOLDEN_JSON, "--poly", str(poly_file)]) == 1
    assert "vacuous" in capsys.readouterr().err


def test_cmd_verify_parse_failure(tmp_path, capsys):
    poly_file = tmp_path / "bad.txt"
    poly_file.write_text("X_0 +")
    assert main(["verify", GOLDEN_JSON, "--poly", str(poly_file)]) == 1


# -- output stability -------------------------------------------------------------------

def test_matrix_output_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["matrix", GOLDEN_JSON, "--nu", "3,1", "--out", str(a)]) == 0
    assert main(["matrix", GOLDEN_TXT, "--nu", "3,1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a wide M_nu (8x9) and one whose entries print as c/den, at the suggested nu
    golden_dir = REPO / "tests" / "golden"
    for name in ("p1p1_22_basepoint", "bigraded_22_rational"):
        assert main(["matrix", str(REPO / "problems" / f"{name}.json"), "--nu", "1,3", "--out", str(a)]) == 0
        assert a.read_bytes() == (golden_dir / f"matrix_{name}_nu_1_3.json").read_bytes()


def test_implicitize_output_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["implicitize", GOLDEN_JSON, "--nu", "3,1", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_golden_files_match():
    golden_dir = REPO / "tests" / "golden"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["matrix", GOLDEN_JSON, "--nu", "3,1"]) == 0
    assert buf.getvalue() == (golden_dir / "matrix_nu_3_1.json").read_text()

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["implicitize", GOLDEN_JSON, "--nu", "3,1", "--seed", "0"]) == 0
    assert buf.getvalue() == (golden_dir / "implicitize_nu_3_1.json").read_text()


def test_usage_error_maps_to_validation_exit():
    assert main(["matrix"]) == 1
    assert main(["no-such-command"]) == 1
