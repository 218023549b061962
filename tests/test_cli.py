"""End-to-end CLI tests driven through run_cli."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfsm.cfmatrix import ComplexFuzzyMatrix, ComplexFuzzyNumber
from cfsm.cli import MAX_SIDE, MAX_TRIALS, run_cli
from cfsm.oracle import naive_maxmin

DATA = Path(__file__).parent / "data"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = run_cli(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# -- identification ------------------------------------------------------------


def test_identify_fourier_worked_example(run):
    code, out, err = run("identify", "fourier", "--input", str(DATA / "signals.json"))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "signal x1: scores 0.175 0.15 | display 0.18 0.15 | best 0.175 (0.18)"
    )
    assert lines[1] == (
        "signal x2: scores 0.225 0.15 | display 0.23 0.15 | best 0.225 (0.23)"
    )
    assert lines[-1] == "winner: x2"


def test_identify_fourier_is_byte_deterministic(run):
    first = run("identify", "fourier", "--input", str(DATA / "signals.json"))
    second = run("identify", "fourier", "--input", str(DATA / "signals.json"))
    assert first == second


def test_identify_fourier_builds_no_term_objects(run, monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr("cfsm.fourier.SignalSample.__post_init__", refuse)
    monkeypatch.setattr("cfsm.cfmatrix.ComplexFuzzyNumber.__post_init__", refuse)
    code, out, err = run("identify", "fourier", "--input", str(DATA / "signals.json"))
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "winner: x2"


def test_identify_fourier_report_file(run, tmp_path):
    report = tmp_path / "series.tsv"
    code, _, _ = run(
        "identify",
        "fourier",
        "--input",
        str(DATA / "signals.json"),
        "--report",
        str(report),
    )
    assert code == 0
    assert report.read_text(encoding="utf-8") == (
        "n\tx1\tx2\n0\t0.175\t0.225\n1\t0.15\t0.15\n"
    )


def test_identify_fourier_requires_a_reference(run, tmp_path):
    doc = {"N": 1, "signals": [{"id": "x", "samples": [{"amplitudes": [0.5]}]}]}
    path = tmp_path / "noref.json"
    path.write_text(json.dumps(doc))
    code, _, err = run("identify", "fourier", "--input", str(path))
    assert code == 2
    assert "reference" in err


def test_identify_maxmin_worked_example(run):
    code, out, err = run(
        "identify",
        "maxmin",
        "--a",
        str(DATA / "decision_a.csv"),
        "--b",
        str(DATA / "decision_b.csv"),
        "--labels",
        "ν1,ν2,ν3,ν4",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "product:"
    assert "decision display: 0.00 0.17 0.07 0.13" in lines
    assert "optimum set: 0.17/ν2, 0.07/ν3, 0.13/ν4" in lines
    assert lines[-1] == "winner: ν2"


def test_identify_maxmin_degenerate_report(run, tmp_path):
    zero = tmp_path / "zero.csv"
    zero.write_text("0,0\n0,0\n")
    code, out, _ = run(
        "identify", "maxmin", "--a", str(zero), "--b", str(zero), "--labels", "a,b"
    )
    assert code == 0
    assert "optimum set: empty" in out
    assert "winner: a (degenerate: all degrees zero)" in out


@pytest.mark.parametrize("labels", ["v,v", ",x"])
def test_identify_maxmin_rejects_duplicate_and_empty_labels(run, tmp_path, labels):
    zero = tmp_path / "zero.csv"
    zero.write_text("0,0\n0,0\n")
    code, out, err = run(
        "identify", "maxmin", "--a", str(zero), "--b", str(zero), "--labels", labels
    )
    assert code == 2 and out == ""
    assert err.startswith("cfsm: error: object labels must be")


def test_identify_fourier_huge_integer_amplitude_exits_2(run, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"N": 1, "signals": [{"id": "x", "samples": [{"amplitudes": [1'
                    + "0" * 400 + "]}]}]}")
    code, _, err = run("identify", "fourier", "--input", str(path))
    assert code == 2
    assert err.startswith("cfsm: error: signal 'x' sample 0 amplitude 0 must lie in")
    assert len(err.splitlines()) == 1


def test_identify_fourier_deeply_nested_json_exits_2(run, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run("identify", "fourier", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("cfsm: error: invalid JSON")
    assert len(err.splitlines()) == 1


def test_identify_fourier_over_long_integer_exits_2(run, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"N": ' + "1" * 5001 + ', "signals": []}')
    code, out, err = run("identify", "fourier", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "cfsm: error: invalid JSON: integer has too many digits\n"


# -- matrix subcommand ------------------------------------------------------------


def test_matrix_trace(run):
    code, out, _ = run("matrix", "trace", "--a", str(DATA / "cf_a.csv"))
    assert code == 0
    # amplitude max over the diagonal; the componentwise phase fold gives pi
    assert out == "0.6@3.14159265359\n"


def test_matrix_add(run):
    code, out, _ = run(
        "matrix", "add", "--a", str(DATA / "cf_a.csv"), "--b", str(DATA / "cf_b.csv")
    )
    assert code == 0
    first_row = out.splitlines()[0].split(",")
    assert [cell.split("@")[0] for cell in first_row] == ["0.6", "0.4", "0.5"]


def test_matrix_union(run):
    code, out, _ = run(
        "matrix", "union", "--a", str(DATA / "mag4_a.csv"), "--b", str(DATA / "mag4_b.csv")
    )
    assert code == 0
    assert out.splitlines()[0] == "0.2,0.4,0,0.2"


def test_matrix_usual_product(run):
    code, out, _ = run(
        "matrix",
        "usual",
        "--a",
        str(DATA / "decision_a.csv"),
        "--b",
        str(DATA / "decision_b.csv"),
    )
    assert code == 0
    assert out.splitlines()[0] == "0,0.23,0.1,0.13"


def test_matrix_comp_is_unary(run):
    code, out, _ = run("matrix", "comp", "--a", str(DATA / "mag4_a.csv"))
    assert code == 0
    assert out.splitlines()[0] == "0.9,0.6,1,0.8"


def test_matrix_and_product(run, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0.3,0.7\n")
    b.write_text("0.5,0.2\n")
    code, out, _ = run("matrix", "and", "--a", str(a), "--b", str(b))
    assert code == 0
    assert out == "0.3,0.2,0.5,0.2\n"


def test_matrix_negative_zero_prints_as_zero(run, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("-0.0,0.5\n")
    code, out, _ = run("matrix", "inter", "--a", str(a), "--b", str(a))
    assert code == 0
    assert out == "0,0.5\n"
    c = tmp_path / "c.csv"
    c.write_text("-0.0@-0.0\n")
    code, out, _ = run("matrix", "trace", "--a", str(c))
    assert code == 0
    assert out == "0@0\n"


def test_matrix_shape_error_exit_code(run, tmp_path):
    small = tmp_path / "small.csv"
    small.write_text("0.1,0.2\n0.3,0.4\n")
    code, _, err = run(
        "matrix", "union", "--a", str(DATA / "mag4_a.csv"), "--b", str(small)
    )
    assert code == 3
    assert "4x4 and 2x2" in err


def test_matrix_missing_b_is_a_usage_error(run):
    code, _, err = run("matrix", "add", "--a", str(DATA / "cf_a.csv"))
    assert code == 64
    assert "requires --b" in err


def test_matrix_validation_error_exit_code(run, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,oops\n")
    code, _, err = run("matrix", "comp", "--a", str(bad))
    assert code == 2
    assert "not a decimal" in err


# -- transforms ----------------------------------------------------------------------


def test_dft_impulse(run):
    code, out, _ = run("dft", "--input", str(DATA / "impulse.csv"))
    assert code == 0
    assert out == "1,0\n1,0\n1,0\n1,0\n"


def test_dft_inverse_round_trip(run, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("4,0\n0,0\n0,0\n0,0\n")
    code, out, _ = run("dft", "--input", str(path), "--inverse")
    assert code == 0
    assert out == "1,0\n1,0\n1,0\n1,0\n"


@pytest.mark.parametrize(
    "text, flags, want",
    [
        # halving the smallest subnormal rounds to -0.0
        ("-5e-324\n0\n", ("--inverse",), "0,0\n0,0\n"),
        # a single value is its own transform and reaches the output untouched
        ("-0.0\n", (), "0,0\n"),
    ],
)
def test_dft_prints_zero_without_a_sign(run, tmp_path, text, flags, want):
    path = tmp_path / "seq.csv"
    path.write_text(text)
    code, out, _ = run("dft", "--input", str(path), *flags)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("line", ["nan", "inf", "1,-inf", "0,nan"])
def test_dft_rejects_non_finite_values(run, tmp_path, line):
    path = tmp_path / "seq.csv"
    path.write_text(f"1,0\n{line}\n")
    code, out, err = run("dft", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("cfsm: error: line 2: value must be finite")


# -- law checks ------------------------------------------------------------------------


def test_laws_check_passes(run):
    code, out, _ = run("laws", "check", "--trials", "25", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.endswith("PASS") for line in lines[:8])
    assert lines[-1] == "8/8 laws hold"


def test_laws_check_custom_shape(run):
    code, out, _ = run("laws", "check", "--trials", "10", "--shape", "2x3")
    assert code == 0
    assert "trials=10" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--shape", "100000x100000"),
        ("--shape", f"{MAX_SIDE + 1}x1"),
        ("--shape", f"1x{MAX_SIDE + 1}"),
        ("--trials", "10000000000"),
        ("--trials", str(MAX_TRIALS + 1)),
        ("--trials", "0"),
    ],
    ids=["huge-shape", "rows-above-max", "cols-above-max", "huge-trials",
         "trials-above-max", "zero-trials"],
)
def test_laws_check_rejects_sizes_above_the_maximum(run, argv):
    code, out, err = run("laws", "check", *argv)
    assert code == 64 and out == ""
    assert "error:" in err


# -- plumbing -----------------------------------------------------------------------------


def test_missing_input_file_is_a_validation_failure(run, tmp_path):
    code, _, err = run("identify", "fourier", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_unknown_command_exits_64(run):
    code, _, err = run("frobnicate")
    assert code == 64
    assert "usage" in err.lower()


def test_no_arguments_prints_usage(run):
    code, _, err = run()
    assert code == 64
    assert "usage" in err.lower()


def test_help_exits_zero(run):
    code, out, _ = run("--help")
    assert code == 0
    assert "usage" in out.lower()


# -- malformed input: short messages, documented exit codes ------------------------

LONG = "x" * 200000


@pytest.mark.parametrize(
    "argv, text",
    [
        (("matrix", "union", "--a", "{f}", "--b", "{f}"), "2" * 200000 + "\n"),
        (("matrix", "trace", "--a", "{f}"), LONG + "\n"),
        (("dft", "--input", "{f}"), LONG + "\n"),
        (
            ("identify", "fourier", "--input", "{f}"),
            json.dumps({"N": 1, "signals": [{"id": LONG, "samples": []}]}),
        ),
    ],
    ids=["magnitude-cell", "complex-cell", "sequence-line", "signal-id"],
)
def test_offending_input_is_echoed_as_a_short_excerpt(run, tmp_path, argv, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(*(arg.format(f=path) for arg in argv))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert len(err) < 200


def _run_on(argv, text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli([arg.format(f=path) for arg in argv])
    return code, err.getvalue()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["N", "signals", "reference", "id", "samples", "amplitudes"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)
_cells = st.text(alphabet="0123456789.-+@,einfa x\n", max_size=40)

FUZZ_KINDS = {
    "signal": (
        ("identify", "fourier", "--input", "{f}"),
        st.text() | _json_values.map(json.dumps),
    ),
    "magnitude": (("matrix", "usual", "--a", "{f}", "--b", "{f}"), st.text() | _cells),
    "complex": (("matrix", "maxmin", "--a", "{f}", "--b", "{f}"), st.text() | _cells),
    "sequence": (("dft", "--input", "{f}"), st.text() | _cells),
}


@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_arbitrary_input_ends_in_a_documented_exit_code(kind, data):
    argv, texts = FUZZ_KINDS[kind]
    code, err = _run_on(argv, data.draw(texts))
    assert code in {0, 1, 2, 3, 64}
    assert "Traceback" not in err


# -- complex and block matrix ops: full output, recorded before the two-grid
# storage and the threshold-sweep max-min ------------------------------------

CF_PAIR = ("--a", str(DATA / "cf_a.csv"), "--b", str(DATA / "cf_b.csv"))
MAG4_PAIR = ("--a", str(DATA / "mag4_a.csv"), "--b", str(DATA / "mag4_b.csv"))

FULL_OUTPUTS = {
    ("maxmin", *CF_PAIR): (
        "0.4@0.523598775598,0.4@1.57079632679,0.5@1.57079632679\n"
        "0.3@0.785398163397,0.1@0.785398163397,0.3@3.14159265359\n"
        "0.2@0,0.2@0.785398163397,0.5@1.0471975512\n"
    ),
    ("add", *CF_PAIR): (
        "0.6@1.57079632679,0.4@3.14159265359,0.5@0\n"
        "0.8@0,0.4@3.14159265359,0.7@3.14159265359\n"
        "1@0.785398163397,0.2@1.0471975512,1@3.14159265359\n"
    ),
    ("trace", "--a", str(DATA / "cf_a.csv")): "0.6@3.14159265359\n",
    ("ctrans", "--a", str(DATA / "cf_a.csv")): (
        "0.6@4.71238898038,0@0,1@0\n"
        "0.4@4.71238898038,0.1@3.14159265359,0.2@5.23598775598\n"
        "0.1@0,0.3@5.49778714378,0@0\n"
    ),
    ("or", *MAG4_PAIR): (
        "0.2,0.4,0.1,0.1,0.4,0.4,0.4,0.4,0.2,0.4,0,0.1,0.2,0.4,0.2,0.2\n"
        "0.3,0.7,0.2,0.2,0.6,0.7,0.6,0.6,0.3,0.7,0,0.2,0.3,0.7,0.3,0.3\n"
        "0.8,0.8,0.7,0.7,0.8,0.8,0.2,0.4,0.8,0.8,0,0.4,0.8,0.8,0.5,0.5\n"
        "0.5,0.4,0.4,0.7,0.5,0.3,0.3,0.7,0.5,0.3,0,0.7,0.9,0.9,0.9,0.9\n"
    ),
    ("andnot", *MAG4_PAIR): (
        "0.1,0.1,0.1,0.1,0.4,0.4,0.4,0.4,0,0,0,0,0.2,0.2,0.2,0.2\n"
        "0.2,0.2,0.2,0.2,0.6,0.3,0.6,0.6,0,0,0,0,0.3,0.3,0.3,0.3\n"
        "0.2,0.2,0.7,0.6,0.2,0.2,0.2,0.2,0,0,0,0,0.2,0.2,0.5,0.5\n"
        "0.4,0.4,0.4,0.3,0.3,0.3,0.3,0.3,0,0,0,0,0.5,0.7,0.9,0.3\n"
    ),
    ("ornot", *MAG4_PAIR): (
        "0.8,0.6,1,0.9,0.8,0.6,1,0.9,0.8,0.6,1,0.9,0.8,0.6,1,0.9\n"
        "0.7,0.3,1,0.8,0.7,0.6,1,0.8,0.7,0.3,1,0.8,0.7,0.3,1,0.8\n"
        "0.7,0.7,1,0.7,0.2,0.2,1,0.6,0.2,0.2,1,0.6,0.5,0.5,1,0.6\n"
        "0.5,0.7,1,0.4,0.5,0.7,1,0.3,0.5,0.7,1,0.3,0.9,0.9,1,0.9\n"
    ),
}


@pytest.mark.parametrize("argv", list(FULL_OUTPUTS), ids=lambda argv: argv[0])
def test_matrix_full_output(run, argv):
    assert run("matrix", *argv) == (0, FULL_OUTPUTS[argv], "")


def _count_cell_objects(monkeypatch):
    """Record every ComplexFuzzyNumber built, checked or trusted."""
    built = []
    check = ComplexFuzzyNumber.__post_init__
    trusted = ComplexFuzzyNumber._trusted

    def counting_check(self):
        built.append(self)
        check(self)

    def counting_trusted(cls, amplitude, phase):
        built.append(trusted(amplitude, phase))
        return built[-1]

    monkeypatch.setattr(ComplexFuzzyNumber, "__post_init__", counting_check)
    monkeypatch.setattr(ComplexFuzzyNumber, "_trusted", classmethod(counting_trusted))
    return built


@pytest.mark.parametrize(
    "argv, objects",
    [
        (("maxmin", *CF_PAIR), 0),
        (("add", *CF_PAIR), 0),
        (("ctrans", "--a", str(DATA / "cf_a.csv")), 0),
        # trace returns its one value as a ComplexFuzzyNumber
        (("trace", "--a", str(DATA / "cf_a.csv")), 1),
    ],
    ids=lambda case: case[0] if isinstance(case, tuple) else None,
)
def test_complex_matrix_ops_build_no_cell_objects(run, monkeypatch, argv, objects):
    built = _count_cell_objects(monkeypatch)
    assert run("matrix", *argv) == (0, FULL_OUTPUTS[argv], "")
    assert len(built) == objects


def test_literal_maxmin_builds_each_matrix_cell_once(monkeypatch):
    n = 6
    built = _count_cell_objects(monkeypatch)
    cells = [[((i * n + j) % 7 / 7, (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    a = ComplexFuzzyMatrix.from_rows(cells)
    b = ComplexFuzzyMatrix.from_rows(cells[::-1])
    out = naive_maxmin(a, b)
    # the literal loop reads 2 * n**3 cells through at(), which indexes the
    # entries tuple each matrix builds once
    assert out.at(n - 1, n - 1) is out.at(n - 1, n - 1)
    assert len(built) <= 3 * n * n


# -- complex cells: boundaries of the parser and of conjugation ------------------


@pytest.mark.parametrize(
    "text, op, want",
    [
        ("0,1\n", "ctrans", "0@0\n1@0\n"),
        ("1@0,0@1\n", "ctrans", "1@0\n0@5.28318530718\n"),
        ("-0.0@-0.0\n", "ctrans", "0@0\n"),
        ("-0.0@-0.0\n", "trace", "0@0\n"),
        ("0.5@6.283185307179586,0.5@-1\n", "ctrans", "0.5@0\n0.5@1\n"),
        ("0.5@6.283185307179586\n", "trace", "0.5@0\n"),
        ("0.5@-1\n", "trace", "0.5@5.28318530718\n"),
        ("0.5@\n", "trace", "0.5@0\n"),
        (" 0.5 @ 1 \n", "trace", "0.5@1\n"),
        ("1e-400@-1e-400\n", "trace", "0@0\n"),
        # 2*pi - 1e-17 rounds to 2*pi, which must wrap to 0
        (
            "0.5@1e-17,1@6.283185307179586\n0@-0.0,0.25@-1\n",
            "ctrans",
            "0.5@0,0@0\n1@0,0.25@1\n",
        ),
    ],
)
def test_complex_cell_boundaries(run, tmp_path, text, op, want):
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert run("matrix", op, "--a", str(path)) == (0, want, "")


@pytest.mark.parametrize(
    "cell", ["nan", "inf", "1.5", "-1", "0.5@nan", "0.5@inf", "0.5@1@2", "@1"]
)
def test_complex_cell_rejections(run, tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"0.5,{cell}\n")
    assert run("matrix", "ctrans", "--a", str(path)) == (
        2,
        "",
        "cfsm: error: line 1 column 2: expected amplitude@phase with a finite "
        f"phase and the amplitude in [0, 1], got {cell!r}\n",
    )
