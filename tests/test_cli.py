import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

import arithreg.errors
from arithreg.cli import (COMMANDS, MAX_Z_EXPONENT, _build_job, main, parse_complex,
                          parse_element, parse_element_expr, run_job)
from arithreg.errors import SchemaError, quoted
from arithreg.precision import DEFAULT_DIGITS
from time_limits import time_limit

CUBIC = '{"poly":[1,-1,0,1]}'
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, stdin=None):
    # the child interpreter imports the checkout's src/, as the tests do
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "arithreg.cli", *args],
                          capture_output=True, text=True, input=stdin, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


class TestElementParsing:
    def test_expression_inverse_power(self, fields):
        K = fields["cubic"]
        el = parse_element_expr("(1-x)^-1", K, "element")
        assert (el * (K.one() - K.gen())).is_one()

    def test_rational_coefficients(self, fields):
        K = fields["Qi"]
        el = parse_element_expr("1/2 + 3/4*x", K, "element")
        from fractions import Fraction
        assert el.coeffs == (Fraction(1, 2), Fraction(3, 4))

    def test_double_star_power(self, fields):
        K = fields["Qi"]
        assert parse_element_expr("x**2", K, "element") == K.gen() ** 2

    def test_coefficient_record(self, fields):
        K = fields["Qi"]
        el = parse_element({"coeffs": ["1/2", "-3"]}, K, "element")
        from fractions import Fraction
        assert el.coeffs == (Fraction(1, 2), Fraction(-3))

    def test_garbage_rejected(self, fields):
        with pytest.raises(SchemaError):
            parse_element_expr("x + $", fields["Qi"], "element")

    def test_unbalanced_paren(self, fields):
        with pytest.raises(SchemaError):
            parse_element_expr("(1+x", fields["Qi"], "element")

    def test_decimal_digits_of_any_script_are_numbers(self, fields):
        K = fields["cubic"]
        # Arabic-Indic 3, full-width 1 2, and a run that mixes scripts
        assert parse_element_expr("٣*x + １２", K, "element") == K.element([12, 3])
        assert parse_element_expr("1٠٣", K, "element") == K.element([103])

    def test_any_whitespace_separates_tokens(self, fields):
        K = fields["cubic"]
        assert parse_element_expr("\n(x\xa0+\t1)\xa0^\n2\t", K, "element") == (K.gen() + 1) ** 2

    @pytest.mark.parametrize("text, message", [
        ("1_0", "unexpected character '_' in element expression"),
        ("1.5", "unexpected character '.' in element expression"),
        ("0x10", "trailing input in element expression '0x10'"),
        ("2x", "trailing input in element expression '2x'"),
    ])
    def test_number_forms_other_than_decimal_digits_rejected(self, fields, text, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_element_expr(text, fields["cubic"], "element")

    def test_exponents(self, fields):
        K = fields["cubic"]
        x = K.gen()
        assert (parse_element_expr("x**3", K, "element")
                == parse_element_expr("x^3", K, "element") == x ** 3)
        assert parse_element_expr("x^--2", K, "element") == x ** 2
        assert parse_element_expr("x^+-1", K, "element") == x ** -1
        assert parse_element_expr("x ** - + - 2", K, "element") == x ** 2


class TestParseComplex:
    def test_forms(self):
        with mp.workdps(30):
            assert parse_complex("0.5+0i") == mp.mpc("0.5", "0")
            assert parse_complex("-1.2-0.3i") == mp.mpc("-1.2", "-0.3")
            assert parse_complex("i") == mp.mpc(0, 1)
            assert parse_complex("-i") == mp.mpc(0, -1)
            assert parse_complex("2.5e-3") == mp.mpc("0.0025", "0")

    def test_reject(self):
        with pytest.raises(SchemaError):
            parse_complex("zzz+1i")


class TestCommands:
    def test_kranks_qi(self):
        code, out, err = run_cli("kranks", "--field", '{"poly":[1,0,1]}',
                                 "--max-p", "3", "--output", "json")
        assert code == 0, err
        table = json.loads(out)
        row3 = [r for r in table["rows"] if r["degree"] == -3][0]
        assert row3["rank"] == 1

    def test_dilog_half(self):
        code, out, err = run_cli("dilog", "--z", "0.5+0i", "--precision", "50",
                                 "--output", "json")
        assert code == 0, err
        rec = json.loads(out)
        with mp.workdps(60):
            oracle = mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2
            assert abs(mpf(rec["li2_re"]) - oracle) < mpf(10) ** -45
        assert mpf(rec["li2_im"]) == 0

    def test_bloch_check_shifted_root_family(self):
        code, out, err = run_cli("bloch-check", "--field", CUBIC,
                                 "--candidates", '["x","(1-x)^-1"]',
                                 "--output", "json")
        assert code == 0, err
        rec = json.loads(out)
        from arithreg.intmat import in_lattice
        assert in_lattice([2, 1], rec["kernel_basis"])
        assert rec["torsion_order"] == 2
        assert len(rec["regulators"]) == len(rec["kernel_basis"])

    def test_regulator_command(self):
        job = {"schema": 1, "command": "regulator", "precision": 50,
               "output": "json",
               "field": {"poly": [1, -1, 0, 1]},
               "payload": {"bloch": {"support": ["x", "(1-x)^-1"],
                                     "multiplicities": [2, 1]}}}
        code, out, err = run_cli("--job", "-", stdin=json.dumps(job))
        assert code == 0, err
        rec = json.loads(out)
        assert rec["weight"] == "k3"
        vals = [mpf(v) for v in rec["values"]]
        assert vals[0] == 0  # real embedding
        assert abs(vals[1] + vals[2]) == 0

    def test_regulator_rejects_non_kernel(self):
        job = {"schema": 1, "command": "regulator", "precision": 50,
               "field": {"poly": [1, -1, 0, 1]},
               "payload": {"bloch": {"support": ["x"], "multiplicities": [1]}}}
        code, out, err = run_cli("--job", "-", stdin=json.dumps(job))
        assert code == 2
        assert "error[domain]" in err

    def test_unit_reg(self):
        code, out, err = run_cli("unit-reg", "--field", '{"poly":[-2,0,1]}',
                                 "--element", "1+x", "--output", "json")
        assert code == 0, err
        rec = json.loads(out)
        vals = [mpf(v) for v in rec["values"]]
        with mp.workdps(55):
            assert abs(vals[0] + vals[1]) < mpf(10) ** -45

    def test_degree_and_height(self):
        bundle = '{"ideal_basis":[["2"]],"metric":["4"]}'
        code, out, err = run_cli("degree", "--field", '{"poly":[0,1]}',
                                 "--bundle", bundle, "--output", "json")
        assert code == 0, err
        rec = json.loads(out)
        with mp.workdps(55):
            assert abs(mpf(rec["degree"]) + mp.log(2)) < mpf(10) ** -45
        code, out, err = run_cli("height", "--field", '{"poly":[0,1]}',
                                 "--bundle", bundle, "--N", "1",
                                 "--generator", "2", "--output", "json")
        assert code == 0, err
        rec = json.loads(out)
        assert mpf(rec["abs_difference"]) < mpf(10) ** -40

    def test_field_info_text(self):
        code, out, err = run_cli("field-info", "--field", CUBIC)
        assert code == 0, err
        assert "signature: [1, 1]" in out


class TestErrorsAndDeterminism:
    def test_schema_error_names_key(self):
        code, out, err = run_cli("degree", "--field", '{"poly":[0,1]}',
                                 "--bundle", '{"metric":["1"]}')
        assert code == 1
        assert "ideal_basis" in err

    def test_unknown_command_in_job(self):
        job = {"schema": 1, "command": "nope", "field": {"poly": [0, 1]}}
        code, out, err = run_cli("--job", "-", stdin=json.dumps(job))
        assert code == 1

    def test_domain_error_exit_2(self):
        code, out, err = run_cli("unit-reg", "--field", '{"poly":[0,1]}',
                                 "--element", "2")
        assert code == 2
        assert err.startswith("error[domain]")

    def test_section_outside_ideal_exit_2(self):
        code, out, err = run_cli("degree", "--field", '{"poly":[0,1]}',
                                 "--bundle", '{"ideal_basis":[["2"]],"metric":["4"]}',
                                 "--section", "3")
        assert code == 2
        assert err.startswith("error[domain]")
        assert "\n" not in err.strip()

    def test_bad_field_json(self):
        code, out, err = run_cli("field-info", "--field", "{notjson")
        assert code == 1

    def test_byte_identical_reruns(self):
        args = ("bloch-check", "--field", CUBIC,
                "--candidates", '["x","(1-x)^-1"]', "--output", "json")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_run_job_inprocess(self):
        buf = io.StringIO()
        job = {"schema": 1, "command": "kranks", "precision": 50,
               "output": "json", "field": {"poly": [0, 1]},
               "payload": {"max_p": 2}}
        code = run_job(job, out=buf)
        assert code == 0
        assert json.loads(buf.getvalue())["signature"] == [1, 0]


MALFORMED_JOBS = {
    "dilog-z-word": {"command": "dilog", "payload": {"z": "abc"}},
    "dilog-z-exponent": {"command": "dilog", "payload": {"z": "1e"}},
    "basis-entry": {"command": "field-info",
                    "field": {"poly": [1, 0, 1],
                              "integral_basis": [["1", "0"], ["abc", "1"]]}},
    "basis-scalar": {"command": "field-info",
                     "field": {"poly": [1, 0, 1], "integral_basis": 5}},
    "maximal-string": {"command": "field-info",
                       "field": {"poly": [1, 0, 1], "maximal": "no"}},
    "metric-entry": {"command": "degree", "field": {"poly": [0, 1]},
                     "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["zz"]}}},
    "ideal-entry": {"command": "degree", "field": {"poly": [0, 1]},
                    "payload": {"bundle": {"ideal_basis": [["x"]], "metric": ["4"]}}},
    "ideal-entry-boolean": {"command": "degree", "field": {"poly": [1, 0, 1]},
                            "payload": {"bundle": {"ideal_basis": [[True, False], [False, True]],
                                                   "metric": ["1", "1"]}}},
    "ideal-row-string": {"command": "degree", "field": {"poly": [1, 0, 1]},
                         "payload": {"bundle": {"ideal_basis": ["10", "01"],
                                                "metric": ["1", "1"]}}},
    # every row has one entry per basis element, as integral_basis rows do
    "ideal-row-short": {"command": "degree", "field": {"poly": [-1, -1, 1]},
                        "payload": {"bundle": {"ideal_basis": [[1, 0], [0]], "metric": ["1", "1"]}}},
    "ideal-row-long": {"command": "degree", "field": {"poly": [-1, -1, 1]},
                       "payload": {"bundle": {"ideal_basis": [[1, 0, 0], [0, 1, 0]],
                                              "metric": ["1", "1"]}}},
    "ideal-entry-float": {"command": "degree", "field": {"poly": [0, 1]},
                          "payload": {"bundle": {"ideal_basis": [[0.5]], "metric": ["4"]}}},
    "basis-entry-boolean": {"command": "field-info",
                            "field": {"poly": [1, 0, 1],
                                      "integral_basis": [[True, False], [False, True]]}},
    "coeffs-word": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                    "payload": {"element": {"coeffs": ["q", "1"]}}},
    "coeffs-zero-denominator": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                                "payload": {"element": {"coeffs": ["1/0"]}}},
    "coeffs-float": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                     "payload": {"element": {"coeffs": [0.5, 1]}}},
    "coeffs-float-exponent": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                              "payload": {"element": {"coeffs": [1e-1, 1]}}},
    "dilog-z-nan": {"command": "dilog", "payload": {"z": "nan"}},
    "dilog-z-nan-real-part": {"command": "dilog", "payload": {"z": "nan+1i"}},
    "dilog-z-inf": {"command": "dilog", "payload": {"z": "inf"}},
    "metric-inf": {"command": "degree", "field": {"poly": [0, 1]},
                   "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["inf"]}}},
    "metric-nan": {"command": "degree", "field": {"poly": [0, 1]},
                   "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["nan"]}}},
    # mpmath reads "a/b" as a rational and divides, so b = 0 divides by zero
    "dilog-z-zero-denominator": {"command": "dilog", "payload": {"z": "1/0"}},
    "dilog-z-zero-over-zero": {"command": "dilog", "payload": {"z": "0/0"}},
    "dilog-z-zero-denominator-imaginary-part": {"command": "dilog", "payload": {"z": "2+1/0i"}},
    "metric-zero-denominator": {"command": "degree", "field": {"poly": [0, 1]},
                                "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["1/0"]}}},
    "metric-zero-over-zero": {"command": "degree", "field": {"poly": [0, 1]},
                              "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["0/0"]}}},
    "max-p-boolean": {"command": "kranks", "field": {"poly": [0, 1]},
                      "payload": {"max_p": True}},
    "n-boolean": {"command": "height", "field": {"poly": [0, 1]},
                  "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["4"]},
                              "N": True, "generator": "2"}},
    "multiplicity-boolean": {"command": "regulator", "field": {"poly": [1, -1, 0, 1]},
                             "payload": {"bloch": {"support": ["x", "(1-x)^-1"],
                                                   "multiplicities": [2, True]}}},
    # a superscript is a digit to str.isdigit but not to int()
    "element-superscript": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                            "payload": {"element": "x\u00b2"}},
    "element-deep-parentheses": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                                 "payload": {"element": "(" * 300 + "x" + ")" * 300}},
    "element-deep-signs": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                           "payload": {"element": "-" * 2000 + "x"}},
    # an element is an expression or a coefficient record, never a bare list
    "element-bare-list": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                          "payload": {"element": ["0", "1"]}},
    "generator-bare-list": {"command": "height", "field": {"poly": [0, 1]},
                            "payload": {"bundle": {"ideal_basis": [["2"]], "metric": ["4"]},
                                        "N": 1, "generator": ["2"]}},
    "candidate-bare-list": {"command": "bloch-check", "field": {"poly": [1, -1, 0, 1]},
                            "payload": {"candidates": [["0", "1"]]}},
    "coeffs-scalar": {"command": "unit-reg", "field": {"poly": [1, 0, 1]},
                      "payload": {"element": {"coeffs": 5}}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JOBS))
def test_malformed_input_is_one_schema_line(name, capsys):
    buf = io.StringIO()
    code = run_job(dict(MALFORMED_JOBS[name], schema=1), out=buf)
    err = capsys.readouterr().err
    assert code == 1
    assert buf.getvalue() == ""
    assert err.startswith("error[schema]: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("output", ["JSON", ["json"], None, ""])
def test_output_other_than_text_or_json_is_a_schema_violation(output, capsys):
    """A job's output is "text" or "json"; any other value is one schema
    line, reported before the field is read, so an unparsable field does
    not mask it."""
    for field in ({"poly": [1, 0, 1]}, {"poly": [1]}):
        buf = io.StringIO()
        job = {"schema": 1, "command": "field-info", "field": field, "output": output}
        assert run_job(job, out=buf) == 1
        assert buf.getvalue() == ""
        err = capsys.readouterr().err
        assert err == "error[schema]: key 'output' must be \"text\" or \"json\"\n"


QI = '{"poly":[1,0,1]}'
RATIONALS = '{"poly":[0,1]}'
BUNDLE = '{"ideal_basis":[["2"]],"metric":["4"]}'


def _json_job(command, payload, field=None, **top):
    job = dict({"schema": 1, "command": command, "payload": payload}, **top)
    if field is not None:
        job["field"] = json.loads(field)
    return job


# an argument vector and the JSON job it stands for, per command; flags with
# a default both given and omitted, --precision and --output on both sides of
# the subcommand, and one job of each that fails in the handler
ARGV_AND_JSON_JOBS = {
    "field-info": (["field-info", "--field", CUBIC], _json_job("field-info", {}, CUBIC)),
    "dilog": (["dilog", "--z", "0.5+0.25i"], _json_job("dilog", {"z": "0.5+0.25i"})),
    "bloch-check": (["bloch-check", "--field", CUBIC, "--candidates", '["x","(1-x)^-1"]'],
                    _json_job("bloch-check", {"candidates": ["x", "(1-x)^-1"]}, CUBIC)),
    "regulator": (["regulator", "--field", CUBIC,
                   "--bloch", '{"support":["x","(1-x)^-1"],"multiplicities":[2,1]}'],
                  _json_job("regulator", {"bloch": {"support": ["x", "(1-x)^-1"],
                                                    "multiplicities": [2, 1]}}, CUBIC)),
    "regulator-not-in-kernel": (["regulator", "--field", CUBIC,
                                 "--bloch", '{"support":["x"],"multiplicities":[1]}'],
                                _json_job("regulator", {"bloch": {"support": ["x"],
                                                                  "multiplicities": [1]}}, CUBIC)),
    "unit-reg": (["unit-reg", "--field", '{"poly":[-2,0,1]}', "--element", "1+x"],
                 _json_job("unit-reg", {"element": "1+x"}, '{"poly":[-2,0,1]}')),
    "unit-reg-not-a-unit": (["unit-reg", "--field", RATIONALS, "--element", "2"],
                            _json_job("unit-reg", {"element": "2"}, RATIONALS)),
    "degree": (["degree", "--field", RATIONALS, "--bundle", BUNDLE],
               _json_job("degree", {"bundle": json.loads(BUNDLE)}, RATIONALS)),
    "degree-section": (["degree", "--field", RATIONALS, "--bundle", BUNDLE, "--section", "6"],
                       _json_job("degree", {"bundle": json.loads(BUNDLE), "section": "6"},
                                 RATIONALS)),
    "height": (["height", "--field", RATIONALS, "--bundle", BUNDLE, "--N", "2",
                "--generator", "4"],
               _json_job("height", {"bundle": json.loads(BUNDLE), "N": 2, "generator": "4"},
                         RATIONALS)),
    "kranks": (["kranks", "--field", QI], _json_job("kranks", {}, QI)),
    "kranks-max-p": (["kranks", "--field", QI, "--max-p", "3"],
                     _json_job("kranks", {"max_p": 3}, QI)),
    "options-before": (["--precision", "30", "--output", "json", "unit-reg", "--field", QI,
                        "--element", "x"],
                       _json_job("unit-reg", {"element": "x"}, QI, precision=30, output="json")),
    "options-after": (["unit-reg", "--field", QI, "--element", "x", "--precision", "30",
                       "--output", "json"],
                      _json_job("unit-reg", {"element": "x"}, QI, precision=30, output="json")),
}


def test_argv_and_json_jobs_cover_every_command():
    assert {job["command"] for _, job in ARGV_AND_JSON_JOBS.values()} == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(ARGV_AND_JSON_JOBS))
def test_argv_job_runs_as_its_json_job(name, capsys):
    argv, job = ARGV_AND_JSON_JOBS[name]
    runs = []
    for built in (_build_job(argv), job):
        out = io.StringIO()
        code = run_job(built, out=out)
        runs.append((code, out.getvalue(), capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if name.endswith(("-kernel", "-unit")) else 0), runs[0][2]


def test_job_flag_reads_stdin_only(capsys):
    assert main(["--job", "/nonexistent", "field-info", "--field", QI]) == 1
    assert capsys.readouterr().err == (
        "error[schema]: --job reads a job from stdin only; its value must be '-'\n")


def run_argv(argv, capsys):
    """Exit code, stdout and stderr of the argument vector run in-process."""
    out = io.StringIO()
    code = run_job(_build_job(argv), out=out)
    return code, out.getvalue(), capsys.readouterr().err


@pytest.mark.parametrize("support, multiplicities", [(["-x"], [1]), (["-x", "x^2"], [1, 0])])
def test_zero_multiplicity_support_keeps_the_kernel_verdict(support, multiplicities, capsys):
    bloch = json.dumps({"support": support, "multiplicities": multiplicities})
    assert run_argv(["regulator", "--field", CUBIC, "--bloch", bloch], capsys) == (
        2, "", "error[domain]: formal sum is not in the wedge-map kernel\n")


def test_bloch_check_where_the_smith_transform_is_not_the_identity(capsys):
    code, out, err = run_argv(["bloch-check", "--field", '{"poly":[1,-1,0,0,0,1]}',
                               "--candidates", '["-x","x"]', "--output", "json"], capsys)
    assert code == 0, err
    rec = json.loads(out)
    assert rec["kernel_basis"] == [[0, 2]]
    assert rec["torsion_only_kernel"] == [[0, 1]]


@pytest.mark.parametrize("argv, key", [
    (["field-info", "--field", "{bad"], "field"),
    (["bloch-check", "--field", CUBIC, "--candidates", "[x]"], "candidates"),
    (["regulator", "--field", CUBIC, "--bloch", "{bad"], "bloch"),
    (["degree", "--field", RATIONALS, "--bundle", "{bad"], "bundle"),
    (["height", "--field", RATIONALS, "--bundle", "{bad", "--N", "1", "--generator", "2"],
     "bundle"),
])
def test_invalid_json_flag_names_its_key(argv, key, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error[schema]: key '{key}' is not valid JSON")


LONG = "1" * 5000  # over Python's limit of 4300 digits on int-string conversion
LONG_BASIS = json.dumps({"ideal_basis": [[LONG, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                         "metric": [1, 1, 1]})
UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


# key -> (argument vector, stdin) of a job whose value of key holds a number
# over the limit, one per path that reads such a number
OVERSIZED_NUMBER_JOBS = {
    "element": (["unit-reg", "--field", CUBIC, "--element", f"x + {LONG}"], None),
    "support": (["--job", "-"], json.dumps({
        "command": "regulator", "field": json.loads(CUBIC),
        "payload": {"bloch": {"support": [{"coeffs": [LONG, "0", "0"]}],
                              "multiplicities": [1]}}})),
    "ideal_basis": (["degree", "--field", CUBIC, "--bundle", LONG_BASIS], None),
    "integral_basis": (["field-info", "--field", json.dumps(
        {"poly": [1, -1, 0, 1], "integral_basis": [[LONG, "0", "0"]] + UNIT_BASIS[1:]})], None),
    "field": (["field-info", "--field", f'{{"poly":[{LONG},-1,0,1]}}'], None),
    "job": (["--job", "-"], f'{{"command":"field-info","field":{{"poly":[{LONG},-1,0,1]}}}}'),
    "z": (["dilog", "--z", f"0.5+{LONG}i"], None),
    "metric": (["degree", "--field", CUBIC, "--bundle", json.dumps(
        {"ideal_basis": UNIT_BASIS, "metric": [LONG, 1, 1]})], None),
}


@pytest.mark.parametrize("key", sorted(OVERSIZED_NUMBER_JOBS))
def test_oversized_number_is_one_schema_line(key, monkeypatch, capsys):
    """A number over Python's int-string limit is one schema line that names
    the key and the limit and quotes 80 characters of the number, not a
    traceback or Python's advice to raise the limit."""
    argv, stdin = OVERSIZED_NUMBER_JOBS[key]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error[schema]: key '{key}' holds a number of 5000 characters, over the "
                   f"limit of {sys.get_int_max_str_digits()} digits: {LONG[:80]}...\n")


# command -> (payload, key) of a dict job whose payload holds an int over the
# int-string limit, which no JSON text can; one per path that printed it
INT_OVER_LIMIT_JOBS = {
    "degree": ({"bundle": {"ideal_basis": UNIT_BASIS, "metric": [10 ** 5000, 1, 1]}}, "metric"),
    "unit-reg": ({"element": {"nocoeffs": 10 ** 5000}}, "element"),
    "bloch-check": ({"candidates": [{"x": 10 ** 5000}]}, "candidates"),
}


@pytest.mark.parametrize("command", sorted(INT_OVER_LIMIT_JOBS))
def test_int_over_the_limit_in_a_dict_job_is_one_schema_line(command, capsys):
    """run_job takes dicts, whose ints have no length limit: such an int is
    one schema line naming its key, not a ValueError from printing it."""
    payload, key = INT_OVER_LIMIT_JOBS[command]
    job = {"command": command, "field": json.loads(CUBIC), "payload": payload}
    assert run_job(job, out=io.StringIO()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[schema]: ") and f"key '{key}'" in err


TEXT_4000 = "a" * 4000  # under the int-string limit: no oversized_number message

# path -> a job whose schema message quotes a long input
QUOTED_INPUT_JOBS = {
    "poly": {"command": "field-info", "field": {"poly": [TEXT_4000, -1, 0, 1]}},
    "rational": _json_job("degree", {"bundle": {"ideal_basis": [[TEXT_4000, "0", "0"]]
                                                + UNIT_BASIS[1:], "metric": [1, 1, 1]}}, CUBIC),
    "trailing": _json_job("unit-reg", {"element": "1" + " 1" * 2000}, CUBIC),
    "z": {"command": "dilog", "payload": {"z": TEXT_4000}},
    "metric": _json_job("degree", {"bundle": {"ideal_basis": UNIT_BASIS,
                                              "metric": [TEXT_4000, 1, 1]}}, CUBIC),
    "command": {"command": TEXT_4000},
    "payload": _json_job("unit-reg", {"element": {"x": "y" * 4990}}, CUBIC),
}


@pytest.mark.parametrize("name", sorted(QUOTED_INPUT_JOBS))
def test_quoted_input_is_one_short_line(name, capsys):
    """A message that quotes caller input quotes at most 80 characters."""
    assert run_job(QUOTED_INPUT_JOBS[name], out=io.StringIO()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[schema]: ")
    assert len(err.encode()) < 250


def test_quoted():
    assert quoted("abc") == "'abc'" and quoted([1, None]) == "[1, None]"
    assert quoted("a" * 78) == repr("a" * 78)
    assert quoted("a" * 100) == repr("a" * 100)[:80] + "..."
    assert quoted(10 ** 5000) == "<int past the int-string limit>"
    assert quoted({"x": [10 ** 5000]}) == "<dict past the int-string limit>"


@pytest.mark.parametrize("argv", [["dilog", "--zz", "1"], ["dilog"], ["frob"],
                                  ["--precision", "abc", "dilog", "--z", "1"],
                                  ["--precision", "1" * 4000 + "x", "dilog", "--z", "1"],
                                  ["x" * 4000], ["dilog", "--z", "1", "y" * 4000],
                                  ["dilog", "--z=1", "--output=" + "t" * 4000]])
def test_usage_error_is_one_schema_line(argv, capsys):
    """A command line the parser rejects exits 1 with one error[schema]
    line, as every schema violation does, prints no usage, and quotes at
    most 80 characters of each argument it echoes."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error[schema]: ")
    assert len(err.encode()) < 250


@pytest.mark.parametrize("argv", [["--help"], ["dilog", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: arithreg")


@pytest.mark.parametrize("z", ["1e-200000001+1i", "0.5-1e-300000000i", "1e200000001",
                               "2e200000001i"])
def test_z_part_beyond_the_exponent_bound_is_one_schema_line(z, capsys):
    """Next to |z| = 1, mpmath's complex log sums the squares of both parts
    exactly: a part whose decimal exponent is beyond MAX_Z_EXPONENT is
    refused before any work."""
    with time_limit(5):
        assert main(["dilog", f"--z={z}"]) == 1
    assert capsys.readouterr().err == (
        f"error[schema]: key 'z' holds a part whose decimal exponent exceeds "
        f"{MAX_Z_EXPONENT} in absolute value: {z!r}\n")


@pytest.mark.parametrize("z", ["1e-1000000+1i", "0.5-9.99e200000000i", "0+0i"])
def test_z_part_within_the_exponent_bound_is_accepted(z, capsys):
    assert main(["dilog", f"--z={z}", "--precision", "20"]) == 0
    assert capsys.readouterr().err == ""


def test_empty_section_is_a_schema_violation(capsys):
    """An empty --section is parsed like the job key "section": "", not
    dropped in favour of the reference section."""
    argv, job = ARGV_AND_JSON_JOBS["degree-section"]
    job = dict(job, payload=dict(job["payload"], section=""))
    assert run_job(_build_job(argv[:-1] + [""]), out=io.StringIO()) == 1
    assert run_job(job, out=io.StringIO()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1] and err[0].startswith("error[schema]: ")


# exit code and label of each error class, as the errors module documents
# them: FormatError/SchemaError -> 1, DomainError and subclasses -> 2,
# PrecisionError -> 3; a bare ArithregError is a domain error
ERROR_EXITS = {
    "ArithregError": (2, "domain"),
    "FormatError": (1, "schema"),
    "SchemaError": (1, "schema"),
    "DomainError": (2, "domain"),
    "MembershipError": (2, "domain"),
    "PrincipalityError": (2, "domain"),
    "PresentationIncompleteError": (2, "domain"),
    "SquarefreeError": (2, "domain"),
    "PrecisionError": (3, "precision"),
}


def test_error_exits_cover_every_error_class():
    classes = {name for name, obj in vars(arithreg.errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == set(ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
def test_error_class_exit_code(name, monkeypatch, capsys):
    import arithreg.cli

    def fail(*args, **kwargs):
        raise getattr(arithreg.errors, name)("raised by the handler")

    monkeypatch.setattr(arithreg.cli, "li2_and_bloch_wigner", fail)
    out = io.StringIO()
    code, label = ERROR_EXITS[name]
    assert run_job({"command": "dilog", "payload": {"z": "0.5"}}, out=out) == code
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error[{label}]: raised by the handler\n"


# sha256 of the stdout of each README "Command line" example, recorded before
# the embedding cache and precision context were consolidated; every later
# refactor must reproduce these bytes
README_STDOUT_SHA256 = {
    "field-info": "e3f50b55cbbc4bc20b99914c896d699dc643eabd59c5ead877aad4c83fb5370a",
    "dilog": "fbd1982fca711cf1fdb574658995975e1706c98726c90a5964c8eee0af48aeb4",
    "unit-reg": "2d85d11da26ad30b2ddf536fb0ac72234f385a30cfae0a56e3e227b255ded617",
    "bloch-check": "26bca7bfe01eecc9f76b15ee5f2e56045efde3d1acb169824bd15e56ab25b6be",
    "regulator": "c342cac4520c813833986f0fea24749582b5ac6e77233e6f53c03287599569a3",
    "degree": "dce2bf8da5901879e2e96d54e571932160fe3af8b28ba512488b775f80bf2533",
    "height": "a9091977d004b79208da661e0a6c0359eebf60ef9a56f517dbceede4207f0099",
    "kranks": "8733cb1d98554343dd45d85a2afea60e22fd72d884d82dd9ab7920d7831496ff",
}


MIXED = '{"poly":[-1,-1,0,0,1]}'  # x^4 - x - 1, signature (2, 1)


def _unit_ideal_bundle(metric):
    rows = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return json.dumps({"ideal_basis": rows, "metric": metric})


# sha256 of the stdout of jobs whose vectors pass through the mirrored complex
# pair (embeddings 2 and 3) of a mixed-signature field, recorded before
# conjugation symmetry moved into EmbeddingSet
MIXED_SIGNATURE_JOBS = {
    "unit-reg": (["unit-reg", "--field", MIXED, "--element", "x"],
                 "3b821d067b65660e8dc1da93f8738064cbc4d573ec4d15f35e18748e76ec7b23"),
    "degree": (["degree", "--field", MIXED, "--bundle", _unit_ideal_bundle(["2", "3", "5", "5"]),
                "--section", "1+x^2"],
               "0624b895820453ccc6705fec8f5f9ad206b56b75b1791344f03ce318b25f0a66"),
    "height": (["height", "--field", MIXED, "--bundle", _unit_ideal_bundle(["2", "3", "5", "5"]),
                "--N", "2", "--generator", "x"],
               "bc7224bf2e10042a837a6938a4c904229801da0098f5abef3b060e3c8a3615ad"),
}


@pytest.mark.parametrize("name", sorted(MIXED_SIGNATURE_JOBS))
def test_mixed_signature_output_is_byte_identical(name, capsys):
    argv, digest = MIXED_SIGNATURE_JOBS[name]
    out = io.StringIO()
    assert run_job(_build_job(argv), out=out) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


QUINTIC = '{"poly":[-1,-1,0,0,0,1]}'  # x^5 - x - 1, signature (1, 2)

# power-basis rows of (x+2) * x^i, i < 5: a non-identity basis of the
# principal ideal (x+2), so membership and the index run through a real lattice
PRINCIPAL_BUNDLE = json.dumps({
    "ideal_basis": [["2", "1", "0", "0", "0"], ["0", "2", "1", "0", "0"],
                    ["0", "0", "2", "1", "0"], ["0", "0", "0", "2", "1"],
                    ["1", "1", "0", "0", "2"]],
    "metric": ["3", "0.5", "0.5", "0.5", "0.5"]})

# sha256 of the stdout of jobs on a non-identity ideal basis, recorded before
# ideal coordinates moved to a cached basis inverse
IDEAL_PATH_JOBS = {
    "degree": (["degree", "--field", QUINTIC, "--bundle", PRINCIPAL_BUNDLE],
               "9e7f62ee94e026ce44a15726a804cda4e411e6a80d7f9db85b09c94fe4ef78f7"),
    "height": (["height", "--field", QUINTIC, "--bundle", PRINCIPAL_BUNDLE,
                "--N", "2", "--generator", "(x+2)^2"],
               "ea446cc1434050c6e68a39f0b4325937c66937314e57abbafbb5aa201f421dc3"),
}


@pytest.mark.parametrize("name", sorted(IDEAL_PATH_JOBS))
def test_ideal_path_output_is_byte_identical(name, capsys):
    argv, digest = IDEAL_PATH_JOBS[name]
    out = io.StringIO()
    assert run_job(_build_job(argv), out=out) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# sha256 of the stdout of dilog jobs near the fixed points e^(+-i pi/3), at
# reduced modulus 0.96996, on the cut and inside the disk, each at 30, 50,
# 100 and 200 digits. The dyadic points (3, 0.25+0.125i) were recorded while
# li2 still switched from the power series to the Bernoulli series at reduced
# modulus 0.97. The other three were re-recorded when --z began to be parsed
# at working precision rather than as the nearest double; the oracle test
# below checks those outputs against mpmath's polylog at the exact decimal.
DILOG_STDOUT_SHA256 = {
    "0.5+0.8660254037844386i": {
        30: "75f34ca24a52cfd40f156f9e16e887c8e5f0794314ee247d3671b8858bfed81a",
        50: "641e21d2e49572338338687ce14dd741243c3372cef806f577c39c2024e9eeb5",
        100: "2480dd547d7714908b6b7c55221e528fc110b2db20fb8480cf2fbf89d349eb16",
        200: "8e5919eca155375d5a9d1896418675f6ec213ebe0b1d6e82ad626eb2f158162a",
    },
    "0.5-0.8660254037844386i": {
        30: "9a1fe4e467f91f2a8a3b80cd0d8f48699476334028a2165a417644caf31a0724",
        50: "f93e5c904f0d8f76ac02c860387d4f8956332050ae0bf86be08b8bc8fcd25928",
        100: "2443be8291d9abbe63541dbf6832bfeed7981687100516bc08d6922c8d42ef37",
        200: "06f1169922e7fdd4732934125c1c5961b02b3a00f3e6d5101ea5aaa64e8b2b3d",
    },
    "0.485+0.84i": {
        30: "87aa6c48ec405fd415568d463ed6b0d7448a0d45e27adef86386328bcd4135b2",
        50: "fd19f8edb508cc6396fa4fae87f316eb9e13c074dc4f8731364bdc8b02350723",
        100: "fa191b5cc8b1f3a8e2bcb56dd1bec8d9e5af9b85fb0204be95e68bf971fabbfd",
        200: "3c88ee6dda31e1ddbb3d92c241b528493393cce241471bf91ba490ef902e798d",
    },
    "3": {
        30: "3015ae18df1eff35157b8f3fa90a375678ede9e86bd0e59ba9154d4a22f4a5d3",
        50: "1a18fe41bc58e11faf696fbb635b8e40474b4f86f56e72b9a5ef878aab4ecb87",
        100: "c08e23da8910e01847f5d76664a34e29c6d1d41d05e4077000be5cb4ef4ca26a",
        200: "965a26d3fbcbe1ad684c5ab68d7d2c5deebd7068b720a66420c4a9180c60a82d",
    },
    "0.25+0.125i": {
        30: "b0b78572f85e390836633d632212496bbf2bcd1bdd5a0b6067a17271551863f3",
        50: "4ffb4be5611cf19c1f53750e805364200b4ff644e26ba0625c875c2f6f2b7892",
        100: "9c22c552be43cb98ced5e6f5757e969f9f8cffba10047edde23237104a7e6799",
        200: "888d593a519973e1741fd1c7b49bc0aacf9208d0a5b4204f4db30db0e2868ebc",
    },
}


@pytest.mark.parametrize("z", sorted(DILOG_STDOUT_SHA256))
def test_dilog_output_is_byte_identical(z, capsys):
    for digits, digest in DILOG_STDOUT_SHA256[z].items():
        out = io.StringIO()
        job = _build_job(["dilog", "--z", z, "--precision", str(digits)])
        assert run_job(job, out=out) == 0, capsys.readouterr().err
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, digits


@pytest.mark.parametrize("z", ["1e-100000000", "-1e-100000000+1e-100000001i", "1e100000000",
                               "1-1e-100000000i"])
def test_dilog_extreme_moduli_return(z):
    """A --z that parses cheaply evaluates cheaply: neither 1 - z nor any
    other step is formed with bits that grow with the exponent of z."""
    out = io.StringIO()
    with time_limit(5):
        assert run_job(_build_job(["dilog", f"--z={z}", "--output", "json"]), out=out) == 0
    rec = json.loads(out.getvalue())
    assert all(mp.isfinite(mpf(rec[k])) for k in ("li2_re", "li2_im", "bloch_wigner"))


@pytest.mark.parametrize("z", [z for z in sorted(DILOG_STDOUT_SHA256) if z.endswith("i")])
def test_dilog_evaluates_at_the_decimal_asked_for(z):
    """The printed z is the decimal of --z exactly, and li2 and the
    Bloch-Wigner value agree with mpmath's polylog there to the last digit."""
    body = z[:-1]
    k = max(body.rfind("+", 1), body.rfind("-", 1))
    re_text, im_text = body[:k], body[k:]
    for digits in DILOG_STDOUT_SHA256[z]:
        out = io.StringIO()
        job = _build_job(["dilog", "--z", z, "--precision", str(digits), "--output", "json"])
        assert run_job(job, out=out) == 0
        rec = json.loads(out.getvalue())
        sign = "-" if im_text.startswith("-") else "+"
        assert rec["z"] == f"({re_text} {sign} {im_text.lstrip('+-')}j)", digits
        with mp.workdps(digits + 40):
            w = mp.mpc(mpf(re_text), mpf(im_text))
            li2 = mp.polylog(2, w)
            oracle = {"li2_re": li2.real, "li2_im": li2.imag,
                      "bloch_wigner": mp.log(abs(w)) * mp.arg(1 - w) + li2.imag}
            for key, value in oracle.items():
                assert abs(mpf(rec[key]) - value) < mpf(10) ** (1 - digits) * max(1, abs(value)), \
                    (digits, key)


def test_mixed_signature_metric_must_be_invariant(capsys):
    job = _build_job(["degree", "--field", MIXED,
                      "--bundle", _unit_ideal_bundle(["2", "3", "5", "7"])])
    out = io.StringIO()
    assert run_job(job, out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "error[domain]: metric is not conjugation invariant\n"


def readme_examples() -> list[list[str]]:
    """Argument vectors of the README's command-line examples, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands, pending = [], ""
    for line in block.splitlines():
        if line.strip():
            pending += line.rstrip().rstrip("\\") + " "
            if not line.rstrip().endswith("\\"):
                commands.append(shlex.split(pending))
                pending = ""
    return commands


def test_readme_examples_cover_every_command():
    assert {argv[1] for argv in readme_examples()} == set(COMMANDS)


def test_readme_examples_are_byte_identical():
    examples = readme_examples()
    assert sorted(argv[1] for argv in examples) == sorted(README_STDOUT_SHA256)
    for argv in examples:
        assert argv[0] == "arithreg"
        code, out, err = run_cli(*argv[1:])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == README_STDOUT_SHA256[argv[1]], argv


def count_calls(monkeypatch, calls, owner, name):
    """Replace owner.name by a wrapper that adds one to calls[name] per call."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _counted_bloch_check(monkeypatch, job, evaluate=None):
    """(calls, record, pair count) of one bloch-check job, counting the
    Steinberg images, Bloch-Wigner values, unit tests, inverses and
    working-precision evaluations (relation discovery's rank proof and the
    regulator together) it makes; a rank proof of the double pass evaluates
    in doubles and counts none.
    evaluate, when given, stands in for the regulator's evaluate."""
    import arithreg.regulator
    import arithreg.relations
    from arithreg.nf import FieldElement, embeddings, parse_field

    calls = {"steinberg_image": 0, "bloch_wigner": 0, "is_unit": 0, "inverse": 0,
             "evaluate": 0}
    count_calls(monkeypatch, calls, arithreg.relations, "steinberg_image")
    count_calls(monkeypatch, calls, arithreg.regulator, "bloch_wigner")
    count_calls(monkeypatch, calls, FieldElement, "is_unit")
    count_calls(monkeypatch, calls, FieldElement, "inverse")
    count_calls(monkeypatch, calls, arithreg.relations, "evaluate")
    if evaluate is not None:
        monkeypatch.setattr(arithreg.regulator, "evaluate", evaluate)
    count_calls(monkeypatch, calls, arithreg.regulator, "evaluate")
    out = io.StringIO()
    assert run_job(dict(job, output="json"), out=out) == 0
    pairs = len(embeddings(parse_field(job["field"]), job.get("precision", DEFAULT_DIGITS))
                .pair_representatives)
    return calls, json.loads(out.getvalue()), pairs


def test_bloch_check_work_counts(monkeypatch):
    """The README bloch-check example computes each Steinberg image once,
    evaluates at the working precision only each support element, once, in
    the regulator (relation discovery and its rank proof run in doubles),
    and computes one Bloch-Wigner value per (pair representative,
    anharmonic orbit with a support column that has a nonzero entry in some
    kernel row): both candidates, x and 1/(1-x), are used and lie in the
    orbit of x, so that is one value per pair representative. Unit status
    is tested only for the generators that enter the basis of the
    presentation, -1 and x, and -1 needs no test ((-1)^2 = 1), so 1 test:
    the exact identities that place 1-x, (1-x)^-1 and x/(x-1) on that
    basis prove them units, and each candidate and its complement is a
    generator, so steinberg_image tests none of them again. The one inverse is the parse of (1-x)^-1; proving relations
    inverts nothing."""
    (argv,) = [a for a in readme_examples() if a[1] == "bloch-check"]
    job = _build_job(argv[1:])
    calls, rec, pairs = _counted_bloch_check(monkeypatch, job)

    candidates = job["payload"]["candidates"]
    used = sum(1 for column in zip(*rec["kernel_basis"]) if any(column))
    # the example has a zero multiplicity, so a skipped term is observable
    assert (sum(1 for row in rec["kernel_basis"] for n in row if n)
            < sum(len(row) for row in rec["kernel_basis"]))
    assert used == 2
    assert calls == {"steinberg_image": len(candidates), "bloch_wigner": pairs,
                     "is_unit": 1, "inverse": 1, "evaluate": len(candidates)}
    assert calls["evaluate"] == 2


def test_bloch_check_multiplies_nothing_by_one(monkeypatch):
    """The README bloch-check example makes 11 field multiplications, none
    with an operand equal to 1: powers and power products start from their
    first factor. 9 of them are the three exact identities that place
    x/(x-1) = x^-2, (1-x)^-1 = -x^-3 and 1-x = -x^3 on the basis -1, x;
    the one LLL search of all five generators and the proofs of its rows
    made 11."""
    from arithreg.nf import FieldElement

    operands = []
    real = FieldElement.__mul__

    def recorded(a, b):
        operands.append((a, a._coerce(b)))
        return real(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", recorded)
    (argv,) = [a for a in readme_examples() if a[1] == "bloch-check"]
    assert run_job(dict(_build_job(argv[1:]), output="json"), out=io.StringIO()) == 0
    assert len(operands) == 11
    assert not any(a.is_one() or b.is_one() for a, b in operands)


def test_bloch_check_shared_support_evaluated_once(monkeypatch):
    """Two kernel rows, [x] + [1-x] and 2[1-x], share the support element
    1-x: it is evaluated once, and D(1-x) = -D(x) reuses the value of x, so
    three nonzero terms cost one Bloch-Wigner value on the one pair."""
    job = {"command": "bloch-check", "field": {"poly": [1, -1, 0, 1]},
           "payload": {"candidates": ["x", "1-x"]}}
    calls, rec, pairs = _counted_bloch_check(monkeypatch, job)
    assert rec["kernel_basis"] == [[1, 1], [0, 2]]
    assert len(rec["regulators"]) == 2 and pairs == 1
    # generators -1, x, 1-x span free rank 1: the rank proof of relation
    # discovery takes one generator in doubles; x, 1-x in the regulator
    assert len(rec["generators"]) - len(rec["relation_basis"]) == 1
    assert (calls["evaluate"], calls["bloch_wigner"]) == (2, 1)


def test_bloch_check_empty_kernels_do_no_numerical_work(monkeypatch):
    """On x^4 - x - 1 the wedge x ^ (1-x) has infinite order, so both
    kernels of the candidate x are empty: the regulator evaluates nothing
    and computes no D, and the rank proof of relation discovery evaluates in
    doubles, so nothing is evaluated at the working precision. The
    regulator's evaluate is made to put every conjugate at 0, so any
    degeneracy check would raise PrecisionError."""
    job = {"command": "bloch-check", "field": {"poly": [-1, -1, 0, 0, 1]},
           "payload": {"candidates": ["x"]}}
    calls, rec, pairs = _counted_bloch_check(
        monkeypatch, job, evaluate=lambda a, e: (mpc(0),) * e.degree)
    assert (rec["kernel_basis"], rec["torsion_only_kernel"], rec["regulators"]) == ([], [], [])
    assert pairs == 1
    # generators -1, x, 1-x span free rank 2: the rank proof of relation
    # discovery takes two generators in doubles, the regulator none
    assert len(rec["generators"]) - len(rec["relation_basis"]) == 2
    assert (calls["evaluate"], calls["bloch_wigner"]) == (0, 0)


def test_main_writes_to_the_stdout_of_its_call(capsys):
    """main() resolves sys.stdout when it runs, so a redirection made after
    import (here capsys) receives the job's JSON."""
    (argv,) = [a for a in readme_examples() if a[1] == "bloch-check"]
    assert main(argv[1:] + ["--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rec = json.loads(captured.out)
    assert rec["schema"] == 1 and len(rec["regulators"]) == len(rec["kernel_basis"]) > 0


@pytest.mark.parametrize("z, series", [("0.25+0.125i", 1), ("-3.5+2i", 1), ("3", 1),
                                       ("0.5", 1), ("1", 0)])
def test_dilog_job_evaluates_li2_once(monkeypatch, z, series):
    """A dilog job sums the Bernoulli series once: the Bloch-Wigner value is
    formed from the Li2 value of the same job, and a real point (D = 0) or
    z = 1 (closed form) adds no evaluation."""
    import arithreg.dilog

    calls = {"_bernoulli_series": 0}
    count_calls(monkeypatch, calls, arithreg.dilog, "_bernoulli_series")
    job = {"command": "dilog", "payload": {"z": z}}
    assert run_job(job, out=io.StringIO()) == 0
    assert calls == {"_bernoulli_series": series}


def test_bloch_check_non_unit_candidate(capsys):
    """A candidate that is not a unit is rejected as a generator of the
    relation lattice, before any numerical work."""
    job = {"schema": 1, "command": "bloch-check", "field": {"poly": [1, -1, 0, 1]},
           "payload": {"candidates": ["x", "2*x"]}}
    out = io.StringIO()
    assert run_job(job, out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error[domain]: generator FieldElement(['0', '2', '0']) is not a unit\n")


@pytest.mark.parametrize("power", [3000, 100000])
def test_huge_non_unit_candidate_is_one_short_line(power, capsys):
    """The message quotes the element: 2x^3000 has coefficients of about
    370 digits, and 2x^100000 of over 40 000, more than Python prints."""
    assert main(["bloch-check", "--field", CUBIC, "--candidates", f'["2*x^{power}"]']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[domain]: generator ") and err.endswith(" is not a unit\n")
    assert err.count("\n") == 1 and len(err) < 250


def test_degree_work_counts(monkeypatch):
    """A degree job on x^24 - x - 1 takes its section's norm once, for the
    degree and the reported index together, and solves the membership of a
    given section once; the default section is the first HNF row, so its
    membership is not tested."""
    import arithreg.arakelov
    from arithreg.nf import FieldElement

    calls = {"index_quotient": 0, "norm": 0}
    count_calls(monkeypatch, calls, arithreg.arakelov, "index_quotient")
    count_calls(monkeypatch, calls, FieldElement, "norm")
    field = json.dumps({"poly": [-1, -1] + [0] * 22 + [1]})
    rows = [["1" if i == j else "0" for j in range(24)] for i in range(24)]
    bundle = json.dumps({"ideal_basis": rows, "metric": ["1"] * 24})
    for extra, tested in (([], 0), (["--section", "1+x^2"], 1)):
        calls.update(index_quotient=0, norm=0)
        out = io.StringIO()
        assert run_job(_build_job(["degree", "--field", field, "--bundle", bundle, *extra]),
                       out=out) == 0
        assert calls == {"index_quotient": tested, "norm": 1}, extra


def test_height_work_counts(monkeypatch):
    """A height --N 2 job on x^12 - x - 1 (the bench's degree-12 job) forms
    its ideal products through the field's multiplication table. When every
    product was a FieldElement product, this job made 464 of them and 457
    integral_coords calls. What is left is the section arithmetic: the
    generator (x+2)^2 and s0^2, one squaring each, and one quotient, one
    product (8 when powers started from 1); the degree of the default
    section forms no quotient and tests no membership. One element gets
    integral coordinates, as integer numerators over one denominator: the
    generator of the principal ideal. It forms no Fraction coordinates
    through integral_coords."""
    from arithreg.nf import FieldElement

    calls = {"__mul__": 0, "integral_coords": 0, "_integral_numerators": 0}
    for name in calls:
        count_calls(monkeypatch, calls, FieldElement, name)
    n = 12
    field = json.dumps({"poly": [-1, -1] + [0] * (n - 2) + [1]})
    # power-basis rows of (x+2) * x^i, i < 12, with x^12 = x + 1
    rows = [[2 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1, 1] + [0] * (n - 3) + [2])
    bundle = json.dumps({"ideal_basis": [[str(c) for c in row] for row in rows],
                         "metric": ["3"] * 2 + ["0.5"] * (n - 2)})
    out = io.StringIO()
    assert run_job(_build_job(["height", "--field", field, "--bundle", bundle,
                               "--N", "2", "--generator", "(x+2)^2"]), out=out) == 0
    assert calls == {"__mul__": 3, "integral_coords": 0, "_integral_numerators": 1}


def test_height_of_a_huge_power_returns():
    """The N-th power of the ideal is formed by squaring, about 2 log2(N)
    ideal products, so N = 10^12 returns at once; one product per power took
    13.7 s at N = 10^5. The unit ideal of x^3 - x + 1 has the generator 1 for
    every N, and its height equals its arithmetic degree."""
    rows = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    job = {"command": "height", "field": {"poly": [1, -1, 0, 1]}, "output": "json",
           "payload": {"bundle": {"ideal_basis": rows, "metric": ["2", "3", "3"]},
                       "N": 10 ** 12, "generator": "1"}}
    out = io.StringIO()
    with time_limit(5):
        assert run_job(job, out=out) == 0
    rec = json.loads(out.getvalue())
    with mp.workdps(60):
        assert mpf(rec["abs_difference"]) < mpf(10) ** -40
        assert abs(mpf(rec["height"]) + (mp.log(2) + 2 * mp.log(3)) / 6) < mpf(10) ** -40


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("n_power", [2, 3])
def test_height_above_the_bench_degrees(n, n_power):
    """height on x^n - x - 1 with the principal ideal (x + 2), above the
    bench's largest ideal (degree 16). Each ideal product goes through d and
    one HNF row of (x + 2), so the job takes milliseconds once the field is
    embedded; the limit also covers the embedding itself."""
    rows = [[2 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1, 1] + [0] * (n - 3) + [2])  # (x + 2) x^i, with x^n = x + 1
    job = {"command": "height", "field": {"poly": [-1, -1] + [0] * (n - 2) + [1]},
           "output": "json",
           "payload": {"bundle": {"ideal_basis": [[str(c) for c in row] for row in rows],
                                  "metric": ["3"] * 2 + ["0.5"] * (n - 2)},
                       "N": n_power, "generator": f"(x+2)^{n_power}"}}
    out = io.StringIO()
    with time_limit(10):
        assert run_job(job, out=out) == 0
    with mp.workdps(60):
        assert mpf(json.loads(out.getvalue())["abs_difference"]) < mpf(10) ** -40


@pytest.mark.parametrize("n_power", [10 ** 5, 10 ** 12])
def test_height_wrong_generator_of_a_huge_power_returns(capsys, n_power):
    """x + 2 generates the ideal (x + 2) of norm 5 on x^3 - x + 1, not its
    N-th power: the norms differ, which is decided before the power is
    formed. Forming the power first took 42.6 s at N = 10^5."""
    rows = [["2", "1", "0"], ["0", "2", "1"], ["-1", "1", "2"]]  # (x + 2) x^i
    job = {"command": "height", "field": {"poly": [1, -1, 0, 1]},
           "payload": {"bundle": {"ideal_basis": rows, "metric": ["1", "1", "1"]},
                       "N": n_power, "generator": "x+2"}}
    with time_limit(5):
        assert run_job(job, out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("error[domain]")


def test_degree_closure_work_counts(monkeypatch):
    """The closure test of an ideal on x^12 - x - 1 is the building of its
    O-module generators: (x+2) is generated by d and its first HNF row, one
    membership test and one HNF of 2n = 24 rows. The degree job needs
    nothing more, since the default section is the first HNF row; the
    height --N 2 job squares the ideal through those same generators, where
    a second closure test over the ring generators made 12 more membership
    tests, and proves (x+2)^2 generates the square by one more membership
    test and the norms, with no HNF of the principal ideal."""
    import arithreg.arakelov as arakelov

    calls = {"in_lattice": 0}
    count_calls(monkeypatch, calls, arakelov, "in_lattice")
    sizes = []
    hnf = arakelov.hnf

    def sized(rows):
        sizes.append(len(rows))
        return hnf(rows)

    monkeypatch.setattr(arakelov, "hnf", sized)
    n = 12
    field = json.dumps({"poly": [-1, -1] + [0] * (n - 2) + [1]})
    # power-basis rows of (x+2) * x^i, i < 12, with x^12 = x + 1
    rows = [[2 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1, 1] + [0] * (n - 3) + [2])
    bundle = json.dumps({"ideal_basis": [[str(c) for c in row] for row in rows],
                         "metric": ["3"] * 2 + ["0.5"] * (n - 2)})
    for argv, tests in ((["degree"], 1), (["height", "--N", "2", "--generator", "(x+2)^2"], 2)):
        calls["in_lattice"] = 0
        sizes.clear()
        out = io.StringIO()
        assert run_job(_build_job([argv[0], "--field", field, "--bundle", bundle, *argv[1:]]),
                       out=out) == 0
        assert calls == {"in_lattice": tests} and len(sizes) == 1 and sizes[0] <= 2 * n, argv


def test_multiplication_table_is_lazy(monkeypatch):
    """field-info, unit-reg and kranks jobs never build the multiplication
    table; only ideal arithmetic does."""
    from arithreg.nf import NumberField

    def refuse(self):
        raise AssertionError("multiplication table built")

    monkeypatch.setattr(NumberField, "multiplication_table", property(refuse))
    for argv in (["field-info"], ["unit-reg", "--element", "x"], ["kranks", "--max-p", "3"]):
        out = io.StringIO()
        assert run_job(_build_job([argv[0], "--field", CUBIC, *argv[1:]]), out=out) == 0, argv
