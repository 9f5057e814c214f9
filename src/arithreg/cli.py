"""Batch command-line front end.

One job per process. Payloads arrive as flags or as a single JSON job on
stdin (--job -). COMMANDS is the one table of commands: it names each
command's handler and payload flags, and both the argument parser and the
job dispatcher are built from it. Every command but dilog takes a field,
which is parsed and embedded at the job's precision before the payload is
read. Output is deterministic: fixed key order in text mode, sorted keys in
JSON mode, numbers printed as decimal strings at the requested precision.
Exit codes: 0 success, 1 schema violation, 2 domain error, 3 precision error.

Field elements in payloads are written in one of two formats: polynomial
expressions in the generator symbol x with rational coefficients and integer
powers, e.g. "(1-x)^-1" or "3/2*x^2 - x + 7", or coefficient records
{"coeffs": ["p/q", ...]}. Expressions are evaluated with exact field
arithmetic, so "1/2" is the exact rational and negative powers invert exactly.
"""

from __future__ import annotations

import json
import re
import sys

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, mpf_pow_int, round_down

from .arakelov import FractionalIdeal, Metric, MetrizedLineBundle, _degree_and_index, arithmetic_degree
from .dilog import li2_and_bloch_wigner
from .errors import (ArithregError, DomainError, FormatError, PrecisionError, SchemaError,
                     oversized_number, quoted)
from .heights import c_hat_height
from .kmodel import build_model
from .nf import FieldElement, NumberField, _parse_rational, embeddings, parse_field
from .precision import DEFAULT_DIGITS, MIN_DIGITS, working_dps
from .regulator import k3_regulator, s_map, unit_regulator
from .relations import (BlochElement, _bloch_kernels, relation_lattice,
                        verify_bloch_element)

# ---------------------------------------------------------------------------
# element expression parser

# one token per match: a run of decimal digits, an operator (** is ^), or any
# other non-space character, which is an error. For str patterns \d and \s
# are str.isdecimal and str.isspace: \d takes the digits of every script that
# int() reads, and not superscripts, which str.isdigit would admit
_TOKEN = re.compile(r"\s*(?:(\d+)|(\*\*|[-+*/^()x])|(\S))")


def parse_element_expr(text: str, field: NumberField, key: str) -> FieldElement:
    """Exact evaluation of a polynomial expression in the generator x, the
    value of key, by recursive descent: sums of products of signed powers,
    whose exponent is an integer after any number of signs."""
    toks = []
    for digits, op, bad in _TOKEN.findall(text):
        if bad:
            raise SchemaError(f"unexpected character {bad!r} in element expression")
        try:
            toks.append(int(digits) if digits else "^" if op == "**" else op)
        except ValueError:  # an integer over Python's int-string limit
            raise oversized_number(key, digits) from None
    toks = [None, *reversed(toks)]  # the next token is toks[-1]; None ends the input

    def expression():
        value = product()
        while toks[-1] in ("+", "-"):
            op, rhs = toks.pop(), product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product():
        value = unary()
        while toks[-1] in ("*", "/"):
            op, rhs = toks.pop(), unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary():
        if toks[-1] in ("-", "+"):
            return -unary() if toks.pop() == "-" else unary()
        return power()

    def power():
        tok = toks.pop()
        if isinstance(tok, int):
            base = field.element([tok])
        elif tok == "x":
            base = field.gen()
        elif tok == "(":
            base = expression()
            if toks.pop() != ")":
                raise SchemaError("unbalanced parenthesis in element expression")
        else:
            raise SchemaError("malformed element expression")
        if toks[-1] != "^":
            return base
        toks.pop()
        sign = 1
        while toks[-1] in ("-", "+"):
            sign = -sign if toks.pop() == "-" else sign
        if not isinstance(toks[-1], int):
            raise SchemaError("exponent must be an integer")
        return base ** (sign * toks.pop())

    try:
        value = expression()
    except RecursionError:
        raise SchemaError("element expression nests too deeply") from None
    if toks[-1] is not None:
        raise SchemaError(f"trailing input in element expression {quoted(text)}")
    return value


def parse_element(payload, field: NumberField, key: str) -> FieldElement:
    """Element from an expression string or a coefficient record, the value
    of key, which errors name."""
    if isinstance(payload, str):
        return parse_element_expr(payload, field, key)
    coeffs = payload.get("coeffs") if isinstance(payload, dict) else None
    if isinstance(coeffs, list):
        return field.element([_parse_rational(c, key) for c in coeffs])
    raise SchemaError(f"cannot parse element payload of key '{key}': {quoted(payload)}")


# ---------------------------------------------------------------------------
# complex input

# bound on the decimal exponent e, 10^e <= |part| < 10^(e+1), of each part of
# dilog's z: near |z| = 1 mpmath's complex log sums both squares exactly, in bits
# that grow with e (0.6 s, 360 MB at the bound). 10^-MAX, 10^(MAX+1) round down.
MAX_Z_EXPONENT = 2 * 10 ** 8
_Z_LO, _Z_HI = (mp.make_mpf(mpf_pow_int(from_int(10), e, 53, round_down))
                for e in (-MAX_Z_EXPONENT, MAX_Z_EXPONENT + 1))


def parse_complex(text: str) -> mpc:
    """The complex number of the dilog key 'z', such as "0.5-0.25i"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise SchemaError("empty complex number")
    re_part, im_part = s, "0"
    if s.endswith("i"):
        # the imaginary part starts at the last sign past the first character, not after an e
        split = re.fullmatch(r"(.*[^eE])([+-].*)", s[:-1], re.S)
        re_part, im_part = split.groups() if split else ("0", s[:-1])
        im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    try:
        parts = mpf(re_part), mpf(im_part)
    except (ValueError, ZeroDivisionError) as exc:  # from_str divides "a/b"
        raise oversized_number("z", text) or SchemaError(
            f"cannot parse complex number {quoted(text)}") from exc
    z = mpc(*parts)
    if not mp.isfinite(z):
        raise SchemaError(f"complex number {quoted(text)} is not finite")
    if any(part and not _Z_LO <= abs(part) < _Z_HI for part in parts):
        raise SchemaError(f"key 'z' holds a part whose decimal exponent exceeds "
                          f"{MAX_Z_EXPONENT} in absolute value: {quoted(text)}")
    return z


# ---------------------------------------------------------------------------
# job runner

def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(payload: dict, key: str, kind=None):
    if key not in payload:
        raise SchemaError(f"missing required key '{key}'")
    value = payload[key]
    # no key takes a boolean, so true and false never pass as integers
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"key '{key}' has the wrong type")
    return value


# error class -> (exit code, label); the first match wins, so a SchemaError
# maps as the FormatError it is, and DomainError and its subclasses fall to
# the catch-all ArithregError
_EXIT_CODES = ((FormatError, 1, "schema"), (PrecisionError, 3, "precision"),
               (ArithregError, 2, "domain"))


def run_job(job: dict, out=None) -> int:
    """Execute one validated job, writing its result to out (sys.stdout at
    call time when None); returns the process exit code."""
    out = sys.stdout if out is None else out
    try:
        result = _dispatch(job)
    except ArithregError as exc:
        code, label = next((c, lb) for cls, c, lb in _EXIT_CODES if isinstance(exc, cls))
        print(f"error[{label}]: {exc}", file=sys.stderr)
        return code
    if job.get("output", "text") == "json":
        print(json.dumps(dict(result, schema=1), sort_keys=True), file=out)
    else:
        _print_text(result, out)
    return 0


def _print_text(result: dict, out):
    for key, value in result.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:", file=out)
            for row in value:
                print("  " + json.dumps(row, sort_keys=True), file=out)
        else:
            print(f"{key}: {value}", file=out)


def _dispatch(job: dict) -> dict:
    command = _require(job, "command", str)
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {quoted(command)}")
    precision = job.get("precision", DEFAULT_DIGITS)
    if not _is_int(precision) or precision < MIN_DIGITS:
        raise SchemaError(f"key 'precision' must be an integer >= {MIN_DIGITS}")
    if job.get("output", "text") not in ("text", "json"):
        raise SchemaError("key 'output' must be \"text\" or \"json\"")
    payload = job.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("key 'payload' must be an object")
    handler = COMMANDS[command][0]
    if command == "dilog":
        return handler(payload, precision)
    return handler(payload, embeddings(parse_field(_require(job, "field", dict)), precision))


def _cmd_field_info(payload, e):
    return {
        "poly": list(e.field.defining_poly),
        "degree": e.field.degree,
        "signature": list(e.signature),
        "maximality_asserted": e.field.maximality_asserted,
        "embeddings": [mp.nstr(r, e.precision) for r in e.roots],
        "conjugation_pairing": list(e.conjugation_pairing),
    }


def _cmd_dilog(payload, precision):
    with mp.workdps(working_dps(precision)):
        z = parse_complex(_require(payload, "z", str))
    value, dd = li2_and_bloch_wigner(z, precision)
    return {
        "z": mp.nstr(z, precision),
        "li2_re": mp.nstr(value.real, precision),
        "li2_im": mp.nstr(value.imag, precision),
        "bloch_wigner": mp.nstr(dd, precision),
    }


def _candidate_presentation(field, candidates, precision):
    gens = [field.element([-1])]
    for lam in candidates:
        for g in (lam, field.one() - lam):
            if g not in gens:
                gens.append(g)
    return relation_lattice(gens, precision)


def _cmd_bloch_check(payload, e):
    candidates = [parse_element(c, e.field, "candidates")
                  for c in _require(payload, "candidates", list)]
    pres = _candidate_presentation(e.field, candidates, e.precision)
    kernel, flagged = _bloch_kernels(candidates, pres)
    return {
        "generators": [g.to_record() for g in pres.generators],
        "relation_basis": [list(r) for r in pres.relation_basis],
        "torsion_order": pres.torsion_order,
        "kernel_basis": [list(b.multiplicities) for b in kernel],
        "torsion_only_kernel": [list(b.multiplicities) for b in flagged],
        "regulators": [v.to_record() for v in k3_regulator(kernel, e)],
    }


def _cmd_regulator(payload, e):
    record = _require(payload, "bloch", dict)
    support = [parse_element(s, e.field, "support") for s in _require(record, "support", list)]
    mults = _require(record, "multiplicities", list)
    if len(support) != len(mults) or any(not _is_int(n) for n in mults):
        raise SchemaError("key 'multiplicities' must be integers matching the support")
    x = BlochElement(tuple(support), tuple(mults))
    if not verify_bloch_element(x, _candidate_presentation(e.field, support, e.precision)):
        raise DomainError("formal sum is not in the wedge-map kernel")
    (vector,) = k3_regulator([x], e)
    return vector.to_record()


def _cmd_unit_reg(payload, e):
    element = parse_element(_require(payload, "element", (str, dict)), e.field, "element")
    vec = unit_regulator(element, e)
    rec = vec.to_record()
    rec["mean"] = mp.nstr(s_map(vec), e.precision)
    return rec


def _bundle_from(payload, e):
    record = _require(payload, "bundle", dict)
    rows = _require(record, "ideal_basis", list)
    metric_raw = _require(record, "metric", list)
    if len(metric_raw) != e.field.degree:
        raise SchemaError("key 'metric' must list one positive value per embedding")
    if any(not isinstance(row, list) or len(row) != e.field.degree for row in rows):
        raise SchemaError("key 'ideal_basis' must be a list of rows of one entry per basis element")
    rows = [[_parse_rational(x, "ideal_basis") for x in row] for row in rows]
    ideal = FractionalIdeal.from_rows(e.field, rows)
    try:
        with mp.workdps(e.working_dps):
            values = tuple(mpf(str(entry := v)) for v in metric_raw)  # entry: the one that fails
    except (ValueError, ZeroDivisionError) as exc:  # from_str divides "a/b"
        raise oversized_number("metric", entry) or SchemaError(
            f"key 'metric' must hold decimal numbers, not {quoted(entry)}") from exc
    if not all(mp.isfinite(v) for v in values):
        raise SchemaError("key 'metric' must hold finite decimal numbers")
    metric = Metric(values)
    e.check_invariant(metric.values, "metric")
    return MetrizedLineBundle(ideal, metric)


def _cmd_degree(payload, e):
    bundle = _bundle_from(payload, e)
    section = (parse_element(payload["section"], e.field, "section")
               if "section" in payload else None)
    value, index = _degree_and_index(bundle, e, section)
    return {
        "degree": mp.nstr(value, e.precision),
        "ideal_norm": str(bundle.ideal.norm),
        "index_of_default_section": str(index),
    }


def _cmd_height(payload, e):
    bundle = _bundle_from(payload, e)
    n_power = _require(payload, "N", int)
    generator = parse_element(_require(payload, "generator", (str, dict)), e.field, "generator")
    h = c_hat_height(bundle, n_power, generator, e)
    d = arithmetic_degree(bundle, e)
    with mp.workdps(e.working_dps):
        diff = abs(h - d)
    return {
        "height": mp.nstr(h, e.precision),
        "arithmetic_degree": mp.nstr(d, e.precision),
        "abs_difference": mp.nstr(diff, e.precision),
    }


def _cmd_kranks(payload, e):
    max_p = payload.get("max_p", 6)
    if not _is_int(max_p) or max_p < 1:
        raise SchemaError("key 'max_p' must be a positive integer")
    return build_model(e, max_p)


# command -> (handler, payload flags). A flag is (flag, payload key, reader,
# required); the reader is str, int, or json for a flag whose text is a JSON
# value. Every command but dilog also takes --field, read as JSON into the
# job's "field", and its handler gets the field's embeddings.
COMMANDS = {
    "field-info": (_cmd_field_info, ()),
    "dilog": (_cmd_dilog, (("--z", "z", str, True),)),
    "bloch-check": (_cmd_bloch_check, (("--candidates", "candidates", json, True),)),
    "regulator": (_cmd_regulator, (("--bloch", "bloch", json, True),)),
    "unit-reg": (_cmd_unit_reg, (("--element", "element", str, True),)),
    "degree": (_cmd_degree, (("--bundle", "bundle", json, True),
                             ("--section", "section", str, False))),
    "height": (_cmd_height, (("--bundle", "bundle", json, True), ("--N", "N", int, True),
                             ("--generator", "generator", str, True))),
    "kranks": (_cmd_kranks, (("--max-p", "max_p", int, False),)),
}


# ---------------------------------------------------------------------------
# argument parsing

def _load_json(key: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"key '{key}' is not valid JSON: {exc}") from exc
    except ValueError:  # an integer over Python's int-string limit
        raise oversized_number(key, text) from None


def _build_job(argv: list[str]) -> dict:
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error: one error[schema] line, exit 1
            # argparse echoes an argument, or its value after "=", whole, by
            # repr or bare: each longer than 80 characters is cut by quoted()
            texts = {text for arg in argv for text in (arg, arg.partition("=")[2])}
            for text in sorted((t for t in texts if len(t) > 80), key=len, reverse=True):
                message = message.replace(repr(text), quoted(text)).replace(text, quoted(text))
            raise SchemaError(message)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)

    parser = Parser(prog="arithreg", description=__doc__)
    parser.add_argument("--job", help="read a full JSON job from stdin; the only value is '-'")
    parser.add_argument("--precision", type=int, default=DEFAULT_DIGITS)
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command")
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if name != "dilog":
            p.add_argument("--field", required=True, default=argparse.SUPPRESS)
        for flag, key, reader, required in flags:
            p.add_argument(flag, dest=key, type=str if reader is json else reader,
                           required=required, default=argparse.SUPPRESS)

    args = vars(parser.parse_args(argv))

    if args["job"] is not None:
        if args["job"] != "-":
            raise SchemaError("--job reads a job from stdin only; its value must be '-'")
        job = _load_json("job", sys.stdin.read())
        if not isinstance(job, dict):
            raise SchemaError("job must be a JSON object")
        if job.get("schema", 1) != 1:
            raise SchemaError("key 'schema' must be 1")
        return job
    if args["command"] is None:
        raise SchemaError("no command given")

    job = {"schema": 1, "command": args["command"],
           "precision": args["precision"], "output": args["output"], "payload": {}}
    if "field" in args:
        job["field"] = _load_json("field", args["field"])
    # a flag that was given goes into the payload as given, empty text included
    for _, key, reader, _ in COMMANDS[args["command"]][1]:
        if key in args:
            job["payload"][key] = _load_json(key, args[key]) if reader is json else args[key]
    return job


def main(argv: list[str] | None = None) -> int:
    try:
        job = _build_job(sys.argv[1:] if argv is None else argv)
    except SchemaError as exc:
        print(f"error[schema]: {exc}", file=sys.stderr)
        return 1
    return run_job(job)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
