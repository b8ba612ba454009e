"""Command-line surface: basis expansion, matrix functions, and verification.

Exit codes: 0 on success (and all checks passing for verify), 1 for I/O
or verification failures, 2 for usage and validation errors.  Argument
rules live in the library: a ValueError it raises is reported as a usage
error.  Rational results print in full as p/q in lowest terms, integers
without the /1.  Each command imports the engine and verification modules
only if it uses them.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import qsym
from .combinatorics import as_partition, parse_parts


class UsageError(Exception):
    """Bad arguments: a malformed index, or a verify scope with nothing to check."""


class InputError(Exception):
    """Unreadable or malformed input file."""


_EXPONENT = re.compile(r"(\d+)\^\{?(\d+)\}?")

_BASIS_BUILDERS = {
    "m": qsym.monomial_sym,
    "p": qsym.power_sym,
    "e": qsym.elementary_sym,
    "h": qsym.homogeneous_sym,
    "s": qsym.schur_sym,
    "qs": qsym.quasischur,
}


def _parse_index(text: str):
    """Parse a comma-separated index, expanding exponent shorthand like 1^4."""
    expanded = _EXPONENT.sub(lambda m: ",".join([m.group(1)] * int(m.group(2))), text)
    try:
        return parse_parts(expanded)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_element(basis: str, index_text: str) -> qsym.QSym:
    return _BASIS_BUILDERS[basis](_parse_index(index_text))


def _load_matrix(path: str):
    from . import engine

    try:
        return engine.load_matrix(path)
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"malformed matrix in {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as out:
        out.write(json.dumps(payload, indent=2) + "\n")


def _emit_scalar(value, args) -> int:
    # An exact result may pass the interpreter's int-to-text digit limit;
    # lift it for the output only.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)
    if args.json:
        _write_json(args.json, {"value": text})
    return 0


def cmd_expand(args) -> int:
    element = _build_element(args.basis, args.index)
    result = qsym.to_coords(element, args.target)
    print(qsym.format_element(result))
    if args.json:
        _write_json(args.json, qsym.to_json_dict(result))
    return 0


def cmd_qimm(args) -> int:
    from . import engine

    element = _build_element(args.basis, args.index)
    matrix = _load_matrix(args.matrix)
    variant = "Phi" if args.variant == "phi" else "Psi"
    return _emit_scalar(engine.qimm(matrix, element, variant), args)


def cmd_imm(args) -> int:
    from . import engine

    lam = as_partition(_parse_index(args.index))  # the shape is checked before the file is read
    matrix = _load_matrix(args.matrix)
    return _emit_scalar(engine.immanant(matrix, lam), args)


def cmd_matrix(args) -> int:
    """d2, det and perm: one engine function of the matrix alone."""
    from . import engine

    matrix = _load_matrix(args.matrix)
    return _emit_scalar(getattr(engine, args.function)(matrix), args)


def cmd_verify(args) -> int:
    from . import verification

    hook_max, toeplitz_max = (6, 8) if args.max_n is None else (args.max_n, args.max_n)
    builders = {
        "examples": lambda: verification.verify_worked_examples(toeplitz_max),
        "theorem4": lambda: verification.verify_hook_rules(hook_max),
        "toeplitz": lambda: verification.verify_toeplitz(toeplitz_max),
        "all": lambda: verification.verify_all(hook_max, toeplitz_max),
    }
    try:
        report = builders[args.scope]()
    except ValueError as exc:  # a sweep of the scope selects no order, or too many
        raise UsageError(f"verify {args.scope} with --max-n {args.max_n}: {exc}") from exc
    print(verification.render_table(report))
    if args.json:
        _write_json(args.json, report.to_json_dict())
    return 0 if report.all_pass else 1


def cmd_toeplitz(args) -> int:
    import json

    from . import verification

    payload = verification.toeplitz_tridiagonal(args.n).to_json_dict()
    print(json.dumps(payload))
    if args.json:
        _write_json(args.json, payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="also write the result as JSON to PATH")

    parser = argparse.ArgumentParser(
        prog="quasimm",
        description="Exact quasi-immanants, immanants, and quasisymmetric expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="expand a basis element")
    p.add_argument("basis", choices=tuple(_BASIS_BUILDERS))
    p.add_argument("index", help="comma-separated parts, e.g. 2,1,1 or 2,1^3")
    p.add_argument("--target", choices=qsym.BASES, default="M")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("qimm", parents=[common], help="quasi-immanant of a matrix")
    p.add_argument("matrix", help="path to a JSON or CSV matrix")
    p.add_argument("basis", choices=tuple(_BASIS_BUILDERS))
    p.add_argument("index")
    p.add_argument(
        "--variant",
        choices=("psi", "phi"),
        default="psi",
        help="power-sum coordinate system for quasi-immanants",
    )
    p.set_defaults(func=cmd_qimm)

    p = sub.add_parser("imm", parents=[common], help="immanant for a partition shape")
    p.add_argument("matrix")
    p.add_argument("index")
    p.set_defaults(func=cmd_imm)

    for name, function in (("d2", "second_immanant"), ("det", "determinant"), ("perm", "permanent")):
        p = sub.add_parser(name, parents=[common], help=function.replace("_", " "))
        p.add_argument("matrix")
        p.set_defaults(func=cmd_matrix, function=function)

    p = sub.add_parser("verify", parents=[common], help="run self-checks and report")
    p.add_argument("scope", choices=("examples", "theorem4", "toeplitz", "all"))
    p.add_argument("--max-n", dest="max_n", type=int, help="bound for verification sweeps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("toeplitz", parents=[common], help="emit the 0/1 tridiagonal matrix")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_toeplitz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
