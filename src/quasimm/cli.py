"""Command-line surface: basis expansion, matrix functions, and verification.

Exit codes: 0 on success (and all checks passing for verify), 1 for I/O
or verification failures, 2 for usage and validation errors.  Argument
rules live in the library: a ValueError it raises is reported as a usage
error.  Rational results print in full as p/q in lowest terms, integers
without the /1.  Each command returns its text, its --json payload and its
exit code; main alone prints the text and writes the payload.  The CLI
calls the library only by its public names, read from the package, which
loads a name's module on first use: a command loads only what it calls.
"""

import argparse
import sys

from .qsym import BASES, VARIANTS

# The package itself, whose public names resolve on first use (PEP 562).
package = sys.modules[__package__]


class InputError(Exception):
    """Unreadable or malformed input file."""


# Each basis letter and the public name of its builder; each verify scope and
# the public name of the sweep that checks it.
_BASIS_BUILDERS = {
    "m": "monomial_sym",
    "p": "power_sym",
    "e": "elementary_sym",
    "h": "homogeneous_sym",
    "s": "schur_sym",
    "qs": "quasischur",
}

_VERIFY_SCOPES = {
    "examples": "verify_worked_examples",
    "theorem4": "verify_hook_rules",
    "toeplitz": "verify_toeplitz",
    "all": "verify_all",
}


def _build_element(basis: str, index_text: str):
    return getattr(package, _BASIS_BUILDERS[basis])(package.parse_parts(index_text))


def _load_matrix(path: str):
    try:
        return package.load_matrix(path)
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"malformed matrix in {path}: {exc}") from None


def _scalar(value):
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
    return text, {"value": text}, 0


def cmd_expand(args):
    result = package.to_coords(_build_element(args.basis, args.index), args.target)
    return package.format_element(result), package.to_json_dict(result), 0


def cmd_matrix(args):
    """qimm, imm, d2, det and perm: one engine function of the matrix and args.read(args).

    The other arguments are read (the index checked, for qimm the element
    built) before the matrix file is.
    """
    operands = args.read(args)
    return _scalar(getattr(package, args.function)(_load_matrix(args.matrix), *operands))


def cmd_verify(args):
    sweep = getattr(package, _VERIFY_SCOPES[args.scope])
    try:
        report = sweep(*(() if args.max_n is None else (args.max_n,)))
    except ValueError as exc:  # a sweep of the scope selects no order, or too many
        raise ValueError(f"verify {args.scope} with --max-n {args.max_n}: {exc}") from exc
    return package.render_table(report), report.to_json_dict(), 0 if report.all_pass else 1


def cmd_toeplitz(args):
    import json

    payload = package.toeplitz_tridiagonal(args.n).to_json_dict()
    return json.dumps(payload), payload, 0


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
    # Names are read in any case: every name in BASES (VARIANTS among them) is capitalized.
    p.add_argument("--target", type=str.capitalize, choices=BASES, default="M")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("qimm", parents=[common], help="quasi-immanant of a matrix")
    p.add_argument("matrix", help="path to a JSON or CSV matrix")
    p.add_argument("basis", choices=tuple(_BASIS_BUILDERS))
    p.add_argument("index")
    p.add_argument(
        "--variant",
        type=str.capitalize,
        choices=VARIANTS,
        default="Psi",
        help="power-sum coordinate system for quasi-immanants",
    )
    p.set_defaults(
        func=cmd_matrix,
        function="qimm",
        read=lambda args: (_build_element(args.basis, args.index), args.variant),
    )

    p = sub.add_parser("imm", parents=[common], help="immanant for a partition shape")
    p.add_argument("matrix")
    p.add_argument("index")
    p.set_defaults(
        func=cmd_matrix,
        function="immanant",
        read=lambda args: (package.as_partition(package.parse_parts(args.index)),),
    )

    for name, function in (("d2", "second_immanant"), ("det", "determinant"), ("perm", "permanent")):
        p = sub.add_parser(name, parents=[common], help=function.replace("_", " "))
        p.add_argument("matrix")
        p.set_defaults(func=cmd_matrix, function=function, read=lambda args: ())

    p = sub.add_parser("verify", parents=[common], help="run self-checks and report")
    p.add_argument("scope", choices=tuple(_VERIFY_SCOPES))
    p.add_argument("--max-n", dest="max_n", type=int, help="bound for verification sweeps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("toeplitz", parents=[common], help="emit the 0/1 tridiagonal matrix")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_toeplitz)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, payload, code = args.func(args)
        print(text)
        if args.json:
            import json

            with open(args.json, "w") as out:
                out.write(json.dumps(payload, indent=2) + "\n")
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
