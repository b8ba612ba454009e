"""Exact-arithmetic quasi-immanants and quasisymmetric functions.

A quasi-immanant is a permutation sum over an n x n matrix whose weight
at sigma is read from a quasisymmetric element q of degree n: z_mu times
the p_mu coefficient of q, mu the cycle type of sigma, when q is symmetric
(so h_n gives the permanent), and n! times the power-sum coordinate (Psi
or Phi variant) of q at the cycle composition otherwise.  This package
provides the combinatorics, the basis machinery, the symmetric-group
characters, an exact evaluation engine, and verification reports, all
over arbitrary-precision rationals.

The public names below are resolved on first use (PEP 562), so importing
the package, or one of its modules, loads only the modules a caller needs.
"""

import importlib

_EXPORTS = {
    "characters": (
        "CoefficientTable", "character_class_function", "chi2", "fixed_points", "frobenius",
        "irreducible_character", "sign",
    ),
    "combinatorics": (
        "as_composition", "as_partition", "as_permutation", "count_perms_with_ctype",
        "cycle_composition", "cycle_type", "cycles", "enumerate_compositions",
        "enumerate_partitions", "enumerate_permutations", "format_parts", "parse_parts",
        "sort_composition", "z_of", "z_of_composition",
    ),
    "engine": (
        "SquareMatrix", "class_sums", "determinant", "determinant_elimination",
        "elementary_immanant", "hook_qimm_coefficient", "immanant", "load_matrix",
        "matrix_from_json_dict", "monomial_immanant", "permanent", "qimm",
        "qimm_coefficient_table", "qimm_hook_fast", "second_immanant", "weighted_perm_sum",
    ),
    "qsym": (
        "QSym", "elementary_sym", "format_element", "homogeneous_sym", "is_symmetric",
        "m_product", "monomial_sym", "p_coefficient", "p_weights", "power_sym", "quasischur",
        "schur_sym", "to_coords", "to_json_dict",
    ),
    "verification": (
        "Report", "ReportItem", "c_sigma", "render_table", "toeplitz_d2_closed_form",
        "toeplitz_qimm_closed_form", "toeplitz_tridiagonal", "verify_all", "verify_hook_rule",
        "verify_hook_rules", "verify_toeplitz", "verify_worked_examples",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
