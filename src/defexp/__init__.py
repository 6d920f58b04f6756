"""Exact expansion coefficients and high-precision zeros of the deformed exponential.

The deformed exponential is f(x) = sum_n x^n/n! q^(n(n-1)/2) for fixed
0 < q < 1.  Its zeros x_k admit a complete asymptotic expansion

    x_k = -k q^(1-k) (1 + C_1(q)/k^2 + C_2(q)/k^3 + ...)

whose coefficients C_n are polynomials in the divisor-power series
A_i = sum_m m^i sigma(m) q^m.  This package computes the C_n exactly,
rewrites them in the A_0,A_1,A_2 and Eisenstein bases, evaluates
everything as exact q-series, and validates the expansion against an
arbitrary-precision zero finder.

The exact layer (exactmath, jpoly, symcoeff, qseries) is imported here.
The names from precreal, zeros and validate, which need mpmath, and
run_selftest import their module on first access (PEP 562), so exact
work never loads the numeric layer.
"""

from __future__ import annotations

from importlib import import_module

from .exactmath import bernoulli, divisor_sigma, gen_binomial, power_sum_poly
from .jpoly import (
    DecompositionError, JPoly, UVForm, delta, g_coeff, h_coeff, q_poly, sigma_poly, uv_decompose,
)
from .symcoeff import (
    MPoly, c_n, kernel_expand, linear_part, p_m, reduce_to_A012, reduced_c_n, s_poly, theta,
    to_eisenstein,
)
from .qseries import (
    FjTable, QSeries, a_series, eisenstein_q, eval_mpoly_series, eval_series_numeric, fj_extract,
    jacobi_p0, jacobi_p0_product,
)

#: each numeric name and the module that defines it, imported on first access
_LAZY = {
    "PrecReal": "precreal",
    **dict.fromkeys(
        ("BracketError", "ZeroResult", "eval_f", "find_zero", "paired_term_gaps",
         "required_precision", "scan_zeros"),
        "zeros",
    ),
    **dict.fromkeys(
        ("ResidualProfile", "ratio_check", "residual_profile", "zero_table"), "validate"
    ),
    "run_selftest": "reference",
}

__all__ = [
    "bernoulli", "divisor_sigma", "gen_binomial", "power_sum_poly",
    "DecompositionError", "JPoly", "UVForm", "delta", "g_coeff", "h_coeff", "q_poly",
    "sigma_poly", "uv_decompose",
    "MPoly", "c_n", "kernel_expand", "linear_part", "p_m", "reduce_to_A012", "reduced_c_n",
    "s_poly", "theta", "to_eisenstein",
    "FjTable", "QSeries", "a_series", "eisenstein_q", "eval_mpoly_series",
    "eval_series_numeric", "fj_extract", "jacobi_p0", "jacobi_p0_product",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A numeric name, imported and bound here as a plain import would."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
