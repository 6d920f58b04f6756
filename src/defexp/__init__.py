"""Exact expansion coefficients and high-precision zeros of the deformed exponential.

The deformed exponential is f(x) = sum_n x^n/n! q^(n(n-1)/2) for fixed
0 < q < 1.  Its zeros x_k admit a complete asymptotic expansion

    x_k = -k q^(1-k) (1 + C_1(q)/k^2 + C_2(q)/k^3 + ...)

whose coefficients C_n are polynomials in the divisor-power series
A_i = sum_m m^i sigma(m) q^m.  This package computes the C_n exactly,
rewrites them in the A_0,A_1,A_2 and Eisenstein bases, evaluates
everything as exact q-series, and validates the expansion against an
arbitrary-precision zero finder.
"""

from __future__ import annotations

from .exactmath import bernoulli, divisor_sigma, gen_binomial, power_sum_poly
from .jpoly import (
    DecompositionError,
    JPoly,
    UVForm,
    delta,
    g_coeff,
    h_coeff,
    q_poly,
    sigma_poly,
    uv_decompose,
)
from .symcoeff import (
    MPoly,
    c_n,
    kernel_expand,
    linear_part,
    p_m,
    reduce_to_A012,
    reduced_c_n,
    s_poly,
    theta,
    to_eisenstein,
)
from .qseries import (
    QSeries,
    a_series,
    eisenstein_q,
    eval_mpoly_series,
    eval_series_numeric,
    jacobi_p0,
    jacobi_p0_product,
)
from .precreal import PrecReal
from .zeros import (
    BracketError,
    ZeroResult,
    eval_f,
    find_zero,
    paired_term_gaps,
    required_precision,
    scan_zeros,
)
from .validate import (
    FjTable,
    ResidualProfile,
    fj_extract,
    ratio_check,
    residual_profile,
    zero_table,
)
from .reference import run_selftest

__version__ = "0.1.0"
