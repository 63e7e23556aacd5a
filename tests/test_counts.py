"""Every count the library takes passes the one gate, torus_sets._counts.

Each public entry point that takes a block size, a coefficient order, a
Cantor depth, an eigensolve cap or a seed is listed here with the kind of count and
its minimum. A bool,
a fraction and the value one below the minimum must raise the gate's own
ValueError, which names the kind and the value, so an entry point that
checks a count by hand fails here once it is added to the list.
"""

import re

import pytest

from entropy_lab.cli import run_verification
from entropy_lab.fejer import fejer_kernel, kernel_zeros, purity_proxy_kernel
from entropy_lab.oracle import block_entropy_oracle, density_matrix
from entropy_lab.scaling import (
    ScanRecord,
    check_subadditivity,
    default_grid,
    fit_exponent,
    scan,
)
from entropy_lab.specio import parse_spec
from entropy_lab.toeplitz import (
    SymbolFunction,
    block_entropy,
    entropy_result,
    entropy_results,
    fourier_coefficients,
    joint_fourier_coefficients,
    proxy_scan,
    purity_proxy_direct,
    purity_proxy_single_interval_series,
    restriction_from_coefficients,
)
from entropy_lab.torus_sets import CantorSpec, canonicalize, cantor_depth_policy

from references import density_matrix_from_matrix_units

HALF = canonicalize([(0.0, 0.5)])
F_HALF = SymbolFunction.indicator(HALF)
COEFFS = fourier_coefficients(F_HALF, 8)
QUARTER, NEAR = canonicalize([(0.0, 0.25)]), canonicalize([(0.5, 0.6)])
CANTOR = {"type": "cantor", "q": 0.25, "a": 1.0}


def _fit(n):
    sizes = (n, 16, 32, 64, 128)
    return fit_exponent([ScanRecord(n=m, entropy=None, proxy=1.0 + i, wall_time=0.0)
                         for i, m in enumerate(sizes)], "log", window=(16, 128))


# name: (call with the count, kind of count, its minimum)
ENTRY_POINTS = {
    "restriction_from_coefficients": (lambda n: restriction_from_coefficients(COEFFS, n),
                                      "block size", 1),
    "block_entropy": (lambda n: block_entropy(F_HALF, n), "block size", 1),
    "proxy_scan": (lambda n: proxy_scan(COEFFS, [2, n]), "block size", 1),
    "purity_proxy_direct": (lambda n: purity_proxy_direct(COEFFS, n), "block size", 1),
    "purity_proxy_single_interval_series": (
        lambda n: purity_proxy_single_interval_series(0.25, n), "block size", 1),
    "fejer_kernel": (lambda n: fejer_kernel(n, 0.25), "block size", 1),
    "kernel_zeros": (kernel_zeros, "block size", 1),
    "purity_proxy_kernel": (lambda n: purity_proxy_kernel(HALF, n), "block size", 1),
    "default_grid-n_min": (lambda n: default_grid(n, 10), "block size", 1),
    "default_grid-n_max": (lambda n: default_grid(1, n), "block size", 1),
    "scan": (lambda n: scan(HALF, [n, 16], mode="proxy"), "block size", 1),
    "scan-eig_cap": (lambda n: scan(HALF, [4, 8], eig_cap=n), "eig_cap", 0),
    "entropy_results": (lambda n: entropy_results([COEFFS], n), "block size", 1),
    "entropy_results-eig_cap": (lambda n: entropy_results([COEFFS], 8, eig_cap=n), "eig_cap", 0),
    "entropy_result-eig_cap": (
        lambda n: entropy_result(restriction_from_coefficients(COEFFS, 8), eig_cap=n),
        "eig_cap", 0),
    "fit_exponent": (_fit, "block size", 1),
    "check_subadditivity": (lambda n: check_subadditivity(QUARTER, NEAR, n), "block size", 1),
    "density_matrix": (lambda n: density_matrix(HALF, n), "block size", 1),
    "block_entropy_oracle": (lambda n: block_entropy_oracle(HALF, n), "block size", 1),
    "density_matrix_from_matrix_units": (
        lambda n: density_matrix_from_matrix_units(HALF, n), "block size", 1),
    "cantor_depth_policy": (lambda n: cantor_depth_policy(CantorSpec(0.25, 1.0), n),
                            "block size", 1),
    "SetSpec.resolve_set": (
        lambda n: parse_spec({**CANTOR, "depth": "auto"}).resolve_set(n_max=n), "block size", 1),
    "fourier_coefficients": (lambda n: fourier_coefficients(F_HALF, n), "coefficient order", 0),
    "joint_fourier_coefficients": (lambda n: joint_fourier_coefficients([F_HALF], n),
                                   "coefficient order", 0),
    "CantorSpec": (lambda n: CantorSpec(0.25, 1.0, n), "cantor depth", 0),
    "parse_spec": (lambda n: parse_spec({**CANTOR, "depth": n}), "cantor depth", 0),
    "run_verification": (lambda n: run_verification(n, quick=True), "seed", 0),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("value", ["bool", "fraction", "below"])
def test_every_count_passes_the_one_gate(name, value):
    call, kind, least = ENTRY_POINTS[name]
    if value == "below":
        bad, message = least - 1, f"{kind} must be >= {least}, got {least - 1}"
    else:
        bad = True if value == "bool" else 2.5
        message = f"{kind}s must be integers, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
