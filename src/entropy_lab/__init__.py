"""Block entropies of shift-invariant quasi-free spin-chain states.

The state is fixed by a spectral subset of the unit torus (or a mixed
piecewise-constant symbol). The package computes exact block entropies
S_N = Tr eta_tilde(Q_N) from Hermitian Toeplitz restrictions, the O(N)
quadratic proxy Tr Q_N(1 - Q_N) three independent ways, and the growth
laws: log N for finite interval unions, N^alpha with
alpha = log 2 / (-log q) for fat-Cantor sets.
"""

from .torus_sets import (
    CantorSpec,
    DispersionPlateauError,
    DispersionSamples,
    FailedCheckError,
    TorusIntervalSet,
    TorusSetError,
    canonicalize,
    cantor_depth_policy,
    cantor_generate,
    empty_set,
    fermi_sea,
    full_torus,
    predicted_alpha,
)
from .toeplitz import (
    UPSILON,
    EntropyResult,
    SymbolCoefficients,
    SymbolFunction,
    block_entropy,
    entropy_result,
    entropy_results,
    eta,
    eta_tilde,
    fourier_coefficients,
    joint_fourier_coefficients,
    purity_proxy_direct,
    purity_proxy_single_interval_series,
    restriction_from_coefficients,
    spectrum,
)
from .fejer import QuadratureError, fejer_kernel, purity_proxy_kernel
from .scaling import (
    EnvelopeReport,
    ExponentFit,
    ScanRecord,
    VerificationError,
    bound_envelope,
    check_monotonicity,
    check_subadditivity,
    default_grid,
    fit_exponent,
    scan,
)
from .oracle import (
    FockDensityMatrix,
    OracleError,
    block_entropy_oracle,
    density_matrix,
    vn_entropy,
    wick_expectation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
