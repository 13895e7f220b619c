"""Independent verification oracles.

Everything here recomputes claims along a second route: dense matrix powers
for the probe-collapse theorem, a self-contained cyclic Jacobi eigensolver for
spectra, and an explicit pairwise double loop for the bilinear pooling. None
of it shares code with the fast paths it certifies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import local_biinteraction
from .rng import stream_rng


def probe_matrix(n: int, rho: float) -> np.ndarray:
    """Dense probe-weighted mixing matrix: (ones + rho * I) / (n + rho)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return (np.ones((n, n)) + rho * np.eye(n)) / (n + rho)


# the convergence tolerance relative to the matrix norm, and the sweep limit, of
# `jacobi_eigh`
JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-13, 100


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns eigenvalues ascending and the matching orthonormal eigenvector
    columns. Dependency-free so the oracle does not lean on the library it
    would otherwise be checking.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    v = np.eye(n)
    scale = max(np.sqrt((a * a).sum()), 1.0)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def theorem_rho2(rho1: float, hops: int, n: int) -> float:
    """Collapsed probe coefficient: hops applications of the probe matrix at
    rho1 equal one application at this value.

    rho2 = rho1^K / sum_{i=0}^{K-1} C(K,i) rho1^i n^(K-1-i). Accumulated with
    i descending and incremental binomial updates; overflow raises instead of
    returning infinity.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if rho1 < 0:
        raise ValueError(f"rho1 must be >= 0, got {rho1}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rho1 == 0.0:
        return 0.0
    k = hops
    numerator = float(rho1) ** k
    term = k * float(rho1) ** (k - 1)  # i = K-1: C(K,K-1) rho1^(K-1) n^0
    total = term
    for i in range(k - 1, 0, -1):
        term *= i * n / ((k - i + 1) * rho1)  # move C(K,i), rho1^i, n^(K-1-i) to i-1
        total += term
    if not (np.isfinite(numerator) and np.isfinite(total) and total > 0):
        raise OverflowError(f"theorem_rho2 overflow at rho1={rho1}, hops={hops}, n={n}")
    return numerator / total


@dataclass(frozen=True)
class TheoremCertificate:
    n: int
    rho1: float
    hops: int
    rho2: float
    max_abs_diff: float
    tolerance: float
    passed: bool


def certify_theorem(n: int, rho1: float, hops: int, tolerance: float = 1e-10) -> TheoremCertificate:
    """Certify the collapse numerically: repeated dense multiplication of the
    probe matrix against the single application at the collapsed coefficient."""
    p1 = probe_matrix(n, rho1)
    powered = np.eye(n)
    for _ in range(hops):
        powered = powered @ p1
    rho2 = theorem_rho2(rho1, hops, n)
    diff = float(np.abs(powered - probe_matrix(n, rho2)).max())
    return TheoremCertificate(
        n=n, rho1=float(rho1), hops=hops, rho2=rho2,
        max_abs_diff=diff, tolerance=tolerance, passed=diff <= tolerance,
    )


THEOREM_CORNERS = ((2, 0.0, 1), (2, 50.0, 6), (20, 0.0, 6), (20, 50.0, 1), (10, 21.0, 2))


def theorem_sweep(num_cells: int = 200, seed: int = 0, tolerance: float = 1e-10):
    """Certificates across the (n, rho1, hops) space, the first always `THEOREM_CORNERS`."""
    rng = stream_rng(seed, stream=7)
    ns = rng.integers(2, 21, size=num_cells)
    rhos = rng.uniform(0.0, 50.0, size=num_cells)
    hops = rng.integers(1, 7, size=num_cells)
    cells = list(THEOREM_CORNERS) + [
        (int(ns[i]), float(rhos[i]), int(hops[i])) for i in range(len(THEOREM_CORNERS), num_cells)
    ]
    return [certify_theorem(n, r, k, tolerance) for n, r, k in cells]


@dataclass(frozen=True)
class SpectralReport:
    n: int
    rho: float
    probe_eigenvalues: tuple
    laplacian_eigenvalues: tuple
    filter_coefficients: tuple  # (uniform component, all others)
    max_residual: float
    max_expected_deviation: float
    tolerance: float
    passed: bool


def spectrum_check(n: int, rho: float, tolerance: float = 1e-8) -> SpectralReport:
    """Eigenvalues of the probe matrix and its Laplacian versus closed form.

    Probe matrix: eigenvalue 1 once, rho/(n+rho) with multiplicity n-1.
    Laplacian (I - probe): 0 once, n/(n+rho) with multiplicity n-1. The
    convolution the probe applies therefore has filter coefficients
    (1, rho/(n+rho)); at rho=0 they collapse to (1, 0).
    """
    p = probe_matrix(n, rho)
    w, u = jacobi_eigh(p)
    residual = float(np.abs(p @ u - u * w).max())
    minor = rho / (n + rho)
    expected_probe = np.array([minor] * (n - 1) + [1.0])
    lap_w = np.sort(1.0 - w)
    expected_lap = np.array([0.0] + [n / (n + rho)] * (n - 1))
    dev = max(
        float(np.abs(w - expected_probe).max()),
        float(np.abs(lap_w - expected_lap).max()),
    )
    return SpectralReport(
        n=n, rho=float(rho),
        probe_eigenvalues=tuple(w),
        laplacian_eigenvalues=tuple(lap_w),
        filter_coefficients=(1.0, minor),
        max_residual=residual,
        max_expected_deviation=dev,
        tolerance=tolerance,
        passed=residual <= tolerance and dev <= tolerance,
    )


def biinteraction_pairwise(e: np.ndarray) -> np.ndarray:
    """Literal sum of elementwise products over all unordered row pairs."""
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    out = np.zeros(e.shape[1])
    for i in range(n):
        for j in range(i + 1, n):
            out += e[i] * e[j]
    return out


def biinteraction_agreement(num_matrices: int = 500, seed: int = 0) -> float:
    """Max vector-scale relative gap between the linear-time form and the
    pairwise oracle over random matrices: max|a-b| / max(max|a|, max|b|, tiny)."""
    rng = stream_rng(seed, stream=8)
    worst = 0.0
    for _ in range(num_matrices):
        n = int(rng.integers(1, 31))
        d = int(rng.integers(1, 65))
        e = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
        fast = local_biinteraction(e)
        ref = biinteraction_pairwise(e)
        scale = max(float(np.abs(fast).max()), float(np.abs(ref).max()), 1e-300)
        worst = max(worst, float(np.abs(fast - ref).max()) / scale)
    return worst


# the (n, rho) grid of the full report's spectrum checks
SPECTRUM_NS, SPECTRUM_RHOS = (2, 5, 10, 20), (0.0, 1.0, 5.0, 21.0, 30.0)


def run_verification(theorem_cells: int = 200, bi_matrices: int = 500, seed: int = 0) -> dict:
    """Full certification report used by the CLI; JSON-serializable."""
    theorem = theorem_sweep(theorem_cells, seed=seed)
    spectra = [spectrum_check(n, rho) for n in SPECTRUM_NS for rho in SPECTRUM_RHOS]
    bi_gap = biinteraction_agreement(bi_matrices, seed=seed)
    bi_tolerance = 1e-12
    failed_theorem = [asdict(c) for c in theorem if not c.passed]
    failed_spectra = [asdict(s) for s in spectra if not s.passed]
    passed = not failed_theorem and not failed_spectra and bi_gap <= bi_tolerance
    return {
        "passed": passed,
        "theorem": {
            "cells": len(theorem),
            "max_abs_diff": max(c.max_abs_diff for c in theorem),
            "tolerance": theorem[0].tolerance,
            "failed_cells": failed_theorem,
        },
        "spectrum": {
            "cells": len(spectra),
            "max_residual": max(s.max_residual for s in spectra),
            "max_expected_deviation": max(s.max_expected_deviation for s in spectra),
            "tolerance": spectra[0].tolerance,
            "failed_cells": failed_spectra,
        },
        "biinteraction": {
            "matrices": bi_matrices,
            "max_relative_gap": bi_gap,
            "tolerance": bi_tolerance,
        },
    }
