"""Certification oracles: probe-collapse theorem, spectra, pairwise bi-interaction."""

import numpy as np
import pytest

from catgcn.oracle import (
    biinteraction_agreement,
    biinteraction_pairwise,
    certify_theorem,
    jacobi_eigh,
    probe_matrix,
    spectrum_check,
    theorem_rho2,
    theorem_sweep,
)


def test_probe_matrix_row_form():
    # row i of (ones + rho*I)/(n+rho): off-diagonal 1/(n+rho), diagonal (1+rho)/(n+rho)
    p = probe_matrix(3, 2.0)
    assert np.allclose(p, np.array([[3, 1, 1], [1, 3, 1], [1, 1, 3]]) / 5.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_probe_matrix_rho_zero_is_uniform_averaging():
    p = probe_matrix(4, 0.0)
    assert np.allclose(p, np.full((4, 4), 0.25))


def test_theorem_rho2_frozen_case():
    # n=3, rho1=2, two hops: 2^2 / (C(2,0)*3 + C(2,1)*2) = 4/7
    assert theorem_rho2(2.0, 2, 3) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_theorem_rho2_single_hop_is_identity():
    for rho in (0.0, 0.5, 3.0, 41.0):
        assert theorem_rho2(rho, 1, 7) == pytest.approx(rho, abs=1e-12)


def test_theorem_rho2_zero_collapses_to_zero():
    for hops in (1, 2, 5):
        assert theorem_rho2(0.0, hops, 6) == 0.0


def test_theorem_rho2_overflow_raises():
    with pytest.raises(OverflowError):
        theorem_rho2(1e300, 4, 10)


def test_certify_theorem_frozen_power():
    # (probe(3, 2))^2 has diagonal 11/25 and off-diagonal 7/25
    cert = certify_theorem(3, 2.0, 2)
    assert cert.passed
    assert cert.rho2 == pytest.approx(4.0 / 7.0, abs=1e-15)
    p2 = np.linalg.matrix_power(probe_matrix(3, 2.0), 2)
    assert np.allclose(np.diag(p2), 11.0 / 25.0)
    assert p2[0, 1] == pytest.approx(7.0 / 25.0, abs=1e-15)


def test_theorem_sweep_all_cells_within_tolerance():
    certs = theorem_sweep(200, seed=0)
    assert len(certs) == 200
    assert all(c.passed for c in certs)
    assert max(c.max_abs_diff for c in certs) <= 1e-10


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        w, u = jacobi_eigh(a)
        w_np = np.linalg.eigvalsh(a)
        assert np.abs(w - w_np).max() < 1e-9
        # columns are eigenvectors of a
        assert np.abs(a @ u - u * w).max() < 1e-9
        assert np.abs(u.T @ u - np.eye(n)).max() < 1e-9


def test_jacobi_ascending_order():
    a = np.diag([3.0, -1.0, 2.0])
    w, _ = jacobi_eigh(a)
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_spectrum_frozen_two_rho_two():
    # n=2, rho=2: eigenvalues {0.5, 1}; laplacian {0, 0.5}; coefficients (1, 0.5)
    rep = spectrum_check(2, 2.0)
    assert rep.passed
    assert np.allclose(rep.probe_eigenvalues, [0.5, 1.0], atol=1e-12)
    assert np.allclose(rep.laplacian_eigenvalues, [0.0, 0.5], atol=1e-12)
    assert rep.filter_coefficients == (1.0, 0.5)


def test_spectrum_rho_zero_all_pass_filter_dies():
    rep = spectrum_check(5, 0.0)
    assert rep.passed
    assert np.allclose(rep.probe_eigenvalues, [0, 0, 0, 0, 1], atol=1e-12)
    assert rep.filter_coefficients == (1.0, 0.0)


def test_spectrum_multiplicities():
    n, rho = 7, 4.0
    rep = spectrum_check(n, rho)
    assert rep.passed
    minor = rho / (n + rho)
    w = np.asarray(rep.probe_eigenvalues)
    assert np.sum(np.abs(w - minor) < 1e-9) == n - 1
    assert np.sum(np.abs(w - 1.0) < 1e-9) == 1


def test_biinteraction_pairwise_frozen():
    e = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(biinteraction_pairwise(e), [3.0, 8.0])


def test_biinteraction_pairwise_three_rows():
    e = np.array([[1.0], [2.0], [3.0]])
    # 1*2 + 1*3 + 2*3 = 11
    assert biinteraction_pairwise(e)[0] == pytest.approx(11.0)


def test_biinteraction_agreement_bound():
    assert biinteraction_agreement(100, seed=0) <= 1e-12
