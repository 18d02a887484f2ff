"""Closed forms through eigen_spectral's large-matrix solver on small inputs.

eigen_spectral hands matrices of at most 128 rows to numpy's dense eigh and
larger ones to a bidiagonal SVD of the shifted matrix: LAPACK's dlasdq up
to 25 rows, dlasda and dlalsa above. tests/test_spectral.py checks the free
Jacobi closed forms and the single entry on the dense path, and the SVD
against two oracles from 25 rows up; here the size cut is lowered to 0, so
the same inputs go through the shift, the factorization and dlasdq. The
class and test names are older than the present solvers and are kept so
that the test ids stay the same.
"""

import numpy as np
import pytest

from lagspec import spectral
from lagspec.spectral import JacobiCoefficients, eigen_spectral


@pytest.fixture(autouse=True)
def tridiagonal_route(monkeypatch):
    def dense_eigh(*args, **kwargs):
        raise AssertionError("the dense eigh was called")

    monkeypatch.setattr(spectral, "_DENSE_EIGH_ATOMS", 0)
    monkeypatch.setattr(np.linalg, "eigh", dense_eigh)


def eigen_firstrow(diag, offdiag):
    mu = eigen_spectral(JacobiCoefficients(diag, offdiag))
    return mu.atoms, mu.weights


class TestQLAlgorithm:
    def test_free_jacobi_n3_closed_form(self):
        lam, w = eigen_firstrow(np.zeros(3), np.ones(2))
        np.testing.assert_allclose(lam, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)

    def test_free_jacobi_general_n_closed_form(self):
        n = 10
        lam, w = eigen_firstrow(np.zeros(n), np.ones(n - 1))
        j = np.arange(n, 0, -1)
        np.testing.assert_allclose(lam, 2 * np.cos(j * np.pi / (n + 1)), atol=1e-10)
        np.testing.assert_allclose(
            w, (2.0 / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2, atol=1e-10
        )


class TestActiveBackend:
    def test_single_entry(self):
        lam, w = eigen_firstrow(np.array([3.5]), np.array([]))
        assert lam[0] == 3.5 and w[0] == 1.0
