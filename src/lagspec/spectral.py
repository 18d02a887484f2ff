"""Finite Jacobi matrices and their weighted spectral measures.

A symmetric tridiagonal matrix with positive subdiagonal is held as a
:class:`JacobiCoefficients` value. Its spectral measure (eigenvalues as
atoms, squared first eigenvector components as weights) is a
:class:`SpectralMeasure`. The two representations are bijective at finite
size; :func:`eigen_spectral` (LAPACK's divide and conquer eigensolver)
and :func:`measure_to_coefficients` implement the two directions, and
:func:`moments_via_operator` / :func:`moments_of_measure` compute moments
on either side without ever leaving it.

The forward direction takes numpy's dense eigensolver up to size 128, so
that small measures such as ``lagspec sample``'s never import the slow
``scipy.linalg``, and scipy's tridiagonal one above; see
:func:`eigen_spectral` for why the two agree and what each costs.

The inverse direction costs O(n^2): a divide and conquer that merges the
Jacobi matrices of two halves of the atoms with LAPACK's band reduction
(dsbtrd), after Gragg & Harrod (Numer. Math. 44, 1984). scipy does not wrap
dsbtrd, so it is reached through scipy's Cython LAPACK table on first use.
"""

from __future__ import annotations

import ctypes
import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "JacobiCoefficients",
    "SpectralMeasure",
    "eigen_spectral",
    "free_jacobi",
    "measure_to_coefficients",
    "moments_of_measure",
    "moments_via_operator",
]

# Off-diagonal of the tridiagonal reduction, relative to the largest |atom|
# (at least 1), below which inverting a measure is declared broken down.
_REDUCTION_BREAKDOWN = 1e-12

_WEIGHT_SUM_TOL = 1e-10

# Measures with at most this many atoms are inverted by one dense reduction;
# larger ones are split in two until the blocks are this small. Smaller
# blocks are slightly faster but lose accuracy on small-beta measures.
_LEAF_ATOMS = 128

# Jacobi matrices of at most this size are diagonalized as dense matrices by
# numpy's LAPACK, larger ones by scipy's tridiagonal solver (eigen_spectral).
_DENSE_EIGH_ATOMS = 128

# dsbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info)
_DSBTRD_SIGNATURE = ("void (char *, char *, int *, int *, double *, int *, double *, "
                     "double *, double *, int *, double *, int *)")


@dataclass
class JacobiCoefficients:
    """Diagonal d_1..d_n and strictly positive off-diagonal c_1..c_{n-1}."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag = np.atleast_1d(np.asarray(self.diag, dtype=np.float64))
        self.offdiag = np.asarray(self.offdiag, dtype=np.float64).reshape(-1)
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must be a nonempty 1-D array")
        if self.offdiag.size != self.diag.size - 1:
            raise ValueError(
                f"offdiag must have length n-1 = {self.diag.size - 1}, "
                f"got {self.offdiag.size}"
            )
        fault = _first_fault(self.diag, self.offdiag)
        if fault is not None:
            raise ValueError(fault[1])

    @property
    def n(self) -> int:
        return self.diag.size


def _first_fault(diag: np.ndarray, offdiag: np.ndarray) -> tuple[int, str] | None:
    """Row index and reason of the first invalid Jacobi data, or None.

    Rows are stacked on the leading axes and the coefficients run along the
    last one; a 1-D pair is a single row 0. A row is invalid when an entry
    is not finite or an off-diagonal entry is not strictly positive.
    """
    finite = np.isfinite(diag).all(axis=-1) & np.isfinite(offdiag).all(axis=-1)
    valid = np.ravel(finite & (offdiag > 0).all(axis=-1))
    if valid.all():
        return None
    row = int(np.argmin(valid))
    if not np.ravel(finite)[row]:
        return row, "coefficients must be finite"
    return row, "off-diagonal entries must be strictly positive"


@dataclass
class SpectralMeasure:
    """Atoms lambda_1 < ... < lambda_n with positive weights summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = np.atleast_1d(np.asarray(self.atoms, dtype=np.float64))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if self.atoms.shape != self.weights.shape or self.atoms.ndim != 1:
            raise ValueError("atoms and weights must be 1-D arrays of equal length")
        if self.atoms.size < 1:
            raise ValueError("measure must have at least one atom")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atoms must be finite")
        if self.atoms.size > 1 and not np.all(np.diff(self.atoms) > 0):
            raise ValueError("atoms must be strictly increasing")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")

    @property
    def n(self) -> int:
        return self.atoms.size


def free_jacobi(n: int) -> JacobiCoefficients:
    """Truncation of the free Jacobi matrix: zero diagonal, unit off-diagonal."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return JacobiCoefficients(np.zeros(n), np.ones(n - 1))


def eigen_spectral(coeffs: JacobiCoefficients) -> SpectralMeasure:
    """Spectral measure of a Jacobi matrix via LAPACK's divide and conquer.

    The atoms are the eigenvalues; weight i is the squared first component
    of the i-th normalized eigenvector. Raises NumericalError when the
    eigensolver fails to converge.

    Matrices of size at most 128 go to numpy's dense ``eigh`` (dsyevd),
    larger ones to scipy's ``eigh_tridiagonal`` (dstevd). Both end in the
    same tridiagonal divide and conquer (dstedc), since dsyevd's reduction
    of a matrix that is already tridiagonal reflects nothing; on a 2-core
    x86-64 VM (numpy 2.4, scipy 1.17) they gave the same bits on 512
    random Jacobi matrices of sizes 1-128. The small sizes thereby skip
    importing ``scipy.linalg``, which there costs a fresh process about
    0.25 s and 29 MB, more than the rest of ``lagspec sample --n 50``.
    Once scipy is loaded, dsyevd is the slower of the two: by 0.3-1.3 ms
    at sizes 100-128, and by more as its O(n^3) dense work grows.
    """
    n = coeffs.n
    try:
        if n <= _DENSE_EIGH_ATOMS:
            # eigh reads only the lower triangle.
            dense = np.diag(coeffs.diag) + np.diag(coeffs.offdiag, -1)
            lam, vecs = np.linalg.eigh(dense, UPLO="L")
        else:
            # Imported here: scipy.linalg is slow to import, and only large
            # measures and their inversion need it.
            from scipy.linalg import eigh_tridiagonal

            lam, vecs = eigh_tridiagonal(coeffs.diag, coeffs.offdiag)
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's class
        raise NumericalError(
            f"tridiagonal eigensolver failed for matrix of size {n}: {exc}"
        ) from exc
    return SpectralMeasure(lam, vecs[0] ** 2)


def moments_via_operator(coeffs: JacobiCoefficients, order: int) -> np.ndarray:
    """Moments m_k = <e1, J^k e1> for k = 1..order by iterated matvec.

    No eigendecomposition is involved; this is the operator-side route to
    the same numbers :func:`moments_of_measure` produces on the measure
    side. Only the leading window of size min(order + 1, n) is read: J^k e1
    is supported on the first k + 1 coordinates, so the cost is O(order^2)
    whatever the matrix size.
    """
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    w = min(order + 1, coeffs.n)
    return _window_moments(coeffs.diag[:w], coeffs.offdiag[: w - 1], order)


def _window_moments(diag: np.ndarray, offdiag: np.ndarray, order: int) -> np.ndarray:
    """m_1..m_order of leading windows stacked on the leading axes.

    ``diag`` and ``offdiag`` hold the first w and w - 1 coefficients of each
    matrix along the last axis, with w = min(order + 1, n); the result has
    the moments along the last axis. Every row is computed with the same
    floating-point operations, in the same order, as a single window.
    """
    out = np.empty(diag.shape[:-1] + (order,))
    v = np.zeros(diag.shape)
    v[..., 0] = 1.0
    for k in range(order):
        u = diag * v
        # Left neighbour first: floating-point addition is not associative,
        # and the seeded clt/mdp report bytes were fixed with this order.
        u[..., 1:] += offdiag * v[..., :-1]
        u[..., :-1] += offdiag * v[..., 1:]
        v = u
        out[..., k] = v[..., 0]
    return out


def moments_of_measure(measure: SpectralMeasure, order: int) -> np.ndarray:
    """Moments m_k = sum_i w_i lambda_i^k for k = 1..order.

    Each sum is accumulated with numpy's pairwise summation, which keeps
    cancellation mild even for high moments.
    """
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    lam = measure.atoms
    w = measure.weights
    out = np.empty(order)
    power = np.ones_like(lam)
    for k in range(order):
        power = power * lam
        out[k] = np.sum(w * power)
    return out


def measure_to_coefficients(measure: SpectralMeasure, order: int) -> JacobiCoefficients:
    """Recursion coefficients of the orthonormal polynomials of a measure.

    Lanczos from sqrt(w) on diag(lambda) yields them, and so does any
    orthogonal reduction of the bordered matrix
    [[0, sqrt(w)^T], [sqrt(w), diag(lambda)]] to tridiagonal form that keeps
    e1 fixed: its trailing block is the Jacobi matrix. The reduction here is
    a divide and conquer after Gragg & Harrod (Numer. Math. 44, 1984): the
    atoms are dealt into two halves, each half is reduced on its own, and
    LAPACK's band reduction (dsbtrd) merges the two Jacobi matrices; blocks
    of at most 128 atoms get LAPACK's dense Householder reduction (dsytrd).
    The cost is O(n^2) time at any ``order``, since a smaller ``order``
    truncates the full reduction (see also Gautschi, Orthogonal Polynomials,
    2004, section 2.2).

    The first ``order`` diagonal and ``order - 1`` off-diagonal entries are
    returned, which inverts :func:`eigen_spectral` when ``order`` equals the
    number of atoms n.

    Raises ValueError when ``order`` exceeds n and NumericalError when LAPACK
    fails or an off-diagonal up to ``order`` collapses (numerical breakdown,
    typically from nearly coincident atoms).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > measure.n:
        raise ValueError(f"order {order} exceeds the number of atoms {measure.n}")
    # Heaviest atoms first: J does not depend on the order, but this one
    # keeps tiny (small-beta) weights as accurate as the Stieltjes procedure.
    heavy_first = np.argsort(-measure.weights, kind="stable")
    d, e = _bordered_tridiagonal(measure.atoms[heavy_first],
                                 np.sqrt(measure.weights[heavy_first]))
    off = np.abs(e[1:order])
    scale = max(1.0, float(np.max(np.abs(measure.atoms))))
    collapsed = ~(off > _REDUCTION_BREAKDOWN * scale)  # NaN counts as collapsed
    if collapsed.any():
        k = int(np.argmax(collapsed))
        raise NumericalError(
            f"tridiagonal reduction broke down at step {k + 1}: off-diagonal {off[k]:.3g}"
        )
    return JacobiCoefficients(d[1 : order + 1], off)


def _bordered_tridiagonal(atoms: np.ndarray, masses: np.ndarray):
    """Tridiagonal form (d, e) of [[0, masses^T], [masses, diag(atoms)]], e1 fixed.

    d[0] is 0 and |e[0]| is the norm of ``masses``; the rest is the Jacobi
    matrix of the measure with these atoms and squared masses, normalized.
    """
    if atoms.size <= _LEAF_ATOMS:
        return _dense_reduction(atoms, masses)
    # Dealing the ranks alternately keeps both halves heaviest first and
    # spreads the tiny weights over both; splitting the list into a heavy
    # and a light half loses accuracy on small-beta measures.
    da, ea = _bordered_tridiagonal(atoms[0::2], masses[0::2])
    db, eb = _bordered_tridiagonal(atoms[1::2], masses[1::2])
    return _band_merge(da, ea, db, eb)


def _dense_reduction(atoms: np.ndarray, masses: np.ndarray):
    """LAPACK's in-place Householder reduction (dsytrd) of the bordered matrix."""
    # Imported here for the same reason as in eigen_spectral.
    from scipy.linalg.lapack import dsytrd, dsytrd_lwork

    n = atoms.size
    # Fortran order lets LAPACK overwrite the matrix instead of copying it.
    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[1:, 0] = masses
    np.fill_diagonal(bordered[1:, 1:], atoms)
    lwork, _ = dsytrd_lwork(n + 1, lower=1)
    _, d, e, _, info = dsytrd(bordered, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"Householder tridiagonalization failed: LAPACK info {info}")
    return d, e


def _band_merge(da: np.ndarray, ea: np.ndarray, db: np.ndarray, eb: np.ndarray):
    """Tridiagonal form (d, e), e1 fixed, of two bordered tridiagonals joined.

    (da, ea) and (db, eb) come from :func:`_bordered_tridiagonal` on the two
    halves, with at most one row more in the first. Joined at their border
    row they give [[0, a e1^T, b e1^T], [a e1, J_a, 0], [b e1, 0, J_b]],
    orthogonally similar to the bordered matrix of all the atoms with e1
    fixed. In the row order (border, a_1, b_1, a_2, b_2, ...) it is a band
    matrix of half-bandwidth 2, which dsbtrd reduces in O(n^2) by rotations
    that leave the first row alone.
    """
    ma, mb = da.size - 1, db.size - 1
    size = 1 + ma + mb
    # LAPACK lower band storage: band[i - j, j] holds A[i, j] for i - j <= 2.
    band = np.zeros((3, size), order="F")
    band[0, 1::2] = da[1:]
    band[0, 2::2] = db[1:]
    band[1, 0] = ea[0]
    band[2, 0] = eb[0]
    band[2, 1 : 2 * ma - 1 : 2] = ea[1:]
    band[2, 2 : 2 * mb : 2] = eb[1:]
    d = np.empty(size)
    e = np.empty(size - 1)
    work = np.empty(size)
    unused_q = np.empty(1)
    info = ctypes.c_int(0)
    _dsbtrd()(b"N", b"L", ctypes.c_int(size), ctypes.c_int(2), band, ctypes.c_int(3),
              d, e, unused_q, ctypes.c_int(1), work, info)
    if info.value != 0:
        raise NumericalError(f"band tridiagonalization failed: LAPACK info {info.value}")
    return d, e


@functools.cache
def _dsbtrd():
    """LAPACK's dsbtrd as a ctypes function, resolved on first use.

    scipy.linalg.lapack does not wrap it, but scipy.linalg.cython_lapack
    exports every LAPACK routine as a capsule named by its C signature. The
    name is checked against the prototype below before the pointer is used;
    a mismatch raises ImportError.
    """
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dsbtrd"]
    # Private prototypes: setting restype on ctypes.pythonapi's shared
    # function objects would change them for every other caller.
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    # Cython spells double through a module-mangled typedef, __pyx_t_..._d.
    signature = re.sub(r"__pyx_t_\w+_d\b", "double", name.decode())
    if signature != _DSBTRD_SIGNATURE:
        raise ImportError(f"scipy's LAPACK dsbtrd has an unexpected signature: {signature}")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    char, num = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(None, char, char, num, num, f64, num, f64, f64, f64,
                                 num, f64, num)
    return prototype(get_pointer(capsule, name))
