"""Finite Jacobi matrices and their weighted spectral measures.

A symmetric tridiagonal matrix with positive subdiagonal is held as a
:class:`JacobiCoefficients` value. Its spectral measure (eigenvalues as
atoms, squared first eigenvector components as weights) is a
:class:`SpectralMeasure`. The two representations are bijective at finite
size; :func:`eigen_spectral` and :func:`measure_to_coefficients` implement
the two directions, and :func:`moments_via_operator` /
:func:`moments_of_measure` compute moments on either side without ever
leaving it.

The forward direction takes numpy's dense eigensolver up to size 64.
Above that it needs only the first row of the eigenvectors (Golub &
Welsch, Math. Comp. 23, 1969): the shifted matrix is factored as R^T R
with R bidiagonal, and LAPACK's divide and conquer SVD of R (dlasda, Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995), asked for singular values
only, still carries the first row of the right singular vectors, which is
all the weights need. See :func:`eigen_spectral` for the details and what
it costs. ``lagspec sample`` diagonalizes models of up to 64 rows without
numpy, by the implicit QL method of ``scalar._ql_spectrum``, and checks
its measure with ``scalar._check_measure``, which is the check of
:class:`SpectralMeasure` itself.

The inverse direction costs O(n^2): a divide and conquer after Gragg &
Harrod (Numer. Math. 44, 1984) reduces blocks of at most 56 atoms, and
merges two halves' Jacobi matrices, with LAPACK's band reduction (dsbtrd).

The three LAPACK routines these need beyond numpy's ``eigh`` (dpttrf,
dlasda, dsbtrd) come, on first use, from the LAPACK that
``numpy.linalg`` is linked against when that is the 64-bit-integer
OpenBLAS numpy's wheels bundle, so that ``scipy`` is never imported;
otherwise (as with numpy linked against Accelerate or MKL) from scipy's
Cython LAPACK table through a signature-checked loader. Any nonzero info
they return is a NumericalError naming the routine (``LAPACK dsbtrd info
3``), which :func:`eigen_spectral` words as its own failure.
"""

from __future__ import annotations

import ctypes
import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _integer
from .scalar import (_EIGENSOLVER_FAILED, _NOT_FINITE, _NOT_POSITIVE, _WEIGHT_SUM_TOL,
                     _check_measure)

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

# Measures are split in two until the blocks (leaves) have at most this many
# atoms. Timed in one process (2-core x86-64 VM, numpy 2.4), leaves of 62 and
# 125 atoms took 1.01-1.02 and 1.3 times as long as leaves of 31 at n = 1000,
# leaves of 25 1.10 times as long as leaves of 50 at n = 200 and 400, and
# leaves of 60 1.04-1.07 times as long as leaves of 30 at n = 120.
_LEAF_ATOMS = 56

# Jacobi matrices of at most this size are diagonalized as dense matrices by
# numpy's LAPACK, larger ones through the bidiagonal SVD (eigen_spectral).
# The two take the same time near 64 rows, and at 128 the SVD takes 0.6 of
# the dense time (medians of 21 alternations, 2-core x86-64 VM, numpy 2.4).
_DENSE_EIGH_ATOMS = 64

# Largest bidiagonal block that LAPACK's divide and conquer SVD solves
# directly, dgelsd's choice (ILAENV). dlasda hands a bidiagonal of at most
# this size to dlasdq whole and then leaves no first row of V in its
# workspace, so _DENSE_EIGH_ATOMS must stay at least this large.
_SVD_LEAF = 25

# Argument kinds of the LAPACK routines called here: c a char, i an integer,
# I an integer array, d a double array. The last argument of each is
# LAPACK's info.
_LAPACK_ARGS = {
    # dpttrf(n, d, e, info)
    "dpttrf": "iddi",
    # dsbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info)
    "dsbtrd": "cciididddidi",
    # dlasda(icompq, smlsiz, n, sqre, d, e, u, ldu, vt, k, difl, difr, z, poles,
    #        givptr, givcol, ldgcol, perm, givnum, c, s, work, iwork, info)
    "dlasda": "iiiidddidIddddIIiIddddIi",
}


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
        return row, _NOT_FINITE
    return row, _NOT_POSITIVE


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
        _check_measure(self.atoms.tolist(), self.weights.tolist())

    @property
    def n(self) -> int:
        return self.atoms.size


def free_jacobi(n: int) -> JacobiCoefficients:
    """Truncation of the free Jacobi matrix: zero diagonal, unit off-diagonal."""
    _integer(n, "n", 1)
    return JacobiCoefficients(np.zeros(n), np.ones(n - 1))


def eigen_spectral(coeffs: JacobiCoefficients) -> SpectralMeasure:
    """Spectral measure of a Jacobi matrix: its eigenvalues, first-row weights.

    The atoms are the eigenvalues; weight i is the squared first component
    of the i-th normalized eigenvector. An atom whose weight comes out as
    exactly 0 (below the double range, as at small beta, or deflated by
    the solver) is dropped, so ``coeffs.n - measure.n`` atoms are lost, and
    the weights that remain still sum to 1 within 1e-10. Raises
    NumericalError when the solver fails: "tridiagonal eigensolver failed
    for matrix of size <n>: <reason>", where a nonzero LAPACK info reads
    "LAPACK <routine> info <info>".

    Matrices of size at most 64 go to numpy's dense ``eigh`` (dsyevd),
    whose reduction of a tridiagonal matrix reflects nothing before the
    divide and conquer. Larger ones are scaled by a power of two, shifted
    past their Gershgorin bound and factored as J + sI = R^T R with R upper
    bidiagonal (dpttrf). With the SVD R = U S V^T the atoms are S^2 - s and
    the weights the squared first row of V. LAPACK's divide and conquer
    (dlasda) run for S alone still updates that row at every merge and
    leaves it in its workspace, which is read only if it is a unit vector
    (else NumericalError). On a 2-core x86-64 VM (numpy 2.4) this takes
    about 130 ms and 0.7 MB (traced) at size 2000 and 35 ms at size 1000.
    Neither path imports scipy where numpy bundles its own OpenBLAS.
    """
    try:
        if coeffs.n <= _DENSE_EIGH_ATOMS:
            # eigh reads only the lower triangle.
            dense = np.diag(coeffs.diag) + np.diag(coeffs.offdiag, -1)
            lam, vecs = np.linalg.eigh(dense, UPLO="L")
            weights = vecs[0] ** 2
        else:
            lam, weights = _bidiagonal_spectrum(coeffs.diag, coeffs.offdiag)
    except (np.linalg.LinAlgError, NumericalError) as exc:
        raise NumericalError(_EIGENSOLVER_FAILED.format(n=coeffs.n, reason=exc)) from exc
    kept = weights > 0
    return SpectralMeasure(lam[kept], weights[kept])


def _bidiagonal_spectrum(diag: np.ndarray, offdiag: np.ndarray):
    """Ascending eigenvalues and squared first eigenvector components of J.

    See :func:`eigen_spectral`. After the scaling by 2^-k every entry is
    below 1 in magnitude, and the shift puts the spectrum of J + sI in
    [1, 7], so R is well conditioned and neither overflows nor underflows.
    """
    n = diag.size
    _, k = np.frexp(max(np.max(np.abs(diag)), np.max(offdiag, initial=0.0)))
    d = np.ldexp(diag, -k)
    e = np.ldexp(offdiag, -k)
    radius = np.zeros(n)
    radius[:-1] += e
    radius[1:] += e
    shift = 1.0 - float(np.min(d - radius))
    # dpttrf factors J + sI = L D L^T with L unit lower bidiagonal, so
    # J + sI = R^T R with R = D^1/2 L^T = diag(q) + superdiagonal f. It
    # overwrites d + shift with D and e with the subdiagonal of L.
    pivots = d + shift
    _run_lapack("dpttrf", n, pivots, e)
    q = np.sqrt(pivots)
    f = np.zeros(n)  # LAPACK reads n - 1 entries
    f[:-1] = e * q[:-1]
    # With singular values only, dlasda still carries the first and last
    # rows of V through every merge (it builds each secular equation from
    # them) and leaves the first in work[:n], in the order of S, which
    # overwrites q. The arrays are sized as dlasda documents them for this
    # mode: difl and poles by its tree's floor(log2(n / 26)) + 1 levels below
    # 25-row leaves, plus one spare level for the rounding of LAPACK's own
    # log2; u, vt, givptr, givcol, perm and givnum are not referenced; the
    # scalars k, c and s each need an array of their own.
    levels = (n // (_SVD_LEAF + 1)).bit_length() + 1
    unused = np.zeros(1)
    work = np.zeros(6 * n + (_SVD_LEAF + 1) ** 2)
    _run_lapack(
        "dlasda", 0, _SVD_LEAF, n, 0, q, f, unused, n, unused, 1,
        np.zeros((n, levels), order="F"), np.zeros(n), np.zeros(n),
        np.zeros((n, 2 * levels), order="F"), 1, 1, n, 1, unused,
        np.zeros(1), np.zeros(1), work, 7 * n)
    first_row = work[:n]
    # WORK is not a documented output: accept it only as a unit vector.
    norm = float(np.sum(first_row**2))
    if not abs(norm - 1.0) <= _WEIGHT_SUM_TOL:
        raise NumericalError(f"LAPACK dlasda left a first row of V with squared norm {norm!r}")
    order = np.argsort(q)
    return np.ldexp(q[order] ** 2 - shift, k), first_row[order] ** 2


def moments_via_operator(coeffs: JacobiCoefficients, order: int) -> np.ndarray:
    """Moments m_k = <e1, J^k e1> for k = 1..order by iterated matvec.

    No eigendecomposition is involved; this is the operator-side route to
    the same numbers :func:`moments_of_measure` produces on the measure
    side. Only the leading window of size min(order + 1, n) is read: J^k e1
    is supported on the first k + 1 coordinates, so the cost is O(order^2)
    whatever the matrix size.
    """
    _integer(order, "moment order", 1)
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
    _integer(order, "moment order", 1)
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
    LAPACK's band reduction (dsbtrd) merges the two Jacobi matrices. Blocks
    of at most 56 atoms are reduced by dsbtrd too: their bordered matrix is
    a band matrix whose half-bandwidth is the number of atoms.
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
    _integer(order, "order", 1)
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
        # The bordered matrix is a band matrix of half-bandwidth atoms.size.
        band = np.zeros((atoms.size + 1, atoms.size + 1), order="F")
        band[0, 1:] = atoms
        band[1:, 0] = masses
        return _band_reduction(band)
    # Dealing the ranks alternately keeps both halves heaviest first and
    # spreads the tiny weights over both; splitting the list into a heavy
    # and a light half loses accuracy on small-beta measures.
    da, ea = _bordered_tridiagonal(atoms[0::2], masses[0::2])
    db, eb = _bordered_tridiagonal(atoms[1::2], masses[1::2])
    return _band_merge(da, ea, db, eb)


def _band_merge(da: np.ndarray, ea: np.ndarray, db: np.ndarray, eb: np.ndarray):
    """Tridiagonal form (d, e), e1 fixed, of two bordered tridiagonals joined.

    (da, ea) and (db, eb) come from :func:`_bordered_tridiagonal` on the two
    halves, with at most one row more in the first. Joined at their border
    row they give [[0, a e1^T, b e1^T], [a e1, J_a, 0], [b e1, 0, J_b]],
    orthogonally similar to the bordered matrix of all the atoms with e1
    fixed. In the row order (border, a_1, b_1, a_2, b_2, ...) it is a band
    matrix of half-bandwidth 2.
    """
    ma, mb = da.size - 1, db.size - 1
    band = np.zeros((3, 1 + ma + mb), order="F")
    band[0, 1::2] = da[1:]
    band[0, 2::2] = db[1:]
    band[1, 0] = ea[0]
    band[2, 0] = eb[0]
    band[2, 1 : 2 * ma - 1 : 2] = ea[1:]
    band[2, 2 : 2 * mb : 2] = eb[1:]
    return _band_reduction(band)


def _band_reduction(band: np.ndarray):
    """Tridiagonal form (d, e), e1 fixed, of a symmetric band matrix A.

    ``band`` holds A in LAPACK lower band storage, band[i - j, j] = A[i, j],
    and is overwritten. dsbtrd reduces it in O(n^2) times the half-bandwidth
    by rotations that leave the first row alone; Q is not formed.
    """
    kd, size = band.shape[0] - 1, band.shape[1]
    d, e = np.empty(size), np.empty(size - 1)
    _run_lapack("dsbtrd", b"N", b"L", size, kd, band, kd + 1, d, e, np.empty(1), 1,
                np.empty(size))
    return d, e


def _run_lapack(routine: str, *args) -> None:
    """Call a routine of ``_LAPACK_ARGS`` by reference, LAPACK's info last.

    Chars are passed as bytes and double arrays as they are. An integer is
    passed as LAPACK's integer type, and where the routine takes an integer
    array, as the length of a zeroed one: no caller reads one back. This is
    the only reader of LAPACK's info: any nonzero value raises
    NumericalError("LAPACK <routine> info <info>").
    """
    functions, integer = _lapack()
    info = integer(0)
    functions[routine](*(integer(a) if kind == "i"
                         else np.zeros(a, dtype=integer) if kind == "I"
                         else a
                         for kind, a in zip(_LAPACK_ARGS[routine], args)), info)
    if info.value != 0:
        raise NumericalError(f"LAPACK {routine} info {info.value}")


@functools.cache
def _lapack():
    """The routines of ``_LAPACK_ARGS`` and LAPACK's integer type, on first use.

    They come from the library that ``numpy.linalg`` is linked against
    when :func:`_resolve_lapack` accepts it, else from scipy.
    """
    from numpy.linalg import _umath_linalg

    return _resolve_lapack(ctypes.CDLL(_umath_linalg.__file__))


def _resolve_lapack(library):
    """``(routines, integer type)`` from ``library`` if possible, else from scipy.

    numpy's wheels bundle scipy-openblas, whose LAPACK routines are exported
    as scipy_<name>_64_ and, in its ILP64 build, take 64-bit integers. The
    routines are taken from ``library`` only when its build configuration
    reports USE64BITINT and it exports all of them. Otherwise they come from
    scipy's Cython LAPACK table, with C ints (:func:`_scipy_lapack`).
    """
    try:
        config = library.scipy_openblas_get_config64_
        symbols = {routine: getattr(library, f"scipy_{routine}_64_") for routine in _LAPACK_ARGS}
    except AttributeError:
        return _scipy_lapack()
    config.restype = ctypes.c_char_p
    if b"USE64BITINT" not in config().split():
        return _scipy_lapack()
    integer = ctypes.c_int64
    return {routine: _prototype(routine, integer)(ctypes.cast(symbol, ctypes.c_void_p).value)
            for routine, symbol in symbols.items()}, integer


def _scipy_lapack():
    """``(routines, ctypes.c_int)`` from scipy's Cython LAPACK table.

    scipy.linalg.cython_lapack exports every LAPACK routine as a capsule
    named by its C signature. The name is checked against the argument
    kinds before the pointer is used; a mismatch raises ImportError.
    """
    from scipy.linalg import cython_lapack

    # Private prototypes: setting restype on ctypes.pythonapi's shared
    # function objects would change them for every other caller.
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    spellings = {"c": "char *", "i": "int *", "I": "int *", "d": "double *"}
    routines = {}
    for routine, kinds in _LAPACK_ARGS.items():
        capsule = cython_lapack.__pyx_capi__[routine]
        name = get_name(capsule)
        # Cython spells double through a module-mangled typedef, __pyx_t_..._d.
        signature = re.sub(r"__pyx_t_\w+_d\b", "double", name.decode())
        if signature != "void (" + ", ".join(spellings[kind] for kind in kinds) + ")":
            raise ImportError(
                f"scipy's LAPACK {routine} has an unexpected signature: {signature}")
        routines[routine] = _prototype(routine, ctypes.c_int)(get_pointer(capsule, name))
    return routines, ctypes.c_int


def _prototype(routine: str, integer):
    """ctypes prototype of a routine of ``_LAPACK_ARGS`` with this integer type."""
    kinds = {
        "c": ctypes.c_char_p,
        "i": ctypes.POINTER(integer),
        "I": np.ctypeslib.ndpointer(integer, flags="F_CONTIGUOUS"),
        "d": np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS"),
    }
    return ctypes.CFUNCTYPE(None, *(kinds[kind] for kind in _LAPACK_ARGS[routine]))
