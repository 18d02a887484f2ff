"""Sampling the tridiagonal Laguerre beta-ensemble and its rescalings.

The n x n tridiagonal model is assembled from independent chi-square draws
z_1, ..., z_{2n-1}: the diagonal is d_k = z_{2k-1} + z_{2k-2} (with z_0 = 0)
and the off-diagonal is c_k = sqrt(z_{2k-1} z_{2k}). The degrees of freedom
are 2*gamma - beta'(k-1) for odd k and beta'(2n-k) for even k, with
beta' = beta/2. Eigenvalue centerings divide out sqrt(2*gamma*n*beta) after
subtracting 2*gamma (standard) or 2*gamma + n*beta (shifted).

Randomness flows through numpy Generators on the PCG64 bit generator. Every
sampler is a pure function of (generator, parameters): identical seeds give
bit-identical output. :func:`derive_seed` gives replicate i of a seeded
Monte Carlo run its own child seed. The experiments draw a block of
replicates at once, with the same bits as ``make_rng(derive_seed(master,
i))`` per replicate: the block's seeds are derived and hashed, and its
PCG64 generators seeded and stepped, in vectorized uint64 arithmetic, and
numpy's gamma sampler (Marsaglia & Tsang's squeeze method on ziggurat
normals) is repeated in vectorized float arithmetic wherever it takes its
fast branches. The rows that leave them are drawn again by numpy's own
generator, set to the row's state.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .spectral import JacobiCoefficients, SpectralMeasure, eigen_spectral

__all__ = [
    "EnsembleParams",
    "RescalingMode",
    "derive_seed",
    "make_rng",
    "rescale",
    "sample_chi_squared",
    "sample_dirichlet",
    "sample_laguerre_tridiagonal",
    "sample_spectral_measure",
]

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# splitmix64 (derive_seed): the golden-gamma step and the finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_SPLITMIX_A = 0xBF58476D1CE4E5B9
_SPLITMIX_B = 0x94D049BB133111EB

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier,
# as in numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_INVERSE = pow(_PCG64_MULT, -1, 1 << 128)

# PCG64's multiplier as uint64 words: high word, low word, and the low
# word's 32-bit limbs (see _lcg_step).
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_MULT_HI, _MULT_LO = _U64(_PCG64_MULT >> 64), _U64(_PCG64_MULT & _MASK64)
_MULT_LO0, _MULT_LO1 = _U64(_PCG64_MULT & 0xFFFFFFFF), _U64((_PCG64_MULT >> 32) & 0xFFFFFFFF)

# The gamma fast path (see _ziggurat and _fast_gamma): how far below its
# ratio estimate each ziggurat rectangle bound is taken, the relative margin
# of the log test, the increment of hand-built generator states, and the
# seed and count of the raw output pairs that check the gamma arithmetic.
_KI_MARGIN = 2.0**20
_LOG_MARGIN = 1e-9
_PROBE_INC = 1
_CHECK_SEED, _CHECK_DRAWS = 2024, 64


class RescalingMode(enum.Enum):
    """Eigenvalue centering: by 2*gamma, by 2*gamma + n*beta, or none."""

    STANDARD = "standard"
    SHIFTED = "shifted"
    NONE = "none"


@dataclass(frozen=True)
class EnsembleParams:
    """Size n, inverse temperature beta, parameter gamma, and centering mode.

    gamma must exceed (n-1)*beta/2, otherwise the eigenvalue density (and
    every chi-square degree of freedom in the tridiagonal model) would be
    ill-defined; violations are rejected here rather than clamped.
    """

    n: int
    beta: float
    gamma: float
    mode: RescalingMode = RescalingMode.STANDARD

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (self.beta > 0) or not np.isfinite(self.beta):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not np.isfinite(self.gamma) or not (self.gamma > (self.n - 1) * self.beta / 2.0):
            raise ValueError(
                f"gamma must exceed (n-1)*beta/2 = {(self.n - 1) * self.beta / 2.0}, "
                f"got {self.gamma!r}"
            )
        if not isinstance(self.mode, RescalingMode):
            raise ValueError(f"mode must be a RescalingMode, got {self.mode!r}")

    @property
    def beta_prime(self) -> float:
        return self.beta / 2.0


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit child seed for replicate ``index``.

    A splitmix64 finalizer applied to master_seed + (index+1)*golden-gamma;
    distinct indices give decorrelated streams, and the map is a pure
    function of its integer arguments (Python or numpy integers; a float
    raises ValueError), so replication stays reproducible.
    """
    index = _integer(index, "index")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    x = (_integer(master_seed, "seed") + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _SPLITMIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _SPLITMIX_B) & _MASK64
    x ^= x >> 31
    return x


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for an integer seed, taken modulo 2**64."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed") & _MASK64))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a_hi, a_lo) + (b_hi, b_lo) modulo 2**128, over uint64 word arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state step, state * MULT + inc modulo 2**128, over uint64 word arrays.

    The high word of lo * MULT_lo is summed from 32-bit limbs, whose
    products fit in 64 bits; every other product is taken modulo 2**64.
    """
    lo0, lo1 = lo & _LOW32, lo >> _U64(32)
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = lo1 * _MULT_LO1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return _add128(carry + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg64_seed(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """``PCG64(seed)``'s (state high, state low, inc high, inc low) words per uint64 seed.

    numpy's SeedSequence hashes the seed's 32-bit words, low first, into a
    pool of 4 words and mixes the pool; a 64-bit seed is 2 words here,
    zero-padded to 4, which hashes as numpy's 1-word form does for seeds
    below 2**32. ``generate_state(4, uint64)`` hashes the pool out to 8
    words, paired little-endian into (initstate high, low, initseq high,
    low). Both steps run over the whole array, as 32-bit arithmetic done in
    uint64 and masked (no product of two 32-bit words overflows 64 bits).
    PCG64 then seeds its 128-bit LCG: inc = 2*initseq + 1 and state =
    (inc + initstate)*MULT + inc, also over the whole array.
    """
    u64 = np.uint64
    low32 = u64(0xFFFFFFFF)

    def hasher(const: int, mult: int):
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ u64(const)
            const = (const * mult) & 0xFFFFFFFF
            value = (value * u64(const)) & low32
            return value ^ (value >> u64(16))

        return hashmix

    mix_in = hasher(_SS_INIT_A, _SS_MULT_A)
    zero = np.zeros_like(seeds)
    pool = [mix_in(w) for w in (seeds & low32, seeds >> u64(32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (u64(_SS_MIX_L) * pool[dst] - u64(_SS_MIX_R) * mix_in(pool[src])) & low32
                pool[dst] = mixed ^ (mixed >> u64(16))
    mix_out = hasher(_SS_INIT_B, _SS_MULT_B)
    s_hi, s_lo, q_hi, q_lo = [
        mix_out(pool[2 * k % 4]) | (mix_out(pool[(2 * k + 1) % 4]) << u64(32)) for k in range(4)
    ]
    inc_hi = (q_hi << u64(1)) | (q_lo >> u64(63))
    inc_lo = (q_lo << u64(1)) | u64(1)
    state = _lcg_step(*_add128(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo)
    return (*state, inc_hi, inc_lo)


def _state_dicts(s_hi, s_lo, inc_hi, inc_lo) -> Iterator[dict]:
    """A PCG64 ``state`` dict per row of the (state, inc) word arrays."""
    for words in zip(s_hi.tolist(), s_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        yield _state_dict(words[0] << 64 | words[1], words[2] << 64 | words[3])


def _state_dict(state: int, inc: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """Yield ``PCG64(seed).state`` for each uint64 seed, without a SeedSequence per seed."""
    return _state_dicts(*_pcg64_seed(seeds))


def _pcg64_outputs(s_hi, s_lo, inc_hi, inc_lo) -> Iterator[np.ndarray]:
    """Each generator's successive raw 64-bit outputs, one array per step.

    PCG64 steps its state, then outputs XSL-RR: the two state words xored,
    rotated right by the top 6 bits of the high word. The left shift is
    taken modulo 64, so that no shift reaches 64 when the rotation is 0.
    """
    while True:
        s_hi, s_lo = _lcg_step(s_hi, s_lo, inc_hi, inc_lo)
        x, rot = s_hi ^ s_lo, s_hi >> _U64(58)
        yield (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


def _fast_gamma(outputs, shapes: np.ndarray, wi: np.ndarray, ki: np.ndarray):
    """Standard gamma draws of ``shapes`` from two raw outputs each, on numpy's fast branches.

    For a shape above 1, numpy's ``standard_gamma`` is Marsaglia & Tsang's
    squeeze method (ACM TOMS 26, 2000): one ziggurat normal X from a raw
    output r (layer r & 0xff, sign bit 8, 52-bit magnitude above), then
    U = next_double, and b*V with b = shape - 1/3, V = (1 + c X)^3,
    c = 1/sqrt(9b). This repeats numpy's operations in numpy's order for
    the draws that take one normal and one uniform: the ziggurat's
    rectangle (magnitude below ``ki`` of its layer), V > 0, and either the
    squeeze test or a log test decided outside a relative margin, since
    ``np.log`` and the C library's log may differ in the last bit.

    ``outputs`` yields the generators' successive raw outputs, one array
    (one entry per generator) at a time. Returns the draws, one row per
    generator, and a mask of the rows whose every draw took those
    branches; only those rows hold numpy's values.
    """
    outputs = iter(outputs)
    draws, fast = [], True
    for shape in shapes:
        r, u = next(outputs), next(outputs)
        layer = (r & _U64(0xFF)).astype(np.intp)
        rabs = (r >> _U64(9)) & _U64((1 << 52) - 1)
        fast = fast & (rabs < ki[layer])
        x = rabs.astype(np.float64) * wi[layer]
        np.negative(x, out=x, where=(r & _U64(0x100)).astype(bool))
        b = shape - 1.0 / 3.0
        c = 1.0 / np.sqrt(9 * b)
        v = 1.0 + c * x
        fast &= v > 0.0
        v = v * v * v
        u = (u >> _U64(11)).astype(np.float64) * 2.0**-53  # next_double, exact
        xx = x * x
        log_test = fast & ~(u < 1.0 - 0.0331 * xx * xx)
        if log_test.any():
            xs, vs = x[log_test], v[log_test]
            with np.errstate(divide="ignore"):  # log(0) = -inf leaves a row to the fallback
                log_u = np.log(u[log_test])
            log_v = np.log(vs)
            half_xx = 0.5 * xs * xs
            margin = _LOG_MARGIN * (np.abs(log_u) + half_xx + b * (np.abs(1.0 - vs) + np.abs(log_v)))
            fast[log_test] = log_u < half_xx + b * (1.0 - vs + log_v) - margin
        draws.append(b * v)
    return np.column_stack(draws), fast


def _state_before(first: int, second: int | None = None) -> dict:
    """A PCG64 state dict whose next raw output is ``first``, then ``second`` if given.

    The state one step on is ``first`` itself: a high word of 0 rotates by
    0, so XSL-RR outputs the low word. A second output fixes the increment:
    the state two steps on has high word 0 or 1 (still no rotation), chosen
    so that the increment is odd.
    """
    inc = _PROBE_INC
    if second is not None:
        high = 1 - ((first ^ second) & 1)
        inc = (((high << 64) | (second ^ high)) - first * _PCG64_MULT) & _MASK128
    return _state_dict(((first - inc) * _PCG64_INVERSE) & _MASK128, inc)


def _ziggurat_widths() -> np.ndarray:
    """numpy's ziggurat widths ``wi``, read from numpy's own normals.

    Raw output ``layer | 1 << 9`` (layer in the low 8 bits, sign bit 8
    clear, magnitude 1 above) falls in layer's rectangle, where numpy
    returns exactly 1 * wi[layer]; layer 1, which has no rectangle, returns
    it after one wedge test.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    wi = np.empty(256)
    for layer in range(256):
        bitgen.state = _state_before(layer | 1 << 9)
        wi[layer] = gen.standard_normal()
    return wi


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat widths ``wi`` and lower bounds on its rectangle bounds ``ki``.

    numpy does not expose its tables, so they are read from numpy on first
    use, not at import. Layer i's bound is 2**52 * wi[i-1] / wi[i] (layer 0
    against layer 255; layer 1 has no rectangle), taken ``_KI_MARGIN``
    lower so that rounding in that ratio cannot admit a magnitude numpy
    rejects. None if numpy's draws disagree with the tables (see
    :func:`_tables_agree`); every row is then drawn by the per-row
    generator.
    """
    wi = _ziggurat_widths()
    ratio = np.roll(wi, 1) / wi
    ratio[1] = 0.0
    ki = np.maximum(np.floor(ratio * 2.0**52) - _KI_MARGIN, 0.0).astype(np.uint64)
    wi.setflags(write=False)
    ki.setflags(write=False)
    return (wi, ki) if _tables_agree(wi, ki) else None


def _tables_agree(wi: np.ndarray, ki: np.ndarray) -> bool:
    """Whether numpy's own draws confirm ``wi``, ``ki`` and the gamma arithmetic.

    For every layer with a rectangle, magnitudes 1 and ki - 1 must take it
    (numpy steps its state once) with value +-magnitude * wi; as the
    rectangle test is magnitude < bound, this proves each ``ki`` entry is no
    higher than numpy's. Then ``_CHECK_DRAWS`` fixed raw output pairs at
    shape 1.5 must give numpy's gamma wherever :func:`_fast_gamma` takes
    them, which a C build that fuses 1 + c*X into one rounding would fail.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for layer in (0, *range(2, 256)):
        for sign, rabs in ((1.0, 1), (-1.0, int(ki[layer]) - 1)):
            raw = layer | (sign < 0) << 8 | rabs << 9
            bitgen.state = _state_before(raw)
            if gen.standard_normal() != sign * (rabs * wi[layer]):
                return False
            if bitgen.state["state"]["state"] != raw:
                return False
    raw = np.random.PCG64(_CHECK_SEED).random_raw((2, _CHECK_DRAWS))
    draws, fast = _fast_gamma(raw, np.array([1.5]), wi, ki)
    for row in np.flatnonzero(fast):
        bitgen.state = _state_before(*raw[:, row].tolist())
        if gen.standard_gamma(1.5) != draws[row, 0]:
            return False
    return True


def _replicate_draws(master_seed: int, block: range, shapes: np.ndarray) -> np.ndarray:
    """Gamma(``shapes``, scale 2) draws for the replicate indices ``block``, one row each.

    Row r equals ``make_rng(derive_seed(master_seed, block[r])).gamma(shapes,
    2.0)`` bit for bit, with no numpy call per row for most rows: the child
    seeds come from :func:`derive_seed`'s splitmix64 in wrapping uint64
    arithmetic over the whole block, their PCG64 states from
    :func:`_pcg64_seed`, and when every shape exceeds 1 each row's raw
    outputs from :func:`_pcg64_outputs` and its draws from
    :func:`_fast_gamma`. A row with a draw off numpy's fast branches (about
    10% of rows in a 7-draw window), and every row of a window with a shape
    of 1 or less, is drawn again by one reused generator set to the row's
    state, as numpy would draw it. The standard gamma draws are doubled at
    the end, which is exact, since numpy's gamma is scale * standard_gamma.
    """
    u64 = np.uint64
    x = np.arange(block.start + 1, block.stop + 1, block.step, dtype=u64)
    x *= u64(_GOLDEN)
    x += u64(_integer(master_seed, "seed") & _MASK64)
    x ^= x >> u64(30)
    x *= u64(_SPLITMIX_A)
    x ^= x >> u64(27)
    x *= u64(_SPLITMIX_B)
    x ^= x >> u64(31)
    seeded = _pcg64_seed(x)
    tables = _ziggurat() if shapes.min() > 1.0 else None
    if tables is None:
        z, redraw = np.empty((len(block), shapes.size)), np.arange(len(block))
    else:
        z, fast = _fast_gamma(_pcg64_outputs(*seeded), shapes, *tables)
        redraw = np.flatnonzero(~fast)
    if redraw.size:
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        for row, state in zip(redraw.tolist(), _state_dicts(*(w[redraw] for w in seeded))):
            bitgen.state = state
            gen.standard_gamma(shapes, out=z[row])
    z *= 2.0
    return z


def sample_chi_squared(rng: np.random.Generator, dof: float) -> float:
    """One chi-square draw with ``dof`` (possibly noninteger) degrees of freedom.

    Sampled as Gamma(dof/2, scale=2); the generator's gamma sampler is the
    standard squeeze-based rejection scheme, which covers noninteger shape.
    """
    if not (dof > 0):
        raise ValueError(f"degrees of freedom must be positive, got {dof!r}")
    return float(rng.gamma(dof / 2.0, 2.0))


def sample_dirichlet(rng: np.random.Generator, n: int, beta_prime: float) -> np.ndarray:
    """Symmetric Dirichlet weights on the n-simplex with parameter beta_prime.

    Implemented as normalized independent Gamma(beta_prime, 1) draws.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (beta_prime > 0):
        raise ValueError(f"beta_prime must be positive, got {beta_prime!r}")
    g = rng.gamma(beta_prime, 1.0, size=int(n))
    total = g.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("Dirichlet gamma draws underflowed to zero")
    return g / total


def _chi_squared_shapes(params: EnsembleParams, window: int) -> np.ndarray:
    """Gamma shapes (dof / 2) of z_1, ..., z_{2w-1}, w = ``window``, in model order.

    These are the draws behind the leading w x w block of the model; the
    generator draws in order, so they are also the leading draws of the
    full matrix.
    """
    k = np.arange(1, 2 * window, dtype=np.float64)
    dofs = np.where(
        k % 2 == 1,
        2.0 * params.gamma - params.beta_prime * (k - 1.0),
        params.beta_prime * (2.0 * params.n - k),
    )
    return dofs / 2.0


def _assemble(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal from chi-square draws along the last axis."""
    odd = z[..., 0::2]  # z_1, z_3, ..., z_{2w-1}
    even = z[..., 1::2]  # z_2, z_4, ..., z_{2w-2}
    diag = odd.copy()
    diag[..., 1:] += even
    return diag, np.sqrt(odd[..., :-1] * even)


def _center(
    diag: np.ndarray, offdiag: np.ndarray, params: EnsembleParams
) -> tuple[np.ndarray, np.ndarray]:
    """The standard or shifted centering of ``params.mode``, along the last axis."""
    denom = np.sqrt(2.0 * params.gamma * params.n * params.beta)
    shift = 2.0 * params.gamma
    if params.mode is RescalingMode.SHIFTED:
        shift += params.n * params.beta
    return (diag - shift) / denom, offdiag / denom


def sample_laguerre_tridiagonal(
    rng: np.random.Generator, params: EnsembleParams
) -> JacobiCoefficients:
    """Raw (unscaled) tridiagonal coefficients of the Laguerre model."""
    z = rng.gamma(_chi_squared_shapes(params, params.n), 2.0)
    return JacobiCoefficients(*_assemble(z))


def rescale(coeffs: JacobiCoefficients, params: EnsembleParams) -> JacobiCoefficients:
    """Apply the eigenvalue centering of ``params.mode`` to raw coefficients.

    Centering the eigenvalues by a constant and dividing by
    sqrt(2*gamma*n*beta) acts entrywise on the tridiagonal data: the
    constant leaves the off-diagonal untouched.
    """
    if coeffs.n != params.n:
        raise ValueError(
            f"coefficient size {coeffs.n} does not match params.n = {params.n}"
        )
    if params.mode is RescalingMode.NONE:
        return coeffs
    return JacobiCoefficients(*_center(coeffs.diag, coeffs.offdiag, params))


def sample_spectral_measure(
    rng: np.random.Generator, params: EnsembleParams
) -> SpectralMeasure:
    """One draw of the weighted spectral measure of the rescaled model.

    Composition of :func:`sample_laguerre_tridiagonal`, :func:`rescale`, and
    :func:`eigen_spectral`. The atoms carry the (rescaled) eigenvalue law
    and the weights are Dirichlet(beta') distributed, independent of the
    atoms.
    """
    return eigen_spectral(rescale(sample_laguerre_tridiagonal(rng, params), params))
