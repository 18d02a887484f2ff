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
normals, wedge tests and rejections included) is repeated in vectorized
float arithmetic, each generator stepping as far as its own draws read.
The few rows that reach the ziggurat's tail, or a test too close to
decide, are drawn again by numpy's own generator, set to the row's state.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

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
_LOW32, _HALF = _U64(0xFFFFFFFF), _U64(32)
_MULT_HI, _MULT_LO = _U64(_PCG64_MULT >> 64), _U64(_PCG64_MULT & _MASK64)
_MULT_LO0, _MULT_LO1 = _U64(_PCG64_MULT & 0xFFFFFFFF), _U64((_PCG64_MULT >> 32) & 0xFFFFFFFF)

# The gamma fast path (see _ziggurat and _fast_gamma): how far below and
# above its ratio estimate each ziggurat rectangle bound is taken, the
# relative margin of the wedge and log tests, the increment of hand-built
# generator states, and the first seed and count of the generators that
# check the gamma arithmetic.
_KI_MARGIN = 2.0**20
_MARGIN = 1e-9
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
    products and partial sums fit in 64 bits (Hacker's Delight's mulhu);
    every other product is taken modulo 2**64.
    """
    lo0, lo1 = lo & _LOW32, lo >> _HALF
    t = lo1 * _MULT_LO0 + ((lo0 * _MULT_LO0) >> _HALF)
    w = lo0 * _MULT_LO1 + (t & _LOW32)
    carry = lo1 * _MULT_LO1 + (t >> _HALF) + (w >> _HALF)
    return _add128(carry + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg64_seed(seeds: np.ndarray) -> np.ndarray:
    """``PCG64(seed)``'s state high, state low, inc high and inc low words, a column per seed.

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
    return np.stack((*state, inc_hi, inc_lo))


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


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's raw 64-bit output of the states (hi, lo), which it has just stepped to.

    XSL-RR: the two state words xored, rotated right by the top 6 bits of
    the high word. The left shift is taken modulo 64, so that no shift
    reaches 64 when the rotation is 0.
    """
    x, rot = hi ^ lo, hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


def _double(raw: np.ndarray) -> np.ndarray:
    """numpy's ``next_double`` of raw outputs: their top 53 bits times 2**-53, exact."""
    return (raw >> _U64(11)).astype(np.float64) * 2.0**-53


class _Ziggurat(NamedTuple):
    """numpy's ziggurat as the fast path reads it (see :func:`_ziggurat`)."""

    wi: np.ndarray  # layer widths: a normal is +-magnitude * wi[layer]
    ki: np.ndarray  # magnitudes below ki[layer] take the layer's rectangle
    kw: np.ndarray  # magnitudes from kw[layer] on take its wedge test
    fi: np.ndarray  # the normal density exp(-x^2/2) at each layer's edge


def _wedge_test(fi: np.ndarray, layer: np.ndarray, x: np.ndarray, u: np.ndarray):
    """numpy's wedge test, (fi[layer-1] - fi[layer]) u + fi[layer] < exp(-x^2/2).

    Returns masks of the accepted and the rejected draws. A draw within the
    relative ``_MARGIN`` of a tie is neither, since ``fi`` is derived from
    ``wi`` and ``np.exp`` may differ from the C library's in the last bit.
    """
    y = (fi[layer - 1] - fi[layer]) * u + fi[layer]
    e = np.exp(-0.5 * x * x)
    return y < e - _MARGIN * e, y > e + _MARGIN * e


def _attempt(s_hi, s_lo, inc_hi, inc_lo, b: np.ndarray, c: np.ndarray, tables: _Ziggurat):
    """One attempt of numpy's gamma sampler per generator, at b = shape - 1/3 and c = 1/sqrt(9b).

    numpy's ``standard_gamma`` for a shape above 1 is Marsaglia & Tsang's
    squeeze method (ACM TOMS 26, 2000) on ziggurat normals (Marsaglia &
    Tsang, J. Stat. Softw. 5(8), 2000). An attempt reads a raw output r as
    layer r & 0xff, sign bit 8 and a 52-bit magnitude above, and X =
    +-magnitude * wi[layer]. If the magnitude takes the layer's rectangle,
    V = 1 + c X; unless V <= 0, U = next_double and V = V^3, and the
    attempt draws b V if the squeeze test or the log test passes. Past the
    rectangle, layer 0 samples the tail, and layers 1-255 take U' =
    next_double for the wedge test, which keeps X (U is then the next
    output) or ends the attempt. numpy follows an attempt without a draw
    by a new one. This repeats numpy's operations in numpy's order, each
    generator (state words s_hi, s_lo, inc_hi, inc_lo) stepping as far as
    its own attempt reads.

    A generator is lost (undecided) at the tail, at a magnitude between
    ``ki`` and ``kw``, and at a wedge or log test within the relative
    ``_MARGIN`` of a tie, since ``fi`` is derived and ``np.exp`` and
    ``np.log`` may differ from the C library's in the last bit. Returns
    the stepped states, b V, and a mask of the generators that drew and
    the indices of those lost.
    """
    wi, ki, kw, fi = tables
    r_hi, r_lo = _lcg_step(s_hi, s_lo, inc_hi, inc_lo)
    r = _output(r_hi, r_lo)
    layer = (r & _U64(0xFF)).astype(np.intp)
    rabs = (r >> _U64(9)) & _U64((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[layer]
    x.view(np.uint64)[...] ^= (r & _U64(0x100)) << _U64(55)  # negation: the sign bit flipped
    v = 1.0 + c * x
    plain = (rabs < ki[layer]) & (v > 0.0)
    odd = (~plain).nonzero()[0]
    layer, rabs = layer[odd], rabs[odd]
    s_hi, s_lo = _lcg_step(r_hi, r_lo, inc_hi, inc_lo)
    u = _double(_output(s_hi, s_lo))
    lost = odd  # empty unless a magnitude left its rectangle
    if odd.size:
        in_rect, wedge = rabs < ki[layer], rabs >= kw[layer]
        accept, reject = _wedge_test(fi, layer, x[odd], u[odd])
        accept &= wedge
        lost = odd[~(in_rect | accept | (wedge & reject))]
        back = odd[in_rect]  # V <= 0 after one raw output: numpy's next X reads the second
        s_hi[back], s_lo[back] = r_hi[back], r_lo[back]
        third = odd[accept & (v[odd] > 0.0)]  # a kept wedge X takes U from a third output
        s_hi[third], s_lo[third] = _lcg_step(s_hi[third], s_lo[third], inc_hi[third], inc_lo[third])
        u[third] = _double(_output(s_hi[third], s_lo[third]))
        plain[third] = True
    v = v * v * v
    xx = x * x
    accept = plain & (u < 1.0 - 0.0331 * xx * xx)
    log_test = (plain & ~accept).nonzero()[0]
    if log_test.size:
        xs, vs, bs = x[log_test], v[log_test], b[log_test]
        with np.errstate(divide="ignore"):  # log(0) = -inf leaves a generator lost
            log_u = np.log(u[log_test])
        log_v = np.log(vs)
        half_xx = 0.5 * xs * xs
        bound = half_xx + bs * (1.0 - vs + log_v)
        margin = _MARGIN * (np.abs(log_u) + half_xx + bs * (np.abs(1.0 - vs) + np.abs(log_v)))
        accept[log_test] = passed = log_u < bound - margin
        lost = np.concatenate((lost, log_test[~passed & ~(log_u > bound + margin)]))
    return s_hi, s_lo, b * v, accept, lost


def _fast_gamma(seeded: np.ndarray, shapes: np.ndarray, tables: _Ziggurat):
    """Standard gamma draws of ``shapes`` for each generator of ``seeded``, as numpy draws them.

    ``seeded`` holds one PCG64 generator per column: state high, state low,
    inc high, inc low; it is not changed. Every generator makes one
    :func:`_attempt` per round, at its own column of ``shapes``, so a
    generator whose attempt draws nothing simply falls behind; the
    generators still drawing are compacted as others finish.

    Returns the draws, one row per generator, and a mask of the rows whose
    every draw was decided here; only those rows hold numpy's values.
    """
    b_col = shapes - 1.0 / 3.0
    c_col = 1.0 / np.sqrt(9 * b_col)
    draws = np.empty((seeded.shape[1], shapes.size))
    fast = np.ones(seeded.shape[1], dtype=bool)
    col = np.zeros(seeded.shape[1], dtype=np.intp)
    at = np.arange(0, draws.size, shapes.size)  # each row's next entry of draws.flat
    s_hi, s_lo, inc_hi, inc_lo = seeded
    while at.size:
        s_hi, s_lo, value, drew, lost = _attempt(s_hi, s_lo, inc_hi, inc_lo, b_col[col], c_col[col], tables)
        fast[at[lost] // shapes.size] = False
        np.put(draws, at[drew], value[drew])
        col += drew
        at += drew
        live = col < shapes.size
        if not live.all():
            s_hi, s_lo, inc_hi, inc_lo, col, at = (w[live] for w in (s_hi, s_lo, inc_hi, inc_lo, col, at))
    return draws, fast


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
    """numpy's ziggurat widths ``wi``, read from numpy's own normals, two layers a state.

    Raw output ``layer | 1 << 9`` (layer in the low 8 bits, sign bit 8
    clear, magnitude 1 above) falls in layer's rectangle, where numpy
    returns exactly 1 * wi[layer]; layer 1, which has no rectangle, returns
    it after one wedge test, whose uniform is the raw output after it.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    wi = np.empty(256)
    for layer in range(0, 256, 2):
        gen.bit_generator.state = _state_before(layer | 1 << 9, layer + 1 | 1 << 9)
        wi[layer : layer + 2] = gen.standard_normal(2)
    return wi


def _ziggurat_heights(wi: np.ndarray) -> np.ndarray:
    """The density exp(-x^2/2) at each layer's outer edge x = 2**52 wi: numpy's ``fi``.

    Layer 0's entry is the density's top, 1. numpy's table is not readable
    from its draws as ``wi`` is; these values may differ from it in the
    last bits, which the wedge test's margin covers.
    """
    fi = np.exp(-0.5 * (wi * 2.0**52) ** 2)
    fi[0] = 1.0
    return fi


@functools.cache
def _ziggurat() -> _Ziggurat | None:
    """numpy's ziggurat tables as far as the fast path may use them.

    numpy does not expose its tables, so they are read from numpy on first
    use, not at import. Layer i's rectangle bound is 2**52 * wi[i-1] /
    wi[i] (layer 0 against layer 255; layer 1 has no rectangle); ``ki`` is
    taken ``_KI_MARGIN`` below it and ``kw`` as far above, so that rounding
    in that ratio cannot send a magnitude to the wrong branch. Layer 0's
    ``kw`` is 2**52, past every magnitude, which leaves its tail to numpy.
    If numpy's wedge decisions disagree with ``fi`` (see
    :func:`_wedges_agree`), every ``kw`` is 2**52 and all wedges are left
    to numpy. None if numpy's draws disagree with the rest (see
    :func:`_tables_agree`); every row is then drawn by the per-row
    generator.
    """
    wi = _ziggurat_widths()
    ratio = np.roll(wi, 1) / wi
    ratio[1] = 0.0
    bound = np.floor(ratio * 2.0**52)
    ki = np.maximum(bound - _KI_MARGIN, 0.0).astype(np.uint64)
    kw = (bound + _KI_MARGIN).astype(np.uint64)
    kw[0] = 1 << 52
    fi = _ziggurat_heights(wi)
    if not _wedges_agree(wi, kw, fi):
        kw[:] = 1 << 52
    tables = _Ziggurat(wi, ki, kw, fi)
    for table in tables:
        table.setflags(write=False)
    return tables if _tables_agree(tables) else None


def _probe(gen: np.random.Generator, count: int, first: int, second: int) -> tuple[list, int]:
    """``count`` of ``gen``'s normals from a state whose next raw outputs are ``first``, ``second``.

    Also returns how many raw outputs they took: 1, 2 or, as 3, more.
    """
    bitgen = gen.bit_generator
    bitgen.state = start = _state_before(first, second)
    values = gen.standard_normal(count).tolist()
    state, inc = start["state"]["state"], start["state"]["inc"]
    after = bitgen.state["state"]["state"]
    for steps in (1, 2):
        state = (state * _PCG64_MULT + inc) & _MASK128
        if after == state:
            return values, steps
    return values, 3


def _wedges_agree(wi: np.ndarray, kw: np.ndarray, fi: np.ndarray) -> bool:
    """Whether numpy decides the wedge test as :func:`_wedge_test` does at its margin's edges.

    Layer l's wedge test compares the line (fi[l-1] - fi[l]) U + fi[l] with
    exp(-X^2/2). At magnitude kw[l] (U near 1), a U that
    :func:`_wedge_test` accepts just inside the margin's edge must make
    numpy return X after two raw outputs, which also proves kw[l] past
    numpy's rectangle bound; at magnitude 2**52 - 1 (U near 0), a U it
    rejects just inside the other edge must make numpy take a third. This
    bounds numpy's fi[l] against ours from both sides for l in 1..254; a
    probe in the middle of layers 1 and 255, where both edges exist, gives
    fi[0] and fi[255] the side they lack.
    """
    ends = np.array([1, 255])
    middle = np.floor(np.sqrt(-2.0 * np.log((fi[ends - 1] + fi[ends]) / 2.0)) / wi[ends])
    layer = np.r_[1:256, 1:256, ends]
    rabs = np.r_[kw[1:], np.full(255, 2**52 - 1), middle].astype(np.float64)
    accepts = np.r_[np.ones(255, dtype=bool), np.zeros(255, dtype=bool), False, True]
    x = rabs * wi[layer]
    e = np.exp(-0.5 * x * x)

    def inside(k):  # the uniform k * 2**-53 is accepted, or for a reject probe not rejected
        accept, reject = _wedge_test(fi, layer, x, k * 2.0**-53)
        return np.where(accepts, accept, ~reject)

    # Where the line meets the margin's edge, as a 53-bit integer k (U =
    # k * 2**-53). Rounding moves the edge by a few ulps of the line, a few
    # thousand k; 2**12 inside, the line is within a thousandth of the
    # margin of its edge.
    tie = np.where(accepts, e - _MARGIN * e, e + _MARGIN * e)
    guess = np.floor((tie - fi[layer]) / (fi[layer - 1] - fi[layer]) * 2.0**53)
    lo, hi = guess - 2.0**12, guess + 2.0**12
    edge = np.where(accepts, lo, hi)
    if not (inside(lo).all() and not inside(hi).any() and np.all((edge >= 0) & (edge < 2.0**53))):
        return False
    gen = np.random.Generator(np.random.PCG64(0))
    for probe in zip(layer.tolist(), rabs.tolist(), edge.tolist(), accepts.tolist(), x.tolist()):
        lay, mag, u, accepted, value = probe
        drawn, steps = _probe(gen, 1, lay | int(mag) << 9, int(u) << 11)
        if not (steps == 2 and drawn == [value] if accepted else steps == 3):
            return False
    return True


def _tables_agree(tables: _Ziggurat) -> bool:
    """Whether numpy's own draws confirm ``wi``, ``ki`` and the gamma arithmetic.

    For every layer with a rectangle, magnitude ki - 1 with the sign bit
    set must take it with value -(ki - 1) * wi; two layers share a state,
    whose two normals must then take exactly two raw outputs. As the
    rectangle test is magnitude < bound, this proves each ``ki`` entry is
    no higher than numpy's. Then ``_CHECK_DRAWS`` seeded generators at
    shape 1.5 must give numpy's gamma wherever :func:`_fast_gamma` decides
    them, which a C build that fuses 1 + c*X into one rounding would fail.
    """
    layers = [0, *range(2, 256), 0]  # layer 0 twice, for an even count
    rabs = [int(tables.ki[layer]) - 1 for layer in layers]
    raws = [layer | 1 << 8 | mag << 9 for layer, mag in zip(layers, rabs)]
    values = [-(mag * tables.wi[layer]) for layer, mag in zip(layers, rabs)]
    gen = np.random.Generator(np.random.PCG64(0))
    for pair in range(0, len(layers), 2):
        if _probe(gen, 2, *raws[pair : pair + 2]) != (values[pair : pair + 2], 2):
            return False
    seeded = _pcg64_seed(np.arange(_CHECK_SEED, _CHECK_SEED + _CHECK_DRAWS, dtype=np.uint64))
    draws, fast = _fast_gamma(seeded, np.array([1.5]), tables)
    for row, state in zip(np.flatnonzero(fast).tolist(), _state_dicts(*seeded[:, fast])):
        gen.bit_generator.state = state
        if gen.standard_gamma(1.5) != draws[row, 0]:
            return False
    return True


def _replicate_draws(master_seed: int, block: range, shapes: np.ndarray) -> np.ndarray:
    """Gamma(``shapes``, scale 2) draws for the replicate indices ``block``, one row each.

    Row r equals ``make_rng(derive_seed(master_seed, block[r])).gamma(shapes,
    2.0)`` bit for bit, with no numpy call per row for most rows: the child
    seeds come from :func:`derive_seed`'s splitmix64 in wrapping uint64
    arithmetic over the whole block, their PCG64 states from
    :func:`_pcg64_seed`, and when every shape exceeds 1 the draws from
    :func:`_fast_gamma`. A row it leaves undecided (about 2 in 1000 rows
    of the README's 7-draw window, nearly all at the ziggurat's tail), and
    every row of a window with a shape of 1 or less, is drawn again by one
    reused generator set to the row's state, as numpy would draw it. The standard gamma draws are doubled at
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
        z, fast = _fast_gamma(seeded, shapes, tables)
        redraw = np.flatnonzero(~fast)
    if redraw.size:
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        for row, state in zip(redraw.tolist(), _state_dicts(*seeded[:, redraw])):
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
