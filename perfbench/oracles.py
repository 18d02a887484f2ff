"""Correctness oracles that do not depend on output bytes.

Closed forms are computed here from their definitions, not by calling the
function under test: Catalan (semicircle) moments, Narayana
(Marchenko-Pastur) moments, the corrective-measure moments, the outlier
cost F, the relative entropy of a scaled semicircle bulk, and the MDP
projection sum. Tolerances are fixed before measuring and sit far above
today's agreement (noted at each constant), so that a change of algorithm
passes while a wrong result does not.
"""

from __future__ import annotations

import math

import numpy as np

# Experiment reports vs the in-process replica: same arithmetic, so equal
# up to the 17-digit CSV round trip.
REPLICA_RTOL = 1e-12
# Measure-side vs operator-side moments of one draw (today <= 1e-14).
MOMENT_RTOL = 1e-10
# Stieltjes round trip vs the drawn coefficients (today <= 2e-14).
INVERSION_ATOL = 1e-9
# Closed form vs quadrature for the Marchenko-Pastur moments (today ~1e-15).
MP_RTOL = 1e-9
# Closed forms of the rate functions (today ~1e-16).
RATE_ATOL = 1e-9


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# closed forms


def catalan_moments(order: int) -> np.ndarray:
    """m_1..m_order of the semicircle law: zero odd, Catalan even."""
    out = np.zeros(order)
    for k in range(2, order + 1, 2):
        out[k - 1] = math.comb(k, k // 2) // (k // 2 + 1)
    return out


def narayana_mp_moments(order: int, tau: float) -> list:
    """Marchenko-Pastur moments m_k = sum_j N(k, j) tau^(j-1)."""
    return [sum(math.comb(k, j) * math.comb(k, j - 1) / k * tau ** (j - 1)
                for j in range(1, k + 1)) for k in range(1, order + 1)]


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def nu_moments(order: int, xi: float, shifted: bool) -> list:
    """Corrective-measure moments: odd k only, xi [C(k,(k-3)/2) - shifted C(k,(k-1)/2)]."""
    out = []
    for k in range(1, order + 1):
        if k % 2 == 0:
            out.append(0.0)
            continue
        c = _comb(k, (k - 3) // 2) - (_comb(k, (k - 1) // 2) if shifted else 0)
        out.append(xi * c)
    return out


def f_outlier(x: float) -> float:
    """F(x) = integral_2^|x| sqrt(y^2 - 4) dy in closed form."""
    a = abs(x)
    r = math.sqrt(a * a - 4.0)
    return a * r / 2.0 - 2.0 * math.log((a + r) / 2.0)


def mdp_rate(m, xi: float, trunc: int) -> float:
    """Half the squared semicircle-orthonormal projections of m - nu_xi (standard)."""
    diff = [a - b for a, b in zip(m[:trunc], nu_moments(trunc, xi, shifted=False))]
    prev, cur = [1.0], [0.0, 1.0]  # p_0, p_1 in monomial coefficients
    total = 0.0
    for _ in range(trunc):
        total += sum(c * diff[j - 1] for j, c in enumerate(cur) if j >= 1) ** 2
        nxt = [0.0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return 0.5 * total


def tridiagonal_moments(diag, offdiag, order: int) -> np.ndarray:
    """<e1, J^k e1> for k = 1..order by plain matrix-vector products."""
    n = len(diag)
    v = np.zeros(n)
    v[0] = 1.0
    out = np.empty(order)
    for k in range(order):
        u = diag * v
        u[1:] += offdiag * v[:-1]
        u[:-1] += offdiag * v[1:]
        v = u
        out[k] = v[0]
    return out


def measure_moments(atoms, weights, order: int) -> np.ndarray:
    return np.array([np.sum(weights * atoms ** k) for k in range(1, order + 1)])


def moments_agree(a, b, rtol: float = MOMENT_RTOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# CLI output parsing


def parse_csv(text: str) -> list:
    """Rows of a headed CSV as dicts of strings."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}: {ln!r}")
        rows.append(dict(zip(header, cells)))
    return rows


def quantities(text: str) -> dict:
    """``quantity,value`` rows of the rate command as floats."""
    return {r["quantity"]: float(r["value"]) for r in parse_csv(text)}


def check_report(text: str, sample_mean: float, sample_var: float) -> str:
    """Empty string when a 13-column experiment report passes, else the reason."""
    rows = parse_csv(text)
    if len(rows) != 1:
        return f"expected one report row, got {len(rows)}"
    row = rows[0]
    if row["verdict"] != "pass":
        return f"verdict {row['verdict']}"
    for column, expected in (("sample_mean", sample_mean), ("sample_var", sample_var)):
        got = float(row[column])
        if abs(got - expected) > REPLICA_RTOL * abs(expected):
            return f"{column} {row[column]} != replica {expected!r}"
    return ""
