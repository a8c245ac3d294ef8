"""Built-in Jacobi matrix families used by the CLI and the test corpus.

``hermite_like`` is the closed-form matrix q_k = 0, b_k = sqrt(k/2) (the
orthonormal recurrence of the weight exp(-t^2), a textbook determinate
case).  ``lognormal`` belongs to the moment sequence s_k = exp(k^2/2), the
classical indeterminate example.  Its recurrence is that of the
Stieltjes-Wigert polynomials with q = 1/e (Koekoek-Lesky-Swarttouw,
*Hypergeometric Orthogonal Polynomials and Their q-Analogues*, 14.27;
Christiansen, J. Math. Anal. Appl. 277 (2003)):

    q_k = e^(2k-3/2) (1 + e^-1 - e^-k),    b_k = e^(2k-1) sqrt(1 - e^-k).

The adaptive Hankel route of :mod:`momprob.moments`, fed the moments
exp(k^2/2) stored at a higher precision, reproduces these values and is kept
as the independent check in the tests.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import mpmath as mp

from .jacobi import JacobiMatrix
from .precision import BIGFLOAT, PrecisionConfig, document_int, rounded, sqrt_number, wp

HERMITE_LIKE = "hermite_like"
LOGNORMAL = "lognormal"


def hermite_like(precision: Optional[PrecisionConfig] = None) -> JacobiMatrix:
    """q = 0, b_k = sqrt(k/2); coefficients generated on demand."""
    cfg = precision if precision is not None else PrecisionConfig()

    def gen(k: int):
        return mp.mpf(0), sqrt_number(Fraction(k, 2), cfg)

    return JacobiMatrix(generator=gen, precision=cfg, family=HERMITE_LIKE)


@lru_cache(maxsize=32)
def _lognormal_coeffs(n: int, bits: int):
    """Closed-form q_1..q_n and b_1..b_{n-1}, rounded once to ``bits``."""
    with wp(bits + 16):
        e1 = mp.exp(-1)
        q = [mp.exp(2 * k - mp.mpf(3) / 2) * (1 + e1 - mp.exp(-k)) for k in range(1, n + 1)]
        b = [mp.exp(2 * k - 1) * mp.sqrt(1 - mp.exp(-k)) for k in range(1, n)]
    cfg = PrecisionConfig.bigfloat(bits)
    return tuple(rounded(q, cfg)), tuple(rounded(b, cfg))


def lognormal(n: int, precision: Optional[PrecisionConfig] = None) -> JacobiMatrix:
    """First ``n`` recurrence coefficients of the lognormal moment problem."""
    cfg = precision if precision is not None else PrecisionConfig.bigfloat(512)
    if cfg.mode != BIGFLOAT:
        raise ValueError("lognormal coefficients require bigfloat arithmetic")
    q, b = _lognormal_coeffs(n, cfg.bits)
    return JacobiMatrix(q=q, b=b, precision=cfg, family=LOGNORMAL)


def make(name: str, precision: Optional[PrecisionConfig] = None, n: Optional[int] = None) -> JacobiMatrix:
    """Instantiate a registry family by name."""
    if name == HERMITE_LIKE:
        return hermite_like(precision)
    if name == LOGNORMAL:
        return lognormal(60 if n is None else document_int(n, "family n"), precision)
    raise ValueError(f"unknown family {name!r} (have: {HERMITE_LIKE}, {LOGNORMAL})")
