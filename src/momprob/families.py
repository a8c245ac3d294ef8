"""Built-in Jacobi matrix families used by the CLI and the test corpus.

``hermite_like`` is the closed-form matrix q_k = 0, b_k = sqrt(k/2) (the
orthonormal recurrence of the weight exp(-t^2), a textbook determinate
case).  ``lognormal`` belongs to the moment sequence s_k = exp(k^2/2), the
classical indeterminate example.  Its recurrence is that of the
Stieltjes-Wigert polynomials with q = 1/e (Koekoek-Lesky-Swarttouw,
*Hypergeometric Orthogonal Polynomials and Their q-Analogues*, 14.27;
Christiansen, J. Math. Anal. Appl. 277 (2003)):

    q_k = e^(2k-3/2) (1 + e^-1 - e^-k),    b_k = e^(2k-1) sqrt(1 - e^-k).

The adaptive Hankel route of :mod:`momprob.moments` fed with
:func:`lognormal_moment` reproduces these values and is kept as the
independent check in the tests.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

import mpmath as mp

from .jacobi import JacobiMatrix
from .precision import BIGFLOAT, PrecisionConfig, wp

HERMITE_LIKE = "hermite_like"
LOGNORMAL = "lognormal"


def hermite_like(precision: Optional[PrecisionConfig] = None) -> JacobiMatrix:
    """q = 0, b_k = sqrt(k/2); coefficients generated on demand."""
    cfg = precision if precision is not None else PrecisionConfig()
    bits = cfg.working_bits()

    def gen(k: int):
        with wp(bits + 8):
            bk = mp.sqrt(mp.mpf(k) / 2)
        with wp(bits):
            return mp.mpf(0), +bk

    return JacobiMatrix(generator=gen, precision=cfg, family=HERMITE_LIKE)


def lognormal_moment(k: int, prec: int):
    """s_k = exp(k^2/2) at ``prec`` bits."""
    with wp(prec):
        return mp.exp(mp.mpf(k) ** 2 / 2)


@lru_cache(maxsize=32)
def _lognormal_coeffs(n: int, bits: int):
    """Closed-form q_1..q_n and b_1..b_{n-1}, rounded once to ``bits``."""
    with wp(bits + 16):
        e1 = mp.exp(-1)
        q = [mp.exp(2 * k - mp.mpf(3) / 2) * (1 + e1 - mp.exp(-k)) for k in range(1, n + 1)]
        b = [mp.exp(2 * k - 1) * mp.sqrt(1 - mp.exp(-k)) for k in range(1, n)]
    with wp(bits):
        return tuple(+x for x in q), tuple(+x for x in b)


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
        return lognormal(n if n is not None else 60, precision)
    raise ValueError(f"unknown family {name!r} (have: {HERMITE_LIKE}, {LOGNORMAL})")
