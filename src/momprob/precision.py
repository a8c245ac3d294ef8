"""Arithmetic modes, tolerances and number plumbing.

Three arithmetic modes are supported throughout the library:

* ``rational``  -- exact ``fractions.Fraction`` arithmetic,
* ``bigfloat``  -- mpmath binary floats with a configurable mantissa,
* ``double``    -- machine floats.

All public operations carry a :class:`PrecisionConfig` on their inputs and do
their work under ``mp.workprec`` of the configured mantissa.  Numbers cross
the JSON boundary as decimal strings with enough digits to round-trip the
binary value exactly (``p/q`` strings for rationals).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

RATIONAL = "rational"
BIGFLOAT = "bigfloat"
DOUBLE = "double"

_MODES = (RATIONAL, BIGFLOAT, DOUBLE)

Real = Union[int, float, Fraction, mp.mpf]

# mpmath's working precision is process-global state; every precision block
# in this package funnels through this reentrant lock so concurrent callers
# cannot downgrade each other's mantissa mid-computation.
MP_LOCK = threading.RLock()


class _LockedPrecision:
    __slots__ = ("bits", "_inner")

    def __init__(self, bits: int):
        self.bits = bits
        self._inner = None

    def __enter__(self):
        MP_LOCK.acquire()
        self._inner = mp.workprec(self.bits)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            MP_LOCK.release()


def wp(bits: int) -> _LockedPrecision:
    """Locked equivalent of ``wp(bits)``; use everywhere."""
    return _LockedPrecision(bits)


@dataclass(frozen=True)
class PrecisionConfig:
    """Arithmetic mode plus the comparison tolerances used by that mode.

    ``bits`` is the mantissa size for ``bigfloat`` work; in ``rational`` mode
    it only controls the precision of unavoidable irrational outputs (square
    roots of exact values).
    """

    mode: str = BIGFLOAT
    bits: int = 256
    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown arithmetic mode {self.mode!r}")
        if self.mode == BIGFLOAT and self.bits < 53:
            raise ValueError("bigfloat mantissa must be at least 53 bits")
        if self.bits <= 0:
            raise ValueError("bits must be positive")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0 and self.mode != RATIONAL:
            # default tolerances: half the mantissa, which leaves ample slack
            # for legitimate rounding while still catching real defects
            tol = math.ldexp(1.0, -(self.working_bits() // 2))
            object.__setattr__(self, "abs_tol", tol)
            object.__setattr__(self, "rel_tol", tol)

    @classmethod
    def rational(cls, bits: int = 256) -> "PrecisionConfig":
        return cls(mode=RATIONAL, bits=bits)

    @classmethod
    def bigfloat(cls, bits: int = 256, abs_tol: float = 0.0, rel_tol: float = 0.0) -> "PrecisionConfig":
        return cls(mode=BIGFLOAT, bits=bits, abs_tol=abs_tol, rel_tol=rel_tol)

    @classmethod
    def double(cls) -> "PrecisionConfig":
        return cls(mode=DOUBLE, bits=53, abs_tol=1e-12, rel_tol=1e-9)

    def working_bits(self) -> int:
        return 53 if self.mode == DOUBLE else self.bits

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "bits": self.bits,
            "abs_tol": repr(self.abs_tol),
            "rel_tol": repr(self.rel_tol),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PrecisionConfig":
        if not isinstance(obj, dict):
            raise ValueError("precision must be a JSON object")
        mode = obj.get("mode", BIGFLOAT)
        bits = int(obj.get("bits", 256))
        abs_tol = float(obj.get("abs_tol", 0.0))
        rel_tol = float(obj.get("rel_tol", 0.0))
        return cls(mode=mode, bits=bits, abs_tol=abs_tol, rel_tol=rel_tol)


def workprec(cfg: PrecisionConfig):
    """Context manager pinning mpmath to the configured mantissa."""
    return wp(cfg.working_bits())


def convert(x, cfg: PrecisionConfig):
    """Coerce ``x`` (number or decimal/ratio string) into cfg's arithmetic."""
    if cfg.mode == RATIONAL:
        return to_fraction(x)
    if cfg.mode == DOUBLE:
        if isinstance(x, str):
            return float(Fraction(x)) if "/" in x else float(x)
        if isinstance(x, Fraction):
            return float(x)
        if isinstance(x, mp.mpf):
            return float(x)
        return float(x)
    # bigfloat
    with wp(cfg.bits):
        return to_mpf(x)


def to_fraction(x) -> Fraction:
    """Exact conversion to Fraction; binary floats convert bit-exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("cannot convert non-finite float to rational")
        return Fraction(x)
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise ValueError("cannot convert non-finite value to rational")
        sign, man, exp, _ = x._mpf_
        if man == 0:
            return Fraction(0)
        frac = Fraction(man) * (Fraction(2) ** exp)
        return -frac if sign else frac
    raise TypeError(f"cannot convert {type(x).__name__} to rational")


def to_mpf(x):
    """Convert to mpf at the current working precision."""
    if isinstance(x, mp.mpf):
        return +x
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, str):
        if "/" in x:
            f = Fraction(x)
            return mp.mpf(f.numerator) / f.denominator
        return mp.mpf(x)
    return mp.mpf(x)


def is_finite_number(x) -> bool:
    if isinstance(x, Fraction) or isinstance(x, int):
        return True
    if isinstance(x, float):
        return math.isfinite(x)
    return bool(mp.isfinite(x))


def sqrt_number(x, cfg: PrecisionConfig):
    """Square root in cfg's arithmetic.

    In rational mode the root is returned exactly as a Fraction when numerator
    and denominator are perfect squares, otherwise as a big float at
    ``cfg.bits`` (the one place rational pipelines leave the rational field).
    """
    if cfg.mode == RATIONAL and isinstance(x, (int, Fraction)):
        f = Fraction(x)
        if f < 0:
            raise ValueError("square root of negative value")
        rn = math.isqrt(f.numerator)
        rd = math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
        with wp(cfg.bits):
            return mp.sqrt(to_mpf(f))
    if cfg.mode == DOUBLE:
        return math.sqrt(float(x))
    with wp(cfg.bits):
        return mp.sqrt(to_mpf(x))


def decimal_digits(bits: int) -> int:
    """Digits that round-trip a ``bits``-mantissa binary float exactly."""
    return int(bits * 0.30102999566398120) + 3


def format_number(x, cfg: PrecisionConfig = None) -> str:
    """Render a number as a decimal (or ``p/q``) string for JSON transport."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    bits = cfg.working_bits() if cfg is not None else mp.mp.prec
    # nstr must not see the value re-rounded at the ambient precision
    with wp(max(bits, mp.mp.prec)):
        return mp.nstr(x, decimal_digits(bits), strip_zeros=True)


def parse_complex(s, cfg: PrecisionConfig):
    """Parse ``a+bi`` / ``bi`` / ``a`` strings (or numbers) to mpc/complex."""
    if isinstance(s, (complex, mp.mpc)):
        z = s
    else:
        import re

        text = str(s).strip().replace(" ", "")
        text = text.replace("i", "j")
        # complex() wants an explicit coefficient: j -> 1j, +j -> +1j, ...
        text = re.sub(r"(?<![0-9.])j", "1j", text)
        try:
            z = complex(text)
        except ValueError as exc:
            raise ValueError(f"cannot parse complex number {s!r}") from exc
    if cfg.mode == DOUBLE:
        return complex(z)
    with wp(cfg.bits):
        return mp.mpc(z)


def format_complex(z, cfg: PrecisionConfig) -> str:
    """Render ``a+bi`` with both parts at the configured precision."""
    # mpc() and abs() round to the ambient precision, which may be lower
    with wp(max(cfg.working_bits(), mp.mp.prec)):
        z = mp.mpc(z)
        re, im = z.real, z.imag
        sign = "+" if im >= 0 else "-"
        return f"{format_number(re, cfg)}{sign}{format_number(abs(im), cfg)}i"


def agreeing_bits(a, b) -> float:
    """Number of leading bits on which two values agree (inf if identical)."""
    with wp(mp.mp.prec + 10):
        da = to_mpf(a) if not isinstance(a, mp.mpf) else a
        db = to_mpf(b) if not isinstance(b, mp.mpf) else b
        diff = abs(da - db)
        scale = max(abs(da), abs(db))
        if diff == 0:
            return math.inf
        if scale == 0:
            return math.inf
        ratio = scale / diff
        if ratio <= 1:
            return 0.0
        return float(mp.log(ratio, 2))


def pairwise_sum(values):
    """Deterministic pairwise summation (reproducible, mildly stabilizing)."""
    vals = list(values)
    if not vals:
        return 0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]
