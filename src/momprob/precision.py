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
from typing import Optional

import mpmath as mp
from mpmath import libmp

RATIONAL = "rational"
BIGFLOAT = "bigfloat"
DOUBLE = "double"

_MODES = (RATIONAL, BIGFLOAT, DOUBLE)
# Largest mantissa and document integer (size, count or exponent); a mantissa
# of 10^400 bits overflows mpmath's precision setter
_MAX_INT = 2 ** 24

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
        prec, self._inner = mp.mp.prec, mp.workprec(self.bits)
        try:
            return self._inner.__enter__()
        except BaseException:  # mpmath stores a mantissa it then fails to set
            mp.mp.prec = prec
            MP_LOCK.release()
            raise

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
    """Arithmetic mode and mantissa size; the tolerances follow from them.

    ``bits`` is the mantissa size for ``bigfloat`` work; in ``rational`` mode
    it only controls the precision of unavoidable irrational outputs (square
    roots of exact values); ``double`` mode is 53 bits by definition.
    """

    mode: str = BIGFLOAT
    bits: int = 256

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown arithmetic mode {self.mode!r}")
        if self.mode == BIGFLOAT and self.bits < 53:
            raise ValueError("bigfloat mantissa must be at least 53 bits")
        if self.mode == DOUBLE and self.bits != 53:
            raise ValueError(f"double mode has 53 bits, got {self.bits!r}")
        if not 0 < self.bits <= _MAX_INT:
            raise ValueError(f"bits must be in 1..{_MAX_INT}, got {self.bits!r}")

    @property
    def abs_tol(self) -> float:
        """Comparison floor: none in rational mode, 1e-12 for doubles, and
        half the mantissa for bigfloats, which leaves ample slack for
        legitimate rounding while still catching real defects."""
        if self.mode == RATIONAL:
            return 0.0
        return 1e-12 if self.mode == DOUBLE else math.ldexp(1.0, -(self.bits // 2))

    @property
    def rel_tol(self) -> float:
        return 1e-9 if self.mode == DOUBLE else self.abs_tol

    @classmethod
    def rational(cls, bits: int = 256) -> "PrecisionConfig":
        return cls(mode=RATIONAL, bits=bits)

    @classmethod
    def bigfloat(cls, bits: int = 256) -> "PrecisionConfig":
        return cls(mode=BIGFLOAT, bits=bits)

    @classmethod
    def double(cls) -> "PrecisionConfig":
        return cls(mode=DOUBLE, bits=53)

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
        """The config of a ``precision`` entry; ``bits`` is ignored in double
        mode, and the tolerance keys of earlier versions are ignored."""
        if not isinstance(obj, dict):
            raise ValueError("precision must be a JSON object")
        mode = obj.get("mode", BIGFLOAT)
        if mode == DOUBLE:
            return cls.double()
        return cls(mode=mode, bits=document_int(obj.get("bits", 256), "bits"))


def document_precision(obj: dict, override: Optional[PrecisionConfig]) -> PrecisionConfig:
    """``override``, else the document's ``precision`` entry, else the default;
    a document that is not a JSON object raises ValueError in any case."""
    if not isinstance(obj, dict):
        raise ValueError("document must be a JSON object")
    if override is not None:
        return override
    if "precision" in obj:
        return PrecisionConfig.from_json(obj["precision"])
    return PrecisionConfig()


def document_int(x, what: str) -> int:
    """An integer read from a document, as an integral number or string
    ("2" from ``to_json``); bools, fractions and integers above ``_MAX_INT``
    in size raise ValueError."""
    try:
        f = _ratio(str(x))  # str(True) is no number
    except ValueError:
        f = None
    if f is None or f.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if abs(f) > _MAX_INT:
        raise ValueError(f"{what} must be at most {_MAX_INT} in size, got {x!r}")
    return int(f)


def document_list(x, what: str):
    """A list read from a document; a string, object or number raises
    ValueError instead of being read entry by entry."""
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what} must be a JSON list, got {x!r}")
    return x


def _ratio(text: str) -> Fraction:
    """``Fraction(text)`` for a decimal or ``p/q`` string; a zero ``q``
    raises ValueError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def convert(x, cfg: PrecisionConfig):
    """Coerce ``x`` (number or decimal/ratio string) into cfg's arithmetic;
    anything else, a bool, null, list or object included, raises ValueError
    naming it, as does an int or ratio too large for a double."""
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction, mp.mpf, str)):
        raise ValueError(f"expected a number, got {x!r}")
    if cfg.mode == RATIONAL:
        return to_fraction(x)
    if cfg.mode == DOUBLE:
        try:
            return float(_ratio(x)) if isinstance(x, str) and "/" in x else float(x)
        except OverflowError:
            raise ValueError(f"{x!r} overflows a double") from None
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
        return _ratio(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("cannot convert non-finite float to rational")
        return Fraction(x)
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise ValueError("cannot convert non-finite value to rational")
        sign, man, exp, _ = x._mpf_
        man = -man if sign else man
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    raise TypeError(f"cannot convert {type(x).__name__} to rational")


def to_mpf(x):
    """Convert to mpf at the current working precision, rounding once."""
    if isinstance(x, mp.mpf):
        return +x
    if isinstance(x, str) and "/" in x:
        x = _ratio(x)
    if isinstance(x, Fraction):
        return mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, mp.mp.prec,
                                               libmp.round_nearest))
    return mp.mpf(x)


def is_finite_number(x) -> bool:
    if isinstance(x, Fraction) or isinstance(x, int):
        return True
    if isinstance(x, float):
        return math.isfinite(x)
    return bool(mp.isfinite(x))


def all_exact(cfg: PrecisionConfig, *seqs) -> bool:
    """Whether cfg is rational and every entry of ``seqs`` is an int or a
    Fraction, so the work on them stays exact."""
    return cfg.mode == RATIONAL and all(isinstance(x, (int, Fraction)) for xs in seqs for x in xs)


def rounded(values, cfg: PrecisionConfig) -> list:
    """``values`` as results of cfg, the one place a result leaves the
    working precision: floats (complex for complex values) in double mode,
    exact values kept as they are in rational mode, mpf or mpc rounded to
    ``cfg.bits`` otherwise."""
    if cfg.mode == DOUBLE:
        return [complex(x) if isinstance(x, (complex, mp.mpc)) else float(x) for x in values]
    keep = cfg.mode == RATIONAL
    with wp(cfg.bits):
        return [x if keep and isinstance(x, (int, Fraction))
                else to_mpf(x) if isinstance(x, Fraction) else +mp.mpmathify(x)
                for x in values]


def sqrt_number(x, cfg: PrecisionConfig):
    """Square root in cfg's arithmetic, the one root rule.

    Any x, at whatever precision it carries, gives its root correctly
    rounded to the working mantissa (a float in double mode), except that an
    int or Fraction x gives its exact root in rational mode when numerator
    and denominator are perfect squares.
    """
    if x < 0:
        raise ValueError("square root of negative value")
    n, d = to_fraction(x).as_integer_ratio()
    rn, rd = math.isqrt(n), math.isqrt(d)
    if all_exact(cfg, [x]) and rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    # an integer root of n/d to bits + 2 or more bits, a sticky bit for any
    # remainder, then one rounding
    s = max(0, cfg.bits + 4 - (n.bit_length() - d.bit_length()) // 2)
    r = math.isqrt((n << 2 * s) // d)
    man = 2 * r + (r * r * d != n << 2 * s)
    root = mp.make_mpf(libmp.from_man_exp(man, -s - 1, cfg.bits, libmp.round_nearest))
    return float(root) if cfg.mode == DOUBLE else root


def decimal_digits(bits: int) -> int:
    """Digits that round-trip a ``bits``-mantissa binary float exactly."""
    return int(bits * 0.30102999566398120) + 3


def format_number(x, cfg: PrecisionConfig) -> str:
    """Render a number as a decimal (or ``p/q``) string for JSON transport."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    # nstr must not see the value re-rounded at the ambient precision
    with wp(max(cfg.bits, mp.mp.prec)):
        return mp.nstr(x, decimal_digits(cfg.bits), strip_zeros=True)


def parse_complex(s, cfg: PrecisionConfig):
    """An ``a+bi`` / ``bi`` / ``a`` string (``j`` for ``i``), or a number, as
    an mpc (complex in double mode).  Each part is read by ``convert``, like
    a document number; a non-finite part raises ValueError."""
    if isinstance(s, (complex, mp.mpc)):
        parts = [s.real, s.imag]
    else:
        text = str(s).replace(" ", "").replace("j", "i")
        parts = [text, "0"]
        if text.endswith("i"):  # b starts at the last sign outside an exponent
            cut = max((k for k, c in enumerate(text)
                       if c in "+-" and k > 0 and text[k - 1] not in "eE"), default=0)
            b = text[cut:-1]
            parts = [text[:cut] or "0", b + "1" if b in ("", "+", "-") else b]
    try:
        parts = [convert(x, cfg) for x in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {s!r}") from exc
    if not all(is_finite_number(x) for x in parts):
        raise ValueError(f"complex number {s!r} is not finite")
    with wp(cfg.bits):  # rounds a rational part, once; the others are exact
        z = mp.mpc(*(to_mpf(x) for x in parts))
    return rounded([z], cfg)[0]


def format_complex(z, cfg: PrecisionConfig) -> str:
    """Render ``a+bi`` with both parts at the configured precision.  An mpc
    whose parts fit in ``cfg.bits`` is printed as it is outside double mode,
    since rounding could not change it."""
    if cfg.mode == DOUBLE or not isinstance(z, mp.mpc) or max(
            part[3] for part in z._mpc_) > cfg.bits:
        z = rounded([z], cfg)[0]
    # abs() rounds to the ambient precision, which may be lower
    with wp(max(cfg.bits, mp.mp.prec)):
        sign = "+" if z.imag >= 0 else "-"
        return f"{format_number(z.real, cfg)}{sign}{format_number(abs(z.imag), cfg)}i"


def agreeing_bits(a, b) -> float:
    """Number of leading bits on which two values agree (inf if identical)."""
    with wp(mp.mp.prec + 10):
        da = to_mpf(a) if not isinstance(a, mp.mpf) else a
        db = to_mpf(b) if not isinstance(b, mp.mpf) else b
        diff = abs(da - db)
        scale = max(abs(da), abs(db))
        if diff == 0:
            return math.inf
        # log2 of the ratio to double accuracy, from its mantissa and exponent
        m, e = mp.frexp(scale / diff)
        return max(0.0, e + math.log2(m))


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
