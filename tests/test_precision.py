import dataclasses
import math
import random
import re
import threading
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from momprob.precision import (
    MP_LOCK,
    PrecisionConfig,
    agreeing_bits,
    convert,
    format_number,
    pairwise_sum,
    parse_complex,
    rounded,
    sqrt_number,
    to_fraction,
    to_mpf,
    wp,
)


def test_mode_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(mode="decimal")
    with pytest.raises(ValueError):
        PrecisionConfig(mode="bigfloat", bits=32)
    with pytest.raises(ValueError, match="^double mode has 53 bits, got 256$"):
        PrecisionConfig(mode="double", bits=256)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_rejected(field, value):
    # no config carries a tolerance of its own: the constructor takes none,
    # and a document's tolerance key gives way to the mode's
    with pytest.raises(TypeError):
        PrecisionConfig(**{field: value})
    cfg = PrecisionConfig.from_json({field: str(value)})
    assert cfg == PrecisionConfig() and getattr(cfg, field) == math.ldexp(1.0, -128)


def test_bits_bounded():
    prec = mp.mp.prec
    for bits in (0, 2 ** 24 + 1, 10 ** 400):
        with pytest.raises(ValueError, match="^bits must be in 1..16777216, got "):
            PrecisionConfig.rational(bits)
    assert mp.mp.prec == prec
    assert PrecisionConfig.bigfloat(2 ** 24).bits == 2 ** 24


def test_config_is_mode_and_bits():
    assert [f.name for f in dataclasses.fields(PrecisionConfig)] == ["mode", "bits"]


# a document's tolerance keys are ignored: the tolerances follow from the mode
@pytest.mark.parametrize("doc, made, tols", [
    ({"mode": "rational", "abs_tol": "1"}, PrecisionConfig.rational(), (0.0, 0.0)),
    ({"mode": "double"}, PrecisionConfig.double(), (1e-12, 1e-9)),
    ({"mode": "bigfloat", "bits": 128, "rel_tol": "1"}, PrecisionConfig.bigfloat(128),
     (math.ldexp(1.0, -64), math.ldexp(1.0, -64))),
], ids=["rational", "double", "bigfloat"])
def test_derived_tolerances(doc, made, tols):
    cfg = PrecisionConfig.from_json(doc)
    assert cfg == made
    assert (cfg.abs_tol, cfg.rel_tol) == tols
    assert cfg.to_json() == dict(mode=cfg.mode, bits=cfg.bits,
                                 abs_tol=repr(tols[0]), rel_tol=repr(tols[1]))


def test_double_mode_is_53_bits():
    # a double document's bits are ignored, as the arithmetic ignores them
    for doc in ({"mode": "double"}, {"mode": "double", "bits": 256}):
        assert PrecisionConfig.from_json(doc) == PrecisionConfig.double()
    assert PrecisionConfig.double().bits == 53


def test_default_tolerances_scale_with_bits():
    c = PrecisionConfig.bigfloat(256)
    assert 0 < c.abs_tol <= math.ldexp(1.0, -128)
    assert PrecisionConfig.rational().abs_tol == 0.0


def test_convert_rational_exact():
    cfg = PrecisionConfig.rational()
    assert convert("1/3", cfg) == Fraction(1, 3)
    assert convert("0.125", cfg) == Fraction(1, 8)
    assert convert(0.5, cfg) == Fraction(1, 2)


def test_convert_bigfloat_from_ratio_string():
    cfg = PrecisionConfig.bigfloat(128)
    x = convert("1/3", cfg)
    with mp.workprec(128):
        assert abs(x - mp.mpf(1) / 3) <= mp.mpf(2) ** -126


def test_format_parse_roundtrip_bigfloat():
    cfg = PrecisionConfig.bigfloat(256)
    with mp.workprec(256):
        val = mp.sqrt(mp.mpf(2))
    text = format_number(val, cfg)
    back = convert(text, cfg)
    with mp.workprec(256):
        assert back == val


def test_format_parse_roundtrip_rational():
    cfg = PrecisionConfig.rational()
    assert convert(format_number(Fraction(-7, 12), cfg), cfg) == Fraction(-7, 12)


def test_to_fraction_from_mpf_exact():
    with mp.workprec(80):
        x = mp.mpf("1.25")
    assert to_fraction(x) == Fraction(5, 4)


def test_sqrt_number_exact_when_perfect_square():
    cfg = PrecisionConfig.rational()
    assert sqrt_number(Fraction(9, 4), cfg) == Fraction(3, 2)
    r = sqrt_number(Fraction(2), cfg)
    assert not isinstance(r, Fraction)
    with mp.workprec(256):
        assert abs(r - mp.sqrt(2)) <= mp.mpf(2) ** -250


def test_agreeing_bits():
    assert agreeing_bits(1.0, 1.0) == math.inf
    b = agreeing_bits(1.0, 1.0 + 2.0 ** -40)
    assert 38 <= b <= 42
    assert agreeing_bits(1.0, -1.0) == 0.0


def test_pairwise_sum_matches_exact():
    vals = [Fraction(1, k) for k in range(1, 40)]
    assert pairwise_sum(vals) == sum(vals)
    assert pairwise_sum([]) == 0


def test_parse_complex_forms():
    cfg = PrecisionConfig.bigfloat(128)
    assert parse_complex("i", cfg) == mp.mpc(0, 1)
    assert parse_complex("2i", cfg) == mp.mpc(0, 2)
    assert parse_complex("1+2i", cfg) == mp.mpc(1, 2)
    assert parse_complex("-0.5-i", cfg) == mp.mpc(-0.5, -1)
    with pytest.raises(ValueError):
        parse_complex("nonsense", cfg)


MODES = [PrecisionConfig.rational(), PrecisionConfig.double(), PrecisionConfig.bigfloat(256)]


@pytest.mark.parametrize("cfg", MODES, ids=["rational", "double", "bigfloat"])
@pytest.mark.parametrize("text, a, b", [
    ("1/3-2i", "1/3", "-2"), ("1e-3i", "0", "1e-3"), ("1e+3+2.5j", "1e+3", "2.5"),
    ("0.1+i", "0.1", "1"), ("-i", "0", "-1"), ("-2.5E-1", "-0.25", "0"),
])
def test_parse_complex_reads_each_part_like_a_document(cfg, text, a, b):
    # each part is the document number, rounded once to the mantissa: 0.1 is
    # not the double nearest 0.1 at 256 bits, nor 1/3 in rational mode
    z = parse_complex(text, cfg)
    with wp(cfg.bits):
        want = [to_mpf(convert(x, cfg)) for x in (a, b)]
        assert [mp.mpf(z.real), mp.mpf(z.imag)] == want
    assert isinstance(z, complex) == (cfg.mode == "double")


@pytest.mark.parametrize("cfg", MODES, ids=["rational", "double", "bigfloat"])
@pytest.mark.parametrize("text", ["nan+i", "1-infi", "inf", "-inf", "abc", "", "1++2i",
                                  "1/0+i", "i+1"])
def test_parse_complex_refuses_non_finite_and_malformed_parts(cfg, text):
    with pytest.raises(ValueError):
        parse_complex(text, cfg)


@pytest.mark.parametrize("cfg", [PrecisionConfig.rational(), PrecisionConfig.double(),
                                 PrecisionConfig.bigfloat(128)],
                         ids=["rational", "double", "bigfloat"])
@pytest.mark.parametrize("value", [True, False])
def test_convert_refuses_bools(cfg, value):
    # a JSON true is no number, although Python reads it as 1
    with pytest.raises(ValueError, match=f"^expected a number, got {value}$"):
        convert(value, cfg)


def test_sqrt_number_correctly_rounded_from_any_precision():
    # the root of a square held at 400 bits, rounded once to the working
    # mantissa, not first to it and then again
    with mp.workprec(400):
        x = mp.mpf(2) + mp.mpf(2) ** -300
        exact = mp.sqrt(x)
    for cfg in (PrecisionConfig.double(), PrecisionConfig.bigfloat(64),
                PrecisionConfig.rational(64)):
        with mp.workprec(cfg.bits):
            want = +exact
        got = sqrt_number(x, cfg)
        assert got == want
        assert isinstance(got, float) == (cfg.mode == "double")
    with pytest.raises(ValueError):
        sqrt_number(mp.mpf(-1), PrecisionConfig.bigfloat(64))


def test_rounded_per_mode():
    with mp.workprec(200):
        values = [Fraction(1, 3), mp.mpf(1) / 3, mp.mpc(1, 1) / 3]
    double = rounded(values, PrecisionConfig.double())
    assert double == [1 / 3, 1 / 3, complex(1, 1) / 3]
    assert [type(x) for x in double] == [float, float, complex]
    exact = rounded(values, PrecisionConfig.rational(64))
    with mp.workprec(64):
        assert exact == [Fraction(1, 3), mp.mpf(1) / 3, mp.mpc(1, 1) / 3]
    assert rounded(values[1:], PrecisionConfig.bigfloat(64)) == exact[1:]


def test_rounding_boundary_stays_in_precision():
    # moments, jacobi, measures and determinacy hand every result to
    # precision.rounded, sqrt_number or JacobiMatrix.from_squares; none of
    # them dispatches on double mode or takes a root of its own
    src = Path(__file__).resolve().parents[1] / "src" / "momprob"
    for name in ("moments.py", "jacobi.py", "measures.py", "determinacy.py"):
        text = (src / name).read_text()
        assert not re.search(r"\bDOUBLE\b", text), name
        assert not re.search(r"\bmath\.sqrt\(", text), name


def nearest(f: Fraction, bits: int):
    """``f`` rounded to nearest (ties to even) at ``bits`` bits, exactly."""
    e = bits - (f.numerator.bit_length() - f.denominator.bit_length())
    while abs(f) * Fraction(2) ** e >= 2 ** bits:
        e -= 1
    while abs(f) * Fraction(2) ** e < 2 ** (bits - 1):
        e += 1
    with mp.workprec(bits):
        return mp.mpf((round(f * Fraction(2) ** e), -e))


def random_ratios(count, seed):
    rng = random.Random(seed)
    return [Fraction(rng.getrandbits(200) | 1, rng.getrandbits(120) | 1) * rng.choice([1, -1])
            for _ in range(count)]


def test_to_mpf_rounds_a_ratio_once():
    # mpf(p) / q rounded p to the mantissa and then the quotient: a quarter
    # of 64-bit results were an ulp off
    with mp.workprec(64):
        for f in random_ratios(400, 1):
            assert to_mpf(f) == nearest(f, 64), f
            assert convert(f"{f.numerator}/{f.denominator}", PrecisionConfig.bigfloat(64)) \
                == nearest(f, 64), f


def test_rounded_ratio_is_nearest():
    # mpmathify rounds a Fraction toward zero
    ratios = random_ratios(200, 2)
    assert rounded(ratios, PrecisionConfig.bigfloat(64)) == [nearest(f, 64) for f in ratios]


def test_sqrt_number_of_a_ratio_is_correctly_rounded():
    # the root of a non-square ratio, against a 2,000-bit root rounded to
    # 256 bits; rounding the ratio first missed 184 of these by an ulp
    cfg = PrecisionConfig.rational(256)
    for n in range(1, 40):
        for d in range(2, 40):
            f = Fraction(n, d)
            if isinstance(sqrt_number(f, cfg), Fraction):
                continue  # a square ratio has its exact root
            with mp.workprec(2000):
                exact = mp.sqrt(mp.mpf(n) / d)
            with mp.workprec(256):
                assert sqrt_number(f, cfg) == +exact, f
    with mp.workprec(53):
        assert sqrt_number(Fraction(2, 3), PrecisionConfig.double()) == float(mp.sqrt(mp.mpf(2) / 3))


def test_precision_block_failing_on_entry_restores_state():
    # mpmath stores 10^400 bits before its setter overflows; the block used
    # to leave that mantissa set, so every later operation overflowed, and
    # to keep the lock, so no other thread could take it
    prec = mp.mp.prec
    with pytest.raises(OverflowError):
        with wp(10 ** 400):
            pass
    assert mp.mp.prec == prec
    assert mp.mpf(1) / 3 == mp.mpf(1) / mp.mpf(3)
    taken = []

    def take():
        if MP_LOCK.acquire(timeout=0.5):
            MP_LOCK.release()
            taken.append(True)

    other = threading.Thread(target=take)
    other.start()
    other.join()
    assert taken == [True]
