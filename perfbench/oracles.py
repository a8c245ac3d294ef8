"""Reference checks for the benchmark's operations.

Every check here is computed from closed forms or exact arithmetic with
mpmath and ``fractions`` only; nothing in this module calls momprob, so an
error in the library cannot be hidden by the same error in its oracle.

Each check returns ``(ok, accuracy_bits, detail)``. ``accuracy_bits`` is the
smallest number of agreeing bits over everything compared, capped at the
working bits, or ``None`` where the oracle is not numerical.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp

# Bits a correct result may fall short of its working precision.  A correct
# 256-bit Hermite rule with N <= 64 reproduces its moments to 252 bits; the
# Hankel route certifies lognormal coefficients to a full mantissa.
QUADRATURE_SLACK = 16
COEFF_SLACK = 8


def agreeing_bits(value, reference):
    """-log2 |value - reference| / |reference| under the ambient precision."""
    err = abs(value - reference)
    if err == 0:
        return math.inf
    if reference == 0:
        return 0.0
    return float(-mp.log(err / abs(reference), 2))


def gaussian_moment(k: int) -> Fraction:
    """Exact k-th moment of exp(-t^2)/sqrt(pi): (2j)!/(4^j j!) for k = 2j."""
    if k % 2:
        return Fraction(0)
    j = k // 2
    return Fraction(math.factorial(2 * j), 4 ** j * math.factorial(j))


def _mpf(f: Fraction):
    return mp.mpf(f.numerator) / f.denominator


def quadrature_moment_bits(nodes, weights, n_moments: int, prec: int):
    """Smallest agreeing bits of sum_i w_i x_i^k with the Gaussian moments.

    Odd moments are exactly zero, so their error is measured against the
    larger neighbouring even moment: a plain relative check cannot be met by
    any rounded rule.
    """
    with mp.workprec(prec):
        xs = [mp.mpf(x) for x in nodes]
        ws = [mp.mpf(w) for w in weights]
        exact = [_mpf(gaussian_moment(k)) for k in range(n_moments + 1)]
        worst = math.inf
        powers = list(ws)
        for k in range(n_moments):
            total = mp.fsum(powers)
            if k % 2:
                scale = max(exact[k - 1], exact[k + 1])
                bits = math.inf if total == 0 else float(-mp.log(abs(total) / scale, 2))
            else:
                bits = agreeing_bits(total, exact[k])
            worst = min(worst, bits)
            powers = [p * x for p, x in zip(powers, xs)]
    return worst


def check_gauss_rule(nodes, weights, n: int, bits: int, slack: int = QUADRATURE_SLACK):
    """An n-point Gauss rule for exp(-t^2) is exact through degree 2n-1."""
    if len(nodes) != n or len(weights) != n:
        return False, 0.0, f"expected {n} nodes and weights"
    if any(not a < b for a, b in zip(nodes, nodes[1:])):
        return False, 0.0, "nodes not strictly increasing"
    if any(not w > 0 for w in weights):
        return False, 0.0, "nonpositive weight"
    acc = min(quadrature_moment_bits(nodes, weights, 2 * n, bits + 64), bits)
    if acc < bits - slack:
        return False, acc, f"moments agree to {acc:.1f} bits, need {bits - slack}"
    return True, acc, ""


def stieltjes_wigert(n: int, prec: int):
    """Closed-form recurrence of the lognormal moments s_k = exp(k^2/2).

    q_k = e^(2k-3/2) (1 + e^-1 - e^-k) for k = 1..n and
    b_k = e^(2k-1) sqrt(1 - e^-k) for k = 1..n-1.
    """
    with mp.workprec(prec):
        e1 = mp.exp(-1)
        q = [mp.exp(2 * k - mp.mpf(3) / 2) * (1 + e1 - mp.exp(-k)) for k in range(1, n + 1)]
        b = [mp.exp(2 * k - 1) * mp.sqrt(1 - mp.exp(-k)) for k in range(1, n)]
    return q, b


def check_lognormal(q, b, verdict: str, n: int, bits: int, slack: int = COEFF_SLACK):
    """Indeterminate verdict and every coefficient on the closed form."""
    if verdict != "indeterminate":
        return False, None, f"verdict {verdict!r}, expected 'indeterminate'"
    if len(q) != n or len(b) != n - 1:
        return False, 0.0, f"expected {n} diagonal and {n - 1} off-diagonal entries"
    ref_q, ref_b = stieltjes_wigert(n, bits + 32)
    with mp.workprec(bits + 64):
        acc = min(agreeing_bits(mp.mpf(x), r) for x, r in zip(list(q) + list(b), ref_q + ref_b))
    acc = min(acc, bits)
    if acc < bits - slack:
        return False, acc, f"coefficients agree to {acc:.1f} bits, need {bits - slack}"
    return True, acc, ""


def check_index(kind: str, n, m: int):
    """(1+x^2)^m times the lognormal Gauss measure has index -m (m < 0)."""
    if kind == "finite" and n == -m:
        return True, None, ""
    return False, None, f"index {kind}({n}), expected finite({-m})"


# -- CLI outputs -------------------------------------------------------------


def parse_real(text: str):
    """A CLI number string (decimal or p/q) as mpf at the ambient precision."""
    if "/" in text:
        f = Fraction(text)
        return _mpf(f)
    return mp.mpf(text)


def parse_complex(text: str):
    """Inverse of the CLI's ``a+bi`` / ``a-bi`` rendering."""
    body = text[:-1]  # strip the trailing "i"
    cut = max(body.rfind("+"), body.rfind("-"))
    while cut > 0 and body[cut - 1] in "eE":
        cut = max(body.rfind("+", 0, cut), body.rfind("-", 0, cut))
    return mp.mpc(parse_real(body[:cut]), parse_real(body[cut:]))


def _hermite_b(k: int):
    return mp.sqrt(mp.mpf(k) / 2)


def check_hermite_jacobi(doc: dict, n: int, bits: int):
    """q = 0 and b_k = sqrt(k/2): the Jacobi matrix of exp(-t^2)."""
    if len(doc["q"]) != n or len(doc["b"]) != n - 1:
        return False, f"expected {n} diagonal entries"
    with mp.workprec(bits + 64):
        if any(parse_real(x) != 0 for x in doc["q"]):
            return False, "nonzero diagonal entry"
        acc = min(agreeing_bits(parse_real(x), _hermite_b(k)) for k, x in enumerate(doc["b"], 1))
    if acc < bits - 8:
        return False, f"off-diagonal agrees to {acc:.1f} bits"
    return True, ""


def check_double_spectrum(doc: dict, n: int):
    """Double-precision Gauss rule of exp(-t^2), exact through degree 2n-1."""
    nodes = [float(x) for x in doc["points"]]
    weights = [float(x) for x in doc["weights"]]
    ok, acc, detail = check_gauss_rule(nodes, weights, n, 53, slack=18)
    return ok, detail


def check_pi_values(doc: dict, z: complex, n: int, need_bits: int):
    """Orthonormal Hermite values from an independent forward recurrence."""
    vals = doc["values"]
    if len(vals) != n:
        return False, f"expected {n} values"
    with mp.workprec(need_bits + 96):
        zz = mp.mpc(z)
        prev, cur = mp.mpc(0), mp.mpc(1)
        ref = [cur]
        for k in range(1, n):
            nxt = (zz * cur - (_hermite_b(k - 1) * prev if k > 1 else 0)) / _hermite_b(k)
            ref.append(nxt)
            prev, cur = cur, nxt
        for k in sorted({0, 1, 2, 10, n // 2, n - 1}):
            acc = agreeing_bits(parse_complex(vals[k]), ref[k])
            if acc < need_bits:
                return False, (f"value {k + 1} agrees with the recurrence to "
                               f"{acc:.1f} bits, need {need_bits}")
    return True, ""


def check_radii(doc: dict, checkpoints):
    """Weyl radii at the expected checkpoints, positive and decreasing."""
    if doc["checkpoints"] != list(checkpoints):
        return False, "unexpected checkpoints"
    radii = [mp.mpf(x) for x in doc["radii"]]
    if any(not r > 0 for r in radii) or any(not a > b for a, b in zip(radii, radii[1:])):
        return False, "radii not positive and strictly decreasing"
    return True, ""


def check_orthonormal_columns(cols, bits: int):
    """Basis columns orthonormal to half the working precision."""
    with mp.workprec(bits + 32):
        vs = [[parse_real(x) for x in col] for col in cols]
        tol = mp.mpf(2) ** (-(bits // 2))
        for i, u in enumerate(vs):
            for j in range(i, len(vs)):
                g = mp.fsum(a * b for a, b in zip(u, vs[j]))
                if abs(g - (1 if i == j else 0)) > tol:
                    return False, f"columns {i + 1} and {j + 1} not orthonormal"
    return True, ""


def check_cli_doc(check, stdout: bytes):
    """Apply a document check to CLI stdout; malformed JSON fails it."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return False, f"stdout is not JSON: {exc}"
    try:
        return check(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unexpected document shape: {exc!r}"


def check_cli(result, expected_code: int, first_stdout, check=None):
    """Documented exit code, byte-identical repeat output, closed form."""
    code, stdout = result
    if code != expected_code:
        return False, f"exit code {code}, documented {expected_code}"
    if first_stdout is not None and stdout != first_stdout:
        return False, "stdout differs from the first invocation"
    if check is not None:
        return check_cli_doc(check, stdout)
    return True, ""
