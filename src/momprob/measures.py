"""Measures, multiplicative reweightings, integration and the Stieltjes map.

A measure is either atomic (points and positive weights) or a named weight
density with a quadrature recipe.  Reweightings are kept as a symbolic stack
of multipliers

    gauss_damp(alpha):  exp(-2*alpha*t^2)
    power_lift(n):      (1 + t^2)^n        (n may be negative)

applied lazily at evaluation points, so products of transforms stay exact
and the composition laws hold on the stack: power lifts add as ints, and
damping exponents add exactly and are rounded once (alpha-additivity).  A
scalar ``scale`` accumulates normalization constants.

A measure may keep its section: the unrounded (q, b^2) of the whole Jacobi
matrix of its atoms, stack included, and its mass at scale 1
(``truncation_spectrum`` sets it).  A power lift maps the section by exact
O(n) Christoffel steps (:func:`christoffel_step`, and
:func:`inverse_christoffel_step` to divide), whose pivots give the mass, and
``measure_to_jacobi`` rounds its leading rows.  ``Measure._reweighted``,
the one place the stack changes, keeps the section a power lift maps and
drops it for any other multiplier.  A measure without one runs the
discretized Stieltjes procedure on the support points, computed by the
Gragg-Harrod RKPW rotation update (one atom at a time, no
reorthogonalization, exact on rational atoms), which is the numerically
benign route; the raw-moment Hankel route exists independently in
:mod:`momprob.moments` and the two are required to agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Tuple

import mpmath as mp

from . import tridiag
from .errors import (
    FiniteSupport,
    InfiniteMass,
    NonFinite,
    QuadratureFailure,
    ZeroMass,
)
from .jacobi import JacobiMatrix
from .precision import (
    RATIONAL,
    PrecisionConfig,
    all_exact,
    convert,
    document_int,
    document_list,
    document_precision,
    format_number,
    is_finite_number,
    pairwise_sum,
    rounded,
    to_fraction,
    to_mpf,
    wp,
)

REAL_LINE = "real_line"
# guard bits of a section and its Christoffel steps: 32 lose 20 of 512 bits
# on the graded lognormal section
_SECTION_GUARD = 64


@dataclass(frozen=True)
class Multiplier:
    """One entry of the transform stack."""

    form: str  # "gauss_damp" | "power_lift"
    param: object

    def __post_init__(self):
        if self.form == "gauss_damp":
            if not 0 <= self.param < math.inf:  # NaN fails both comparisons
                raise ValueError("gauss_damp exponent must be finite and nonnegative")
        elif self.form == "power_lift":
            if isinstance(self.param, bool) or not isinstance(self.param, int):
                raise ValueError("power_lift exponent must be an integer")
        else:
            raise ValueError(f"unknown multiplier form {self.form!r}")

    def value_at(self, t):
        """Multiplier value at a point, in the ambient mp precision; a
        power lift at a Fraction point is an exact Fraction."""
        if self.form == "gauss_damp":
            a = to_mpf(self.param)
            return mp.exp(-2 * a * t * t)
        return (1 + t * t) ** self.param

    def to_json(self, cfg: PrecisionConfig):
        return {self.form: format_number(self.param, cfg)}

    @classmethod
    def from_json(cls, item, cfg: PrecisionConfig) -> "Multiplier":
        """The multiplier of a transform entry, ``{"gauss_damp": x}`` or
        ``{"power_lift": n}``; a JSON-number exponent is read by its decimal
        text, like a flag value."""
        if not isinstance(item, dict):
            raise ValueError(f"a transform entry must be a JSON object, got {item!r}")
        if "gauss_damp" in item:
            return cls("gauss_damp", convert(str(item["gauss_damp"]), cfg))
        if "power_lift" in item:
            return cls("power_lift", document_int(item["power_lift"], "power_lift exponent"))
        raise ValueError(f"unknown transform entry {item!r}")


def _merge_stack(stack, mult: Multiplier, cfg: PrecisionConfig):
    """Append a multiplier, merged into a same-form neighbor: power lifts
    add as ints, damping exponents exactly and rounded once to cfg.  An
    entry whose exponent comes out zero is dropped."""
    stack = list(stack)
    if stack and stack[-1].form == mult.form:
        prev = stack.pop().param
        mult = Multiplier(mult.form, prev + mult.param if mult.form == "power_lift"
                          else rounded([to_fraction(prev) + to_fraction(mult.param)], cfg)[0])
    if mult.param != 0:
        stack.append(mult)
    return tuple(stack)


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate a density: Gauss nodes of a reference matrix, or
    adaptive quadrature with an error budget."""

    rule: str  # "gauss_from_jacobi" | "adaptive"
    reference: Optional[JacobiMatrix] = None
    n_nodes: int = 40
    max_subdiv: int = 10
    tol: float = 1e-20

    def __post_init__(self):
        if self.rule == "gauss_from_jacobi":
            if self.reference is None:
                raise ValueError("gauss_from_jacobi needs a reference matrix")
            if self.n_nodes < 1:
                raise ValueError("n_nodes must be positive")
        elif self.rule == "adaptive":
            if not 0 < self.tol < math.inf:
                raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
            if self.max_subdiv < 0:
                raise ValueError("max_subdiv must be nonnegative")
        else:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


_WEIGHTS = {
    "gaussian": (lambda t: mp.exp(-t * t) / mp.sqrt(mp.pi), REAL_LINE),
    "std_normal": (lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi), REAL_LINE),
    "lognormal-density": (
        lambda t: mp.exp(-mp.log(t) ** 2 / 2) / (t * mp.sqrt(2 * mp.pi)) if t > 0 else mp.mpf(0),
        (0, mp.inf),
    ),
}


def weight_function(name: str):
    if not isinstance(name, str) or name not in _WEIGHTS:
        raise ValueError(f"unknown weight {name!r} (have: {sorted(_WEIGHTS)})")
    return _WEIGHTS[name]


class Measure(object):
    """Immutable finite measure with a lazy multiplicative transform stack."""

    __slots__ = ("kind", "points", "weights", "weight_name", "support",
                 "quadrature", "transforms", "scale", "precision", "_atoms", "_section")

    def __init__(self, kind, points=None, weights=None, weight_name=None,
                 support=None, quadrature=None, transforms=(), scale=1,
                 precision=None):
        self.kind = kind
        self.precision = precision if precision is not None else PrecisionConfig()
        self.transforms = tuple(transforms)
        self.scale = scale
        self._atoms = None
        self._section = None  # unrounded (q, b^2, mass at scale 1), or None
        if kind == "atomic":
            pts = tuple(points)
            wts = tuple(weights)
            if len(pts) != len(wts) or not pts:
                raise ValueError("atomic measure needs matching nonempty points/weights")
            if not all(is_finite_number(x) for x in pts + wts):
                raise ValueError("atomic points and weights must be finite")
            for w in wts:
                if not w > 0:
                    raise ValueError("atomic weights must be strictly positive")
            for a, b in zip(pts, pts[1:]):
                if not a < b:
                    raise ValueError("atomic points must be strictly increasing")
            self.points, self.weights = pts, wts
            self.weight_name, self.support, self.quadrature = None, None, None
        elif kind == "density":
            if weight_name is None or quadrature is None:
                raise ValueError("density measure needs a weight name and quadrature")
            weight_function(weight_name)  # validate the name now
            self.weight_name = weight_name
            self.support = support if support is not None else REAL_LINE
            self.quadrature = quadrature
            self.points, self.weights = None, None
        else:
            raise ValueError(f"unknown measure kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def atomic(cls, points, weights, precision=None) -> "Measure":
        return cls("atomic", points=points, weights=weights, precision=precision)

    @classmethod
    def density(cls, weight_name, quadrature: QuadratureSpec, support=None,
                precision=None) -> "Measure":
        return cls("density", weight_name=weight_name, support=support,
                   quadrature=quadrature, precision=precision)

    def _replace(self, **kw) -> "Measure":
        """A copy with the slots in ``kw`` replaced, not checked again."""
        out = object.__new__(Measure)
        for name in Measure.__slots__:
            setattr(out, name, kw[name] if name in kw else getattr(self, name))
        return out

    def _with_section(self, q, b, mass=None) -> "Measure":
        """This measure with (q, b) as its section, which must be the whole
        Jacobi matrix of its atoms, and its ``mass`` (integrated if None); in
        rational mode an inexact entry leaves it without one, since steps
        from it could not be exact."""
        mass = self.total_mass() if mass is None else mass
        return self._replace(_section=_squared(q, b, mass, self.scale, self.precision))

    # -- support atoms -------------------------------------------------------

    def base_atoms(self):
        """Support points and base weights (before transforms and scale).

        For a density measure these are the Gauss nodes/weights of the
        reference matrix; adaptive-rule densities have no atoms.
        """
        if self.kind == "atomic":
            return self.points, self.weights
        if self.quadrature.rule != "gauss_from_jacobi":
            return None
        if self._atoms is None:
            cfg = self.precision
            q, b = self.quadrature.reference.coefficients(self.quadrature.n_nodes)
            nodes, weights = tridiag.gauss_rule(q, b, cfg.bits)
            self._atoms = tuple(rounded(nodes, cfg)), tuple(rounded(weights, cfg))
        return self._atoms

    def effective_atoms(self):
        """Atoms with the transform stack and scale applied to the weights."""
        base = self.base_atoms()
        if base is None:
            return None
        pts, wts = base
        cfg = self.precision
        exact = cfg.mode == RATIONAL and all(m.form == "power_lift" for m in self.transforms)
        num = to_fraction if exact else to_mpf
        with wp(cfg.bits + 16):
            sc = num(self.scale)
            out = []
            for t, w in zip(pts, wts):
                tt = num(t)
                v = num(w) * sc
                for m in self.transforms:
                    v = v * m.value_at(tt)
                out.append(v)
        return pts, tuple(out)

    # -- integration ---------------------------------------------------------

    def integrate(self, f: Callable):
        """Integral of ``f`` against the measure (stack and scale included)."""
        atoms = self.effective_atoms()
        if atoms is None:
            return self._integrate_adaptive(f)
        return self._sum_over(atoms, f)

    def _sum_over(self, atoms, f: Callable):
        """Sum of w f(t) over the effective atoms: exact when the atoms are
        exact and every value of ``f`` is an int or a Fraction, else at
        working + 16 bits rounded once."""
        cfg = self.precision
        pts, wts = atoms
        num = (lambda x: x) if all_exact(cfg, pts, wts) else to_mpf
        with wp(cfg.bits + 16):
            vals = [num(w) * f(num(t)) for t, w in zip(pts, wts)]
            if all(isinstance(v, (int, Fraction)) for v in vals):
                return pairwise_sum(vals)
            for v in vals:
                if not mp.isfinite(v):
                    raise NonFinite("integrand not finite at a support point")
            total = pairwise_sum(vals)
        return rounded([total], cfg)[0]

    def _integrate_adaptive(self, f: Callable):
        cfg = self.precision
        wfn, support = weight_function(self.weight_name)
        if self.support is not None and self.support != REAL_LINE:
            support = self.support
        if support == REAL_LINE:
            interval = [-mp.inf, mp.inf]
        else:
            interval = [support[0], support[1]]
        sc = self.scale
        transforms = self.transforms

        def g(t):
            v = wfn(t) * to_mpf(sc)
            for m in transforms:
                v = v * m.value_at(t)
            return v * f(t)

        spec = self.quadrature
        with wp(cfg.bits + 16):
            val, err = mp.quad(g, interval, error=True, maxdegree=spec.max_subdiv)
            if not mp.isfinite(val):
                raise NonFinite("adaptive quadrature produced a non-finite value")
            if err > mp.mpf(spec.tol) * (1 + abs(val)):
                raise QuadratureFailure(
                    f"error estimate {mp.nstr(err, 5)} exceeds budget {spec.tol}"
                )
        return rounded([val], cfg)[0]

    def total_mass(self):
        return self.integrate(lambda t: 1)

    def moments(self, m: int):
        """Power moments s_0..s_m of the measure (stack and scale included),
        with the atoms read once."""
        atoms = self.effective_atoms()
        integral = self._integrate_adaptive if atoms is None else partial(self._sum_over, atoms)
        return [integral(lambda t, k=k: t ** k) for k in range(m + 1)]

    # -- normalization and transforms ----------------------------------------

    def normalize(self) -> Tuple["Measure", object]:
        """Rescale to unit mass; returns (measure, previous total mass).  A
        measure with a section reads its mass there and integrates nothing."""
        with wp(self.precision.bits + _SECTION_GUARD):  # for the section's product
            mass = (self.total_mass() if self._section is None
                    else rounded([self._section[2] * self.scale], self.precision)[0])
        if isinstance(mass, Fraction):
            if mass == 0:
                raise ZeroMass("measure has zero total mass")
            new_scale = to_fraction(self.scale) / mass
        else:
            with wp(self.precision.bits + 16):
                mv = to_mpf(mass)
                if not mp.isfinite(mv):
                    raise InfiniteMass("total mass is not finite")
                if mv <= 0:
                    raise ZeroMass("measure has nonpositive total mass")
                new_scale = to_mpf(self.scale) / mv
        return self._replace(scale=rounded([new_scale], self.precision)[0]), mass

    def gauss_damp(self, alpha) -> "Measure":
        """Multiply by exp(-2*alpha*t^2) and renormalize.

        Damping by alpha1 then alpha2 merges into alpha1 + alpha2 on the
        stack, summed exactly and rounded once, so the composition law holds
        to the working precision.
        """
        a = convert(alpha, self.precision)
        if a == 0:
            return self
        return self._reweighted(Multiplier("gauss_damp", a))[0]

    def power_reweight(self, n: int) -> Tuple["Measure", object]:
        """Multiply by (1+t^2)^n, renormalize; returns (measure, mass C).

        Negative ``n`` is always integrable; positive ``n`` needs the lifted
        mass to stay finite, which is checked by the normalization.  A kept
        section takes |n| Christoffel steps, inverse ones for n < 0, whose
        mass factors give C.
        """
        mult = Multiplier("power_lift", n)  # checks that n is an integer
        if n == 0:
            return self, convert(1, self.precision)
        section = self._section
        if section is not None:
            step = christoffel_step if n > 0 else inverse_christoffel_step
            q, b2, mass = section
            with wp(self.precision.bits + _SECTION_GUARD):
                for _ in range(abs(n)):
                    q, b2, factor = step(q, b2)
                    mass *= factor
            section = q, b2, mass
        return self._reweighted(mult, section)

    def _reweighted(self, mult: Multiplier, section=None) -> Tuple["Measure", object]:
        """Multiply by ``mult`` and renormalize; returns (measure, mass).  The
        one place the stack changes: the result keeps ``section``, the image
        of the section a power lift passes, and none otherwise."""
        out = self._replace(transforms=_merge_stack(self.transforms, mult, self.precision),
                            _section=section)
        return out.normalize()

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.precision
        obj = {"kind": self.kind}
        if self.kind == "atomic":
            obj["points"] = [format_number(x, cfg) for x in self.points]
            obj["weights"] = [format_number(x, cfg) for x in self.weights]
        else:
            obj["weight"] = self.weight_name
            obj["support"] = (
                REAL_LINE if self.support == REAL_LINE
                else [format_number(x, cfg) for x in self.support]
            )
            q = self.quadrature
            if q.rule == "gauss_from_jacobi":
                ref = {"family": q.reference.family} if q.reference.family else q.reference.to_json()
                obj["quadrature"] = {"rule": q.rule, "reference": ref, "n_nodes": q.n_nodes}
            else:
                obj["quadrature"] = {"rule": q.rule, "max_subdiv": q.max_subdiv, "tol": q.tol}
        if self.transforms:
            obj["transforms"] = [m.to_json(cfg) for m in self.transforms]
        if self.scale != 1:
            obj["scale"] = format_number(self.scale, cfg)
        obj["precision"] = cfg.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict, precision: Optional[PrecisionConfig] = None) -> "Measure":
        cfg = document_precision(obj, precision)
        kind = obj.get("kind")
        transforms = [Multiplier.from_json(item, cfg)
                      for item in document_list(obj.get("transforms", []), "transforms")]
        scale = convert(obj.get("scale", 1), cfg)
        if kind == "atomic":
            pts = [convert(x, cfg) for x in document_list(obj.get("points"), "points")]
            wts = [convert(x, cfg) for x in document_list(obj.get("weights"), "weights")]
            return cls("atomic", points=pts, weights=wts, transforms=transforms,
                       scale=scale, precision=cfg)
        if kind == "density":
            qobj = obj.get("quadrature", {"rule": "adaptive"})
            if not isinstance(qobj, dict):
                raise ValueError("quadrature must be a JSON object")
            rule = qobj.get("rule", "adaptive")
            if rule == "gauss_from_jacobi":
                ref = JacobiMatrix.from_json(qobj.get("reference", {}), precision=cfg)
                n_nodes = document_int(qobj.get("n_nodes", 40), "n_nodes")
                spec = QuadratureSpec("gauss_from_jacobi", reference=ref, n_nodes=n_nodes)
            else:
                max_subdiv = document_int(qobj.get("max_subdiv", 10), "max_subdiv")
                tol = convert(qobj.get("tol", 1e-20), PrecisionConfig.double())
                spec = QuadratureSpec(rule, max_subdiv=max_subdiv, tol=tol)
            support = obj.get("support", REAL_LINE)
            if support != REAL_LINE:
                support = tuple(convert(x, cfg) for x in document_list(support, "support"))
            return cls("density", weight_name=obj.get("weight"), support=support,
                       quadrature=spec, transforms=transforms, scale=scale,
                       precision=cfg)
        raise ValueError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# module-level operations (the functional surface of the module)

integrate = Measure.integrate
normalize = Measure.normalize
gauss_damp = Measure.gauss_damp
power_reweight = Measure.power_reweight
moments_of = Measure.moments


def measure_to_jacobi(mu: Measure, n: int, partial: bool = False) -> JacobiMatrix:
    """Recurrence coefficients of the measure's orthonormal polynomials.

    A measure with a section rounds its first n rows.  Any other (atoms
    read from JSON, which drops the section, gauss_damp stacks and
    gauss_from_jacobi densities) runs the discretized Stieltjes procedure by
    the Gragg-Harrod RKPW update: the atoms are added one at a time, and
    each addition updates the Jacobi matrix by a chase of Givens rotations,
    in O(len(atoms) * n) time and O(n) memory with no reorthogonalization
    (Gragg & Harrod, Numer. Math. 44, 1984; Gautschi, Orthogonal
    Polynomials, 2004, 2.2.3).  The chase is kept in squared form, which
    needs only + - * /, so exact rational atoms run it in Fraction
    arithmetic; other input runs it at the working precision plus 32 guard
    bits and is rounded once.

    With ``partial=True``, exhausted support truncates the output at the
    deepest resolvable level instead of raising FiniteSupport.
    """
    if n < 1:
        raise ValueError("n must be positive")
    atoms = mu.base_atoms()
    if atoms is None:
        raise QuadratureFailure(
            "measure->Jacobi needs discrete support (atomic measure or a "
            "gauss_from_jacobi quadrature recipe)"
        )
    if len(atoms[0]) < n:
        if not partial:
            raise FiniteSupport(
                f"{len(atoms[0])} support points cannot carry {n} recurrence levels"
            )
        n = len(atoms[0])
    cfg = mu.precision
    if mu._section is not None:
        q, b2, _ = mu._section
        return _jacobi_from_squares(q[:n], b2[:n - 1], mu, partial)
    pts, wts = mu.effective_atoms()
    exact = all_exact(cfg, pts, wts)
    num = to_fraction if exact else to_mpf
    bits = cfg.bits
    with wp(bits + 32):
        t = [num(p) for p in pts]
        w = [num(x) for x in wts]
        total = sum(w) if exact else mp.fsum(w)
        if not total > 0:
            raise ZeroMass("measure has nonpositive mass on its support")
        w = [x / total for x in w]
        # RKPW: fold the atoms in one at a time; each new atom is chased down
        # the Jacobi matrix of the atoms before it by Givens rotations kept in
        # squared form (q holds the diagonal, b2[0] the mass, b2[k] = b_k^2).
        # Step k of a chase reads and writes entry k only, so chases cut off
        # at n leave the leading n x n block exact.
        q, b2 = t[:n], [num(0)] * n
        b2[0] = w[0]
        for j in range(1, len(t)):
            lam, pn = t[j], w[j]
            gam, sig, tk = 1, 0, 0
            for k in range(min(j + 1, n)):
                bk = b2[k]
                rho = bk + pn
                tsig = sig
                b2[k] = gam * rho
                if rho > 0:
                    gam, sig = bk / rho, pn / rho
                else:
                    gam, sig = 1, 0
                tprev = tk
                tk = sig * (q[k] - lam) - gam * tprev
                q[k] -= tk - tprev
                pn = tk * tk / sig if sig > 0 else tsig * bk
    return _jacobi_from_squares(q, b2[1:], mu, partial)


def christoffel_step(q, b2):
    """(q, b^2) of (1+t^2) mu from (q, b^2) of mu, and the mass factor d_0.

    Multiplying by 1 + t^2 maps J to R J R^-1, where J^2 + I = R^T R is the
    banded Cholesky factorization (Galant, Math. Comp. 25, 1971; Kautsky &
    Golub, Linear Algebra Appl. 52/53, 1983).  With d the pivots of
    J^2 + I and g_i = b_i R_(i,i+1) / R_ii, the new entries are
    q'_i = q_i + g_i - g_(i-1) and b'_i^2 = b_i^2 d_(i+1) / d_i, read off in
    O(n) with only + - * /, so Fraction input gives the exact result.  The
    map is exact when J is the whole N x N matrix of an N-atom measure; on a
    truncated matrix its last rows are wrong.  The first pivot
    d_0 = (J^2 + I)_11 is the integral of 1 + t^2 against the normalized mu.
    """
    n = len(q)
    d, q_out = [], []
    g1 = h1 = 0  # g and h = q_i + q_(i+1) - g_(i-1) of the row before
    for i in range(n):
        b2i = b2[i] if i < n - 1 else 0
        b2m = b2[i - 1] if i else 0
        di = q[i] * q[i] + b2m + b2i + 1 - g1 * h1
        if i > 1:
            di -= b2[i - 2] * b2m / d[i - 2]
        h1 = q[i] + q[i + 1] - g1 if i < n - 1 else 0
        gi = b2i * h1 / di
        q_out.append(q[i] + gi - g1)
        d.append(di)
        g1 = gi
    return q_out, [b2[i] * d[i + 1] / d[i] for i in range(n - 1)], d[0]


def inverse_christoffel_step(q, b2):
    """(q, b^2) of mu / (1+t^2) from those of mu: U^-1 J U, J^2 + I = U U^T,
    and the mass factor, the integral of 1/(1+t^2) against the normalized mu.

    With U upper triangular and P the index reversal, (PJP)^2 + I = R^T R for
    R = P U^T P, so U^-1 J U = P (R PJP R^-1) P: the forward step, reversed.
    The factor 1/d_(N-1), d the pivots of that pass, is 1 / (J'^2 + I)_11.
    """
    q, b2, _ = christoffel_step(q[::-1], b2[::-1])
    return q[::-1], b2[::-1], 1 / (1 + q[-1] * q[-1] + sum(b2[-1:]))


def _squared(q, b, mass, scale, cfg: PrecisionConfig):
    """(q, b^2, mass / scale), exact for exact rational-mode entries (None for
    inexact ones) and at the working precision plus the section guard else."""
    exact = all_exact(cfg, q, b, [mass, scale])
    if cfg.mode == RATIONAL and not exact:
        return None
    num = to_fraction if exact else to_mpf
    with wp(cfg.bits + _SECTION_GUARD):
        return [num(x) for x in q], [num(x) ** 2 for x in b], num(mass) / num(scale)


def _jacobi_from_squares(q, b2, mu: Measure, partial: bool) -> JacobiMatrix:
    """The Jacobi matrix of ``mu`` with diagonal ``q`` and squared off-diagonal ``b2``.

    The entries are exact (rational mode with int or Fraction entries) or
    carry guard bits over mu's precision; they are rounded once to it.  A
    square at or below 2^-(2 bits) min(1, max|atom|)^2, the eigensolver's
    min(1, |T|) rule, ends the resolvable support: with ``partial`` the
    output stops there, otherwise FiniteSupport is raised.
    """
    cfg = mu.precision
    unit = min(1, to_mpf(max(abs(t) for t in mu.base_atoms()[0])))
    floor2 = 0 if all_exact(cfg, q, b2) else mp.ldexp(unit * unit, -2 * cfg.bits)
    depth = next((k for k, x in enumerate(b2, 1) if not x > floor2), len(q))
    if depth < len(q) and not partial:
        raise FiniteSupport(
            f"support numerically exhausted at level {depth}: "
            "residual norm below resolvable size"
        )
    return JacobiMatrix.from_squares(q[:depth], b2[:depth - 1], cfg)
