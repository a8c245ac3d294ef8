"""Outside-in tracing of momprob's layers.

The library has no tracing of its own yet, so the benchmark wraps the
public functions of each ``momprob`` module from here.  Modules bind many
of these functions by name (``determinacy`` imports ``measure_to_jacobi``,
``cli`` imports most of the API, ``format_number`` is imported into four
modules), so a wrapper is installed on every binding that holds the
original function object, in every loaded ``momprob`` module.

A span records (name, start, end, parent span, op id).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct child spans.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every function that gets a span; the span is named
# "<module>.<attribute>".  Public functions that no workload calls
# (moments.hankel_determinants, moments.jacobi_to_moments,
# bases.stone_jacobi_measure_route, bases.representation_diagnostic) are
# left out: their metrics could only read zero.
SPANNED = [
    ("tridiag", "gauss_rule"),
    ("tridiag", "eigenvalues"),
    ("tridiag", "poly_values"),
    ("tridiag", "eigenvector_columns"),
    ("families", "lognormal"),
    ("moments", "moments_to_jacobi"),
    ("jacobi", "classify"),
    ("jacobi", "weyl_radius"),
    ("jacobi", "pi_eval"),
    ("jacobi", "truncation_spectrum"),
    ("measures", "measure_to_jacobi"),
    ("measures", "power_reweight"),
    ("determinacy", "index_of_determinacy"),
    ("bases", "f_basis_gram"),
    ("bases", "stone_jacobi_operator_route"),
    ("precision", "format_number"),
]
# methods get spans on their class, which every caller reaches
SPANNED_METHODS = [
    ("measures", "Measure", "effective_atoms"),
    ("measures", "Measure", "normalize"),
]
# module names whose self time makes up each layer's share
LAYERS = ["tridiag", "families", "moments", "jacobi", "measures",
          "determinacy", "bases", "precision", "cli"]


def _atoms_of(mu):
    base = mu.base_atoms()
    return len(base[0]) if base is not None else 0


def _count_classify(tracer, args, kwargs, verdict):
    tracer.counts["jacobi.classify.n_used"] += verdict.n_used
    if tracer.inside("determinacy.index_of_determinacy"):
        tracer.counts["determinacy.classify.n_used"] += verdict.n_used


def _count_measure_to_jacobi(tracer, args, kwargs, J):
    tracer.counts["measures.measure_to_jacobi.levels_out"] += J.n_stored
    tracer.counts["measures.measure_to_jacobi.atom_levels"] += _atoms_of(args[0]) * J.n_stored
    if tracer.inside("determinacy.index_of_determinacy"):
        tracer.counts["determinacy.measure_to_jacobi.levels_out"] += J.n_stored


def _count_index(tracer, args, kwargs, report):
    tracer.counts["determinacy.index_of_determinacy.levels"] += len(report.per_level)


def _count_nodes(tracer, args, kwargs, nodes):
    tracer.counts["tridiag.eigenvalues.nodes"] += len(nodes)


POST = {
    "jacobi.classify": _count_classify,
    "measures.measure_to_jacobi": _count_measure_to_jacobi,
    "determinacy.index_of_determinacy": _count_index,
    "tridiag.eigenvalues": _count_nodes,
}


class Tracer:
    """Spans and counters for one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, post=None):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(name)  # an open span holds its name until it ends
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if post is not None:
                post(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, name):
        """Whether a span named ``name`` is open."""
        return any(self.spans[i] == name for i in self._stack)

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions in loaded momprob modules."""
        from momprob import families, jacobi, precision

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "momprob" or n.startswith("momprob."))]
        for mod_name, attr in SPANNED:
            original = getattr(sys.modules["momprob." + mod_name], attr)
            name = f"{mod_name}.{attr}"
            traced = self.wrap(name, original, POST.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for mod_name, cls_name, attr in SPANNED_METHODS:
            cls = getattr(sys.modules["momprob." + mod_name], cls_name)
            self._patch(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", cls.__dict__[attr]))

        for attr in ("diag", "offdiag"):
            method = jacobi.JacobiMatrix.__dict__[attr]
            self._patch(jacobi.JacobiMatrix, attr,
                        self._counted("jacobi.JacobiMatrix.fetch.calls", method))
        locked = precision._LockedPrecision
        self._patch(locked, "__enter__", self._counted("precision.wp.calls", locked.__enter__))

        # the closed-form generator is a closure made per family instance
        make_hermite = families.hermite_like

        def hermite_like(*args, **kwargs):
            J = make_hermite(*args, **kwargs)
            J.generator = self.wrap("families.generator", J.generator)
            return J

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is make_hermite:
                    self._patch(mod, key, hermite_like)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self):
        """name -> [calls, busy_s, self_s] over all spans.

        Busy time counts a span only when no enclosing span has the same
        name, so recursion is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[2] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row[1] += end - start
        return out

    def absorb(self, spans, counts, op):
        """Merge spans and counters recorded by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
