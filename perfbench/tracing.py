"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces every public function of the six library
modules with a timing wrapper, in every module namespace that holds it
(so ``tangentia.maxop.ball_average``, imported from ``funcspace``, is
wrapped too), plus ``SemiLinearSubspace.contains``, ``numpy.linalg.lstsq``
and ``scipy.optimize.linprog``.  ``Tracer.restore`` puts every original
back.  Wrappers call the originals with the same arguments, so traced
runs compute bit-identical results.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np
import scipy.optimize

LAYERS = ("funcspace", "semilinear", "nonsmooth", "maxop", "specials", "tangency")


class EvalCounter:
    """Evaluation counts of the DirectionalFunctions made by ``wrap``."""

    def __init__(self):
        self.scalar_calls = 0
        self.batch_calls = 0
        self.batch_points = 0

    def wrap(self, f):
        """A copy of f whose evaluator and batch evaluator count their calls."""
        scalar, batch = f.evaluator, f.batch_evaluator

        def evaluator(x):
            self.scalar_calls += 1
            return scalar(x)

        counted_batch = None
        if batch is not None:

            def counted_batch(pts):
                self.batch_calls += 1
                self.batch_points += len(pts)
                return batch(pts)

        return dataclasses.replace(f, evaluator=evaluator, batch_evaluator=counted_batch)


class Tracer:
    """Nested spans keyed by ``layer.function``, with per-span self time."""

    def __init__(self, tangentia):
        self.tg = tangentia
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # named event counts, see the hooks below
        self.radii_sets = []
        self._stack = []  # [name, child seconds, saw linprog]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def parent(self):
        """Name of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def _span(self, name, fn, hook=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, out, frame)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions; call ``restore`` in a ``finally``."""
        tg = self.tg
        self._radii_signature = inspect.signature(tg.funcspace.ball_average_radii)
        hooks = {
            "funcspace.ball_average": self._on_ball_average,
            "funcspace.ball_average_radii": self._on_ball_average_radii,
            "maxop.maximal": self._on_maximal,
            "semilinear.sample_unit_vectors": self._on_sample,
            "specials.inf_convolution": self._on_inf_convolution,
            "tangency.is_k_tangential": self._on_is_k_tangential,
            "nonsmooth.minimax_fit": self._on_minimax_fit,
            "nonsmooth.singular_scan": self._on_singular_scan,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(tg, layer)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._span(name, fn, hooks.get(name))
        # every namespace that refers to a wrapped function, including
        # names one module imported from another
        mods = [m for k, m in list(sys.modules.items()) if k == "tangentia" or k.startswith("tangentia.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        cls = tg.semilinear.SemiLinearSubspace
        self._set(cls, "contains", self._span("semilinear.contains", cls.contains, self._on_contains))
        self._set(np.linalg, "lstsq", self._counted(np.linalg.lstsq, "lstsq"))
        self._set(scipy.optimize, "linprog", self._counted(scipy.optimize.linprog, "linprog"))

    def restore(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _counted(self, fn, label):
        """Count calls of a numerical kernel made directly by minimax_fit."""

        def wrapper(*args, **kwargs):
            if self.parent() == "nonsmooth.minimax_fit":
                self.counts[f"minimax_fit.{label}"] += 1
                if label == "linprog":
                    self._stack[-1][2] = True
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks: counts read from arguments and results -----------------------

    def _on_ball_average(self, args, kwargs, out, frame):
        if self.parent() == "maxop.maximal":
            self.counts["ball_average.under_maximal"] += 1

    def _on_ball_average_radii(self, args, kwargs, out, frame):
        bound = self._radii_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        f, radii, quad = bound.arguments["f"], bound.arguments["radii"], bound.arguments["quadrature"]
        nodes = quad.ball_rule(f.dimension)[0].shape[0]
        self.counts["ball_average_radii.bytes"] += len(radii) * nodes * f.dimension * 8

    def _on_maximal(self, args, kwargs, out, frame):
        self.radii_sets.append(out[1])

    def _on_sample(self, args, kwargs, out, frame):
        self.counts["sample.vectors"] += len(out)

    def _on_contains(self, args, kwargs, out, frame):
        if self.parent() == "semilinear.sample_unit_vectors":
            self.counts["sample.contains"] += 1

    def _on_inf_convolution(self, args, kwargs, out, frame):
        self.counts["inf_convolution.boundary"] += bool(out[2])

    def _on_is_k_tangential(self, args, kwargs, out, frame):
        if out.verdict != "inconclusive":
            self.counts["tangency.conclusive"] += 1
        if out.verdict == "tangential":
            self.counts["tangency.tangential"] += 1

    def _on_minimax_fit(self, args, kwargs, out, frame):
        self.counts["minimax_fit.lp_fits"] += frame[2]
        if self.parent() == "nonsmooth.singular_scan":
            self.counts["scan.fits"] += 1

    def _on_singular_scan(self, args, kwargs, out, frame):
        self.counts["scan.flags"] += len(out)

    # -- report ------------------------------------------------------------

    def metrics(self, evals: EvalCounter) -> dict:
        """The per-layer metrics; a ratio whose base is zero reads 0."""
        c, s, k = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        rsets = self.radii_sets
        m = {
            "funcspace.evals": (evals.scalar_calls + evals.batch_points, "count"),
            "funcspace.scalar_calls": (evals.scalar_calls, "count"),
            "funcspace.batch_calls": (evals.batch_calls, "count"),
            "funcspace.ball_average.calls": (c["funcspace.ball_average"], "count"),
            "funcspace.ball_average.self_s": (s["funcspace.ball_average"], "s"),
            "funcspace.ball_average_radii.calls": (c["funcspace.ball_average_radii"], "count"),
            "funcspace.ball_average_radii.self_s": (s["funcspace.ball_average_radii"], "s"),
            "funcspace.ball_average_radii.bytes": (k["ball_average_radii.bytes"], "B"),
            "funcspace.sphere_average_derivative.self_s": (s["funcspace.sphere_average_derivative"], "s"),
            "maxop.maximal.calls": (c["maxop.maximal"], "count"),
            "maxop.maximal.self_s": (s["maxop.maximal"], "s"),
            "maxop.refine_calls_per_point": (ratio(k["ball_average.under_maximal"], c["maxop.maximal"]), "1"),
            "maxop.flat_share": (ratio(sum(bool(r.trace.get("flat")) for r in rsets), len(rsets)), "1"),
            "maxop.inf_share": (ratio(sum(math.inf in r.radii for r in rsets), len(rsets)), "1"),
            "maxop.zero_radius_share": (ratio(sum(0.0 in r.radii for r in rsets), len(rsets)), "1"),
            "maxop.maximal_directional_derivative.self_s": (s["maxop.maximal_directional_derivative"], "s"),
            "nonsmooth.minimax_fit.calls": (c["nonsmooth.minimax_fit"], "count"),
            "nonsmooth.minimax_fit.self_s": (s["nonsmooth.minimax_fit"], "s"),
            "nonsmooth.minimax_fit.lstsq_per_fit": (ratio(k["minimax_fit.lstsq"], c["nonsmooth.minimax_fit"]), "1"),
            "nonsmooth.minimax_fit.lp_share": (ratio(k["minimax_fit.lp_fits"], c["nonsmooth.minimax_fit"]), "1"),
            "nonsmooth.tau.calls": (c["nonsmooth.tau"], "count"),
            "nonsmooth.tau.self_s": (s["nonsmooth.tau"], "s"),
            "nonsmooth.gamma.calls": (c["nonsmooth.gamma"], "count"),
            "nonsmooth.gamma.self_s": (s["nonsmooth.gamma"], "s"),
            "nonsmooth.singular_scan.self_s": (s["nonsmooth.singular_scan"], "s"),
            "nonsmooth.scan.candidate_yield": (ratio(k["scan.flags"], k["scan.fits"]), "1"),
            "semilinear.sample_unit_vectors.calls": (c["semilinear.sample_unit_vectors"], "count"),
            "semilinear.sample_unit_vectors.self_s": (s["semilinear.sample_unit_vectors"], "s"),
            "semilinear.contains.calls": (c["semilinear.contains"], "count"),
            "semilinear.sample_accept_ratio": (ratio(k["sample.vectors"], k["sample.contains"]), "1"),
            "semilinear.semilinear.self_s": (s["semilinear.semilinear"], "s"),
            "specials.inf_convolution.calls": (c["specials.inf_convolution"], "count"),
            "specials.inf_convolution.self_s": (s["specials.inf_convolution"], "s"),
            "specials.inf_convolution.boundary_share": (
                ratio(k["inf_convolution.boundary"], c["specials.inf_convolution"]), "1"),
            "specials.medial_scan.self_s": (s["specials.medial_scan"], "s"),
            "specials.nearest_set.calls": (c["specials.nearest_set"], "count"),
            "tangency.sigma_decompose.self_s": (s["tangency.sigma_decompose"], "s"),
            "tangency.is_k_tangential.calls": (c["tangency.is_k_tangential"], "count"),
            "tangency.is_k_tangential.self_s": (s["tangency.is_k_tangential"], "s"),
            "tangency.fit_tangent.calls": (c["tangency.fit_tangent"], "count"),
            "tangency.conclusive_share": (ratio(k["tangency.conclusive"], c["tangency.is_k_tangential"]), "1"),
            "tangency.pass_share": (ratio(k["tangency.tangential"], k["tangency.conclusive"]), "1"),
        }
        return m
