"""The four workloads: seeded inputs, the library calls a pass makes, and
the oracle checks of each pass.

A pass is one instance solved end to end, made through the public API
the way the CLI subcommands make it (CLI defaults, ``threads=1``).
``check(inputs, outputs)`` returns two lists of (label, error,
tolerance): the oracle checks that gate ``correct``, and the best-radius
checks that are only recorded.
``inputs(seed, i)`` depends only on the seed and the pass index, so the
same seed replays the same inputs.  Each seed moves its inputs by less
than one grid cell or samples query points from fixed ranges, so the
work per pass stays comparable across seeds while the inputs differ.
"""

from __future__ import annotations

import math

import numpy as np

import common
import oracles

# tolerances of the repository's acceptance battery (tests/test_acceptance.py)
VALUE_TOL = 1e-6  # maximal-function values
DERIV_TOL = 1e-3  # envelope derivatives, tau estimates
ANGLE_TOL = 1e-2  # gamma witness direction
COUNT_TOL = 0.5  # counts that must be zero


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _radii_checks(label, value, radii, average_at, at_zero):
    """Each finite best radius, and the 0 marker, should reproduce the value.

    These are recorded, not gated (see "Known defects" in README.md).
    """
    out = []
    for r in radii:
        if r == 0.0:
            out.append((f"{label} radius 0", abs(at_zero - value), VALUE_TOL))
        elif math.isfinite(r):
            out.append((f"{label} radius {r:.6g}", abs(average_at(r) - value), VALUE_TOL))
    return out


class Field1D:
    """maximal_field of gauss(0.5) on a 1D box near [-3, 3], shifted by the seed.

    The field is of the smooth Gaussian, not of the tent: on the tent the
    library misses its advertised 1e-6 value accuracy in narrow windows
    and, at rare points, anywhere (known defects 3 and 4 in README.md),
    so a gated tent sweep fails at random.  Those failures are measured
    instead by fixed tent probes (``tent_checks``), recorded and not gated.
    """

    name = "field-1d"
    min_calls = 1
    # |x| ranges where tent probes 1e-4 apart fail the value check (defect 3)
    TENT_WINDOWS = ((0.5, 0.501), (0.9965, 0.9985))
    # a point where the adaptive quad overestimates a tent average (defect 4)
    TENT_POINTS = (-1.1670830239421992, 1.1670830239421992)

    def __init__(self, tiny: bool):
        self.points = 5 if tiny else 61

    def inputs(self, seed, index):
        step = 6.0 / (self.points - 1)
        shift = _rng(seed, index).uniform(-0.5, 0.5) * step
        return {"box": ([-3.0 + shift], [3.0 + shift])}

    def run(self, tg, funcs, inp, call):
        return call(lambda: tg.maxop.maximal_field(
            funcs["gauss1"], inp["box"], self.points, lam=0.0, r_max=None, threads=1))

    def check(self, inp, out):
        pts, values, radii = out
        checks, radii_checks = [], []
        for x, v, rs in zip(pts[:, 0], values, radii):
            rho = abs(float(x))
            ref, _ = oracles.gauss_maximal(rho, 0.5, 1)
            checks.append((f"M gauss1({x:.6g})", abs(v - ref), VALUE_TOL))
            radii_checks += _radii_checks(
                f"gauss1 x={x:.6g}", v, rs.radii,
                lambda r: float(oracles.gauss_ball_average(rho, [r], 0.5, 1)[0]),
                math.exp(-2.0 * rho * rho))
        return checks, radii_checks

    def tent_checks(self, tg, funcs):
        """Maximal-value checks of the tent at TENT_WINDOWS, 1e-4 apart, and
        at TENT_POINTS."""
        xs = [x for lo, hi in self.TENT_WINDOWS
              for x in np.linspace(lo, hi, round((hi - lo) / 1e-4) + 1)]
        checks = []
        for x in xs + list(self.TENT_POINTS):
            value, _ = tg.maxop.maximal(funcs["tent"], [x])
            ref, _ = oracles.tent_maximal([x])
            checks.append((f"M tent({x!r})", abs(value - ref[0]), VALUE_TOL))
        return checks


class Field3D:
    """maximal_field of gauss(0.5,3) at two points: one inside |x| < 1,
    where radius 0 wins, and one beyond, where a finite best radius is
    refined."""

    name = "field-3d"
    min_calls = 1

    def __init__(self, tiny: bool):
        self.resolution = (1, 1, 1) if tiny else (2, 1, 1)

    def inputs(self, seed, index):
        rng = _rng(seed, index)
        inner, outer = rng.uniform(0.2, 0.6), rng.uniform(1.1, 1.5)
        y, z = rng.uniform(-0.1, 0.1, size=2)
        if self.resolution[0] == 1:
            inner = outer
        return {"box": ([inner, y, z], [outer, y + 0.1, z + 0.1])}

    def run(self, tg, funcs, inp, call):
        return call(lambda: tg.maxop.maximal_field(
            funcs["gauss3"], inp["box"], self.resolution, lam=0.0, r_max=None, threads=1))

    def check(self, inp, out):
        pts, values, radii = out
        checks, radii_checks = [], []
        for p, v, rs in zip(pts, values, radii):
            rho = float(np.linalg.norm(p))
            ref, _ = oracles.gauss_maximal(rho, 0.5, 3)
            checks.append((f"M gauss3(|x|={rho:.6g})", abs(v - ref), VALUE_TOL))
            radii_checks += _radii_checks(
                f"gauss3 |x|={rho:.6g}", v, rs.radii,
                lambda r: float(oracles.gauss_ball_average(rho, [r], 0.5, 3)[0]),
                math.exp(-2.0 * rho * rho))
        return checks, radii_checks


class KinkScan:
    """singular_scan with gamma on the thm26 arrangement, sigma_decompose of
    the flagged points, and the medial scan of the unit square."""

    name = "kink-scan"
    min_calls = 1
    SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

    def __init__(self, tiny: bool):
        self.res = 8 if tiny else 16
        self.medial_res = 17 if tiny else 128
        self.a, self.c = common.thm26_arrangement()

    def inputs(self, seed, index):
        cell = 2.0 / (self.res - 1)
        off = _rng(seed, index).uniform(-0.5, 0.5, size=2) * cell
        return {"box": (np.array([-1.0, -1.0]) + off, np.array([1.0, 1.0]) + off), "cell": cell}

    def run(self, tg, funcs, inp, call):
        flags = call(lambda: tg.nonsmooth.singular_scan(
            funcs["arrangement"], inp["box"], self.res, tol=1e-3, annotate_gamma=True))
        cloud = np.array([p.point for p in flags])
        sigma = call(lambda: tg.tangency.sigma_decompose(cloud, 1, pieces=8, eta=0.2, seed=0))
        square = tg.specials.ClosedSetModel.from_polygon(self.SQUARE)
        medial = call(lambda: tg.specials.medial_scan(
            square, ([0.0, 0.0], [1.0, 1.0]), self.medial_res))
        return flags, sigma, medial

    def check(self, inp, out):
        flags, _, medial = out
        checks = [("scan flagged no point", float(not flags), COUNT_TOL)]
        half_diag = 0.5 * inp["cell"] * math.sqrt(2.0)
        for p in flags:
            checks.append((f"flag {p.point} off the edges",
                           oracles.edge_distance(p.point, self.a, self.c), half_diag))
        mcell = 1.0 / (self.medial_res - 1)
        missed = 0
        for m in medial:
            if m.multiplicity >= 2:
                checks.append((f"medial {m.point} off the diagonals",
                               oracles.square_diagonal_distance(m.point), 0.5 * mcell))
            elif oracles.square_diagonal_distance(m.point) < 1e-12:
                missed += 1
        checks.append(("diagonal grid points not flagged medial", missed, COUNT_TOL))
        return checks, []


class PointQueries:
    """Single calls as made through `dirderiv`/`tau`/`gamma`/`infconv`, in
    a fixed mix per pass (see MIX).  Runs by name; BENCHMARK.json does not
    list it because its run-to-run spread exceeds the largest bound (see
    README.md)."""

    name = "point-queries"
    # kinds in the order a pass issues them; repeats set the mix
    MIX = ("tau_abs", "infconv", "maximal", "dirderiv", "gamma", "infconv",
           "tau_huber", "maximal", "dirderiv", "infconv", "gamma", "dirderiv") * 2

    def __init__(self, tiny: bool):
        self.mix = tuple(dict.fromkeys(self.MIX)) if tiny else self.MIX
        self.min_calls = 1 if tiny else 100

    def inputs(self, seed, index):
        """Query points, stratified: the j-th of n calls of a kind draws its
        point from the j-th of n equal parts of the kind's range.  Cost
        depends on the point (tau of the Huber form takes 40 ms beyond
        |x| = 1 and 210 ms inside), so every pass covers each range evenly.
        """
        rng = _rng(seed, index)
        counts = {kind: self.mix.count(kind) for kind in self.mix}

        def strata(lo, hi, n):
            return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n

        def signed(values):
            return values * rng.choice([-1.0, 1.0], size=len(values))

        draws = {
            "dirderiv": [{"x": x, "theta": t} for x, t in zip(
                strata(1.2, 3.0, counts["dirderiv"]), signed(np.ones(counts["dirderiv"])))],
            "infconv": [{"x": x} for x in signed(strata(0.0, 2.5, counts["infconv"]))],
            "tau_huber": [{"x": x} for x in signed(strata(0.0, 2.5, counts["tau_huber"]))],
            "maximal": [{"x": rho * np.array([np.cos(a), np.sin(a)])} for rho, a in zip(
                strata(0.0, 2.0, counts["maximal"]), rng.uniform(0.0, 2.0 * np.pi, counts["maximal"]))],
            "gamma": [{"x": np.array([0.0, y])} for y in strata(-1.0, 1.0, counts["gamma"])],
            "tau_abs": [{"x": 0.0}] * counts["tau_abs"],
        }
        seen = dict.fromkeys(counts, 0)
        qs = []
        for kind in self.mix:
            qs.append((kind, draws[kind][seen[kind]]))
            seen[kind] += 1
        return {"queries": qs}

    def run(self, tg, funcs, inp, call):
        out = []
        for kind, q in inp["queries"]:
            x = q["x"]
            if kind == "dirderiv":
                res = call(lambda: tg.maxop.maximal_directional_derivative(
                    funcs["tent"], np.array([x]), np.array([q["theta"]]), lam=0.0))
            elif kind == "infconv":
                coupling = lambda xx, yy: float(np.sum((xx - yy) ** 2)) / 2.0  # noqa: E731
                res = call(lambda: tg.specials.inf_convolution(
                    funcs["abs"], coupling, np.array([x]), ([-4.0], [4.0]),
                    y_resolution=257, strict=False))
            elif kind == "tau_huber":
                res = call(lambda: tg.nonsmooth.tau(
                    funcs["huber"], np.array([x]), tg.semilinear.full_space(1), n_dir=32, seed=0))
            elif kind == "tau_abs":
                res = call(lambda: tg.nonsmooth.tau(
                    funcs["abs"], np.array([x]), tg.semilinear.full_space(1), n_dir=32, seed=0))
            elif kind == "gamma":
                res = call(lambda: tg.nonsmooth.gamma(funcs["wedge"], x, tol=1e-3))
            else:
                res = call(lambda: tg.maxop.maximal(funcs["gauss2"], x))
            out.append(res)
        return out

    def check(self, inp, out):
        checks, radii_checks = [], []
        for (kind, q), res in zip(inp["queries"], out):
            x = q["x"]
            if kind == "dirderiv":
                ref = oracles.tent_maximal_derivative(x, q["theta"])
                checks.append((f"dirderiv tent x={x:.6g}", abs(res - ref), DERIV_TOL))
            elif kind == "infconv":
                value, mins, boundary = res
                ref, y_star = oracles.huber(x)
                checks.append((f"infconv abs x={x:.6g}", abs(value - ref), VALUE_TOL))
                checks.append((f"infconv minimizer x={x:.6g}",
                               min((abs(float(m[0]) - y_star) for m in mins), default=math.inf), DERIV_TOL))
                checks.append((f"infconv boundary x={x:.6g}", float(boundary), COUNT_TOL))
            elif kind == "tau_huber":
                # infconv(abs,1) is C1, so the measure is 0; the estimate must
                # read below the library's differentiability tolerance
                checks.append((f"tau huber x={x:.6g}", res.value, DERIV_TOL))
            elif kind == "tau_abs":
                checks.append(("tau(abs, 0) = 1", abs(res.value - 1.0), DERIV_TOL))
            elif kind == "gamma":
                witness = res.witness.basis[:, 0]
                angle = math.acos(min(1.0, abs(float(witness[1])) / float(np.linalg.norm(witness))))
                checks.append((f"gamma degree at {tuple(x)}", abs(res.degree - 1), COUNT_TOL))
                checks.append((f"gamma witness angle at {tuple(x)}", angle, ANGLE_TOL))
            else:
                value, rset = res
                rho = float(np.linalg.norm(x))
                ref, _ = oracles.gauss_maximal(rho, 0.5, 2)
                checks.append((f"M gauss2(|x|={rho:.6g})", abs(value - ref), VALUE_TOL))
                radii_checks += _radii_checks(
                    f"gauss2 |x|={rho:.6g}", value, rset.radii,
                    lambda r: float(oracles.gauss_ball_average(rho, [r], 0.5, 2)[0]),
                    math.exp(-2.0 * rho * rho))
        return checks, radii_checks


WORKLOADS = {w.name: w for w in (Field1D, Field3D, KinkScan, PointQueries)}


def digest(obj, h):
    """Feed every number of a result into hash h, bit for bit."""
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        if obj.dtype == object:
            for item in obj.ravel():
                digest(item, h)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, (bool, int, str, type(None), np.generic)):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            digest(k, h)
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        for name in obj.__dataclass_fields__:
            digest(getattr(obj, name), h)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")
