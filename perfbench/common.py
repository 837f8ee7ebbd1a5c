"""What a user pays before the first library call: loading tangentia from
the checkout's ``src/``, parsing the workload's function specs and
building the quadrature rules its dimensions use.

Both the benchmark process and the fresh-interpreter set-up probe use
this module, so it imports nothing beyond the standard library until
``load_tangentia`` runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the arrangement of the `verify --suite tangential-thm26` generator,
# trial 0 at generator seed 0
THM26_SEED = 0


def thm26_arrangement():
    """(a, c) of the first random 3-piece max-affine drawn by the generator."""
    import numpy as np

    rng = np.random.default_rng(THM26_SEED)
    a = rng.uniform(-2.0, 2.0, size=(3, 2))
    c = rng.uniform(-1.0, 1.0, size=3)
    return a, c


def maxaffine_spec(a, c) -> str:
    pieces = ",".join(f"({ai[0]!r},{ai[1]!r},{ci!r})" for ai, ci in zip(a.tolist(), c.tolist()))
    return f"maxaffine[{pieces}]"


def workload_specs(name: str):
    """(function specs by key, dimensions whose ball/sphere rules are used)."""
    if name == "field-1d":
        return {"gauss1": "gauss(0.5)", "tent": "tent"}, (1,)
    if name == "field-3d":
        return {"gauss3": "gauss(0.5,3)"}, (3,)
    if name == "kink-scan":
        return {"arrangement": maxaffine_spec(*thm26_arrangement())}, ()
    if name == "point-queries":
        return {
            "tent": "tent",
            "abs": "abs",
            "huber": "infconv(abs,1)",
            "wedge": "maxaffine[(1,0,0),(-1,0,0)]",
            "gauss2": "gauss(0.5,2)",
        }, (1, 2)
    raise ValueError(f"unknown workload {name!r}")


class MissingSource(RuntimeError):
    pass


def load_tangentia():
    """Import tangentia from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "tangentia" / "__init__.py").is_file():
        raise MissingSource(f"no tangentia package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tangentia

    if Path(tangentia.__file__).resolve().parent != SRC / "tangentia":
        raise MissingSource(f"tangentia was imported from {tangentia.__file__}, not {SRC}")
    return tangentia


def set_up(tangentia, name: str):
    """Parse the workload's specs and build its rules; returns the functions."""
    specs, dims = workload_specs(name)
    funcs = {k: tangentia.funcspace.parse_function_spec(s) for k, s in specs.items()}
    quad = tangentia.funcspace.DEFAULT_QUADRATURE
    for n in dims:
        quad.ball_rule(n)
        quad.sphere_rule(n)
    return funcs
