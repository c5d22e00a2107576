"""Span tracer for one skewfiber CLI process, installed from outside the package.

Usage (the checkout's ``src`` must be on PYTHONPATH):

    python3 bench/tracer.py --trace-out FILE --spawned-at T -- <skewfiber CLI args>
    python3 bench/tracer.py --off -- <skewfiber CLI args>

It imports the package, replaces every binding of the functions listed in
SPANNED and COUNTED inside the ``skewfiber.*`` module namespaces (callers
import with ``from .measures import wk_distance``, so patching only the
defining module would miss them), runs ``skewfiber.cli.main`` once and
exits with its code.  ``--off`` runs the same launcher without wrappers; it
is the untraced partner from which the tracing overhead is measured.

Both forms end with ``os._exit`` once the trace is written.  Interpreter
finalization (30 ms after numpy, 150 ms after ``scipy.stats``) happens
after the last moment the process can record, so skipping it in both forms
keeps the traced wall equal to the time the spans can account for.

Spans (name, start, end, parent) stay in memory and are reduced to
per-function call counts and self times once the CLI has returned.  The root
span ``cli`` starts at ``T``, the parent's ``time.perf_counter()`` reading
when it spawned this process (CLOCK_MONOTONIC is shared between processes on
Linux), so interpreter start-up and imports land in ``cli`` self time.
Traffic census counters are computed after the traced call has returned,
inside a ``trace.census`` span, so they stay out of every layer's self time.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# module -> functions timed with a span per call
SPANNED = {
    "measures": ("wk_distance", "wk_distance_bruteforce", "quantize", "pushforward", "combine_many"),
    "transfer": (
        "fixed_point", "transfer_apply", "change_between", "lip_constant", "norm_inf",
        "quantize_disintegration", "verify_ly", "equilibrium_decay",
    ),
    "symbolic": ("ruelle_apply", "base_gap_estimate", "enumerate_words"),
    "skew": ("sample_orbits", "c1_constant"),
    "stability": ("stability_sweep", "admissibility_report", "bu_estimate", "operator_gap"),
    "limits": (
        "correlation_curve", "gordin_norms", "asymptotic_variance", "clt_experiment",
        "observable_sums",
    ),
    "cli": ("parse_config",),
}
# module -> functions too small and too frequent for a span; only calls are counted
COUNTED = {"symbolic": ("cylinder_mass", "jacobian_weight")}

ROOT = "cli"
CENSUS = "trace.census"
# |net total| below this share of the total variation counts as balanced
BALANCE_RTOL = 1e-12
# merged supports above this size are where the quadratic sweep dominates
LARGE_ATOMS = 4096


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, root_start):
        self.names = [ROOT]
        self.starts = [root_start]
        self.ends = [0.0]
        self.parents = [-1]
        self.stack = [0]
        self.counts = Counter()
        self.seen_fixed_points = set()

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, census=None):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.counts[f"{name}.calls"] += 1
            if census is not None:
                j = self._open(CENSUS)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    census(self, bound.arguments, result)
                finally:
                    self._close(j)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        key = f"{name}.calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def finish(self):
        """Close the root span; return self time per span name and the counters."""
        self.ends[0] = time.perf_counter()
        starts = np.asarray(self.starts)
        duration = np.asarray(self.ends) - starts
        covered = np.zeros(duration.size)
        np.add.at(covered, np.asarray(self.parents[1:], dtype=np.int64), duration[1:])
        self_time = duration - covered
        totals = {}
        for name, s in zip(self.names, self_time):
            totals[name] = totals.get(name, 0.0) + float(s)
        return {
            "root_start": float(starts[0]),
            "root_end": self.ends[0],
            "spans": len(self.names),
            "self_s": totals,
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# traffic census, run after the traced call returned
# ---------------------------------------------------------------------------


def _wk_census(tracer, args, _result):
    mu, nu = args["mu"], args["nu"]
    pos = np.concatenate([mu.positions, nu.positions])
    w = np.concatenate([mu.weights, -nu.weights])
    support, inverse = np.unique(pos, return_inverse=True)
    net = np.bincount(inverse, weights=w, minlength=support.size)
    net = net[net != 0.0]
    c = tracer.counts
    c["measures.wk_distance.atoms_max"] = max(c["measures.wk_distance.atoms_max"], int(net.size))
    if net.size > LARGE_ATOMS:
        c["measures.wk_distance.over_4096_atoms"] += 1
    if net.size and ((net > 0).all() or (net < 0).all()):
        c["measures.wk_distance.one_signed"] += 1
    elif abs(net.sum()) <= BALANCE_RTOL * np.abs(net).sum():
        c["measures.wk_distance.balanced"] += 1
    else:
        c["measures.wk_distance.general"] += 1


def _system_key(sys_):
    return (
        sys_.matrix.entries.tobytes(),
        repr(sys_.theta),
        repr(sys_.weights),
        repr(sys_.fiber_maps),
        sys_.offset_depth,
    )


def _fixed_point_census(tracer, args, result):
    key = (_system_key(args["sys"]), args["depth"], args["grid"], args["tol"])
    if key in tracer.seen_fixed_points:
        tracer.counts["transfer.fixed_point.repeats"] += 1
    tracer.seen_fixed_points.add(key)
    tracer.counts["transfer.fixed_point.iterations"] += int(result.iterations)


def _lip_census(tracer, args, _result):
    n = len(args["dis"].fibers)
    tracer.counts["transfer.lip_constant.pairs"] += n * (n - 1) // 2


def _orbit_census(tracer, args, _result):
    tracer.counts["skew.sample_orbits.steps"] += int(args["trials"]) * (
        int(args["burn_in"]) + int(args["length"])
    )


CENSUS_HOOKS = {
    "measures.wk_distance": _wk_census,
    "transfer.fixed_point": _fixed_point_census,
    "transfer.lip_constant": _lip_census,
    "skew.sample_orbits": _orbit_census,
}


def install(tracer):
    """Wrap every listed function at every binding in the package; return names not found."""
    import skewfiber  # noqa: F401  (imports every module)
    import skewfiber.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "skewfiber"]
    wrappers = {}
    missing = []
    for table, spanned in ((SPANNED, True), (COUNTED, False)):
        for short, functions in table.items():
            home = sys.modules.get(f"skewfiber.{short}")
            for fn_name in functions:
                name = f"{short}.{fn_name}"
                fn = getattr(home, fn_name, None)
                if fn is None:
                    missing.append(name)
                    continue
                if spanned:
                    wrappers[id(fn)] = (fn, tracer.spanned(name, fn, CENSUS_HOOKS.get(name)))
                else:
                    wrappers[id(fn)] = (fn, tracer.counted(name, fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--off", action="store_true", help="run the CLI without wrappers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if not args.off and (args.trace_out is None or args.spawned_at is None):
        parser.error("--trace-out and --spawned-at are required unless --off is given")
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.off:
        import skewfiber  # noqa: F401  (same imports as the traced form)
        import skewfiber.cli

        return skewfiber.cli.main(cli_args)
    tracer = Tracer(args.spawned_at)
    missing = install(tracer)
    import skewfiber.cli

    code = skewfiber.cli.main(cli_args)
    report = tracer.finish()
    report["missing"] = missing
    with open(args.trace_out, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    exit_code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(exit_code)
