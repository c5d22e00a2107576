"""Byte identity of every report against another revision's ``src/``, and each run's exit code.

    python tools/identity.py REV

Exports ``src/`` at REV with ``git archive`` into a temporary directory and
runs the matrix below once against that tree and once against this
checkout's ``src/``, each as ``python -m skewfiber.cli`` with its own
``PYTHONPATH``.  Both sides read the same config files.  For every run it
compares the exit code, standard output, standard error and each file
written under ``--out``, and checks this checkout's exit code against the one
its config calls for: 2 for ``stability`` on a config with no ``stability``
block, 0 for every other run.  It prints one line per difference or missed
exit code, and exits 1 on any, 0 when every run matches.  Against ``HEAD``
itself it reruns every report and checks every exit code.

The matrix: all six subcommands at seed 3 on the five shipped configs;
``verify`` at seeds 0-9 on cantor_small and markov3_small; ``clt`` at seeds
0-29 on four configs; five configs built from the shipped ones (a
64-symbol cycle with a chord, the coupled demo at depth 12, a combined
stability family, and two observable configs); and ``fixed-point`` on
"wide8", a 2-shift with 256 distinct branches, so that every Lipschitz pass
reads many gap rows.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "cantor_demo": CHECKOUT / "src" / "skewfiber" / "data" / "cantor_demo.json",
    "coupled_demo": CHECKOUT / "src" / "skewfiber" / "data" / "coupled_demo.json",
    "cantor_small": CHECKOUT / "bench" / "configs" / "cantor_small.json",
    "markov3_small": CHECKOUT / "bench" / "configs" / "markov3_small.json",
    "markov3": CHECKOUT / "bench" / "configs" / "markov3.json",
}
SUBCOMMANDS = ("verify", "fixed-point", "spectral", "stability", "correlations", "clt")


def cycle_chord_system(n, offset_depth):
    """The n-symbol cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1: n + d - 1 words at depth d."""
    matrix = [[int(j == (i + 1) % n or (i, j) == (n - 1, 1)) for j in range(n)] for i in range(n)]
    return {
        "matrix": matrix,
        "theta": 0.5,
        "weights": {"kind": "markov", "transition": [[v / sum(row) for v in row] for row in matrix]},
        "fiber_maps": [{"slope": 0.5, "offset": 0.25}] * n,
        "offset_depth": offset_depth,
    }


def wide_system(offset_depth):
    """The full 2-shift with each offset word's correction drawn after ``random.seed(7)``, in word order.

    The 2^d offset words give 2^d distinct branches up to d = 8, and 4059 at d = 12, where rounded draws collide.
    """
    draw = random.Random(7)
    words = [format(i, f"0{offset_depth}b") for i in range(2**offset_depth)]
    return {
        "matrix": [[1, 1], [1, 1]],
        "theta": 0.5,
        "weights": {"kind": "bernoulli", "p": [0.5, 0.5]},
        "fiber_maps": [{"slope": 0.3, "offset": offset, "offset_table": {
            w: round(draw.uniform(-0.05, 0.05), 6) for w in words if w[0] == str(i)}}
            for i, offset in enumerate((0.05, 0.65))],
        "offset_depth": offset_depth,
    }


def configs():
    """Every config of the matrix by name: the five shipped ones, five built from them, and wide8."""
    cycle64 = {"system": cycle_chord_system(64, 5), "depth": 5}
    wide8 = {"system": wide_system(8), "depth": 8, "grid": 4096}
    coupled12 = json.loads(CONFIGS["coupled_demo"].read_text())
    coupled12["depth"] = 12
    combined = json.loads(CONFIGS["cantor_small"].read_text())
    combined["stability"] = {"kind": "combined", "fiber_direction": [0, -1], "weight_direction": [1, -1],
                             "depth": 2, "grid": 4096, "tol": 1e-7}
    # markov3_small with a components psi (interior breakpoints on two symbols) and a depth-2 base_only phi
    components = json.loads(CONFIGS["markov3_small"].read_text())
    components["correlations"]["psi"] = {"type": "components", "depth": 1, "components": {
        "0": {"breakpoints": [0, 0.3, 1], "values": [0, 1, 0.5]},
        "1": {"breakpoints": [0, 0.5, 0.8, 1], "values": [1, -1, 0, 2]},
        "2": {"breakpoints": [0, 1], "values": [0.2, 0.7]}}}
    components["correlations"]["phi"] = {"type": "base_only", "depth": 2, "values": {
        "00": 1, "01": 0, "10": -0.5, "12": 1, "20": 0, "21": 1, "22": -0.5}}
    # the coupled demo at depth 12 with a two-valued depth-12 base_only phi
    coupled12_phi = json.loads(json.dumps(coupled12))
    words = (format(i, "012b") for i in range(4096))
    coupled12_phi["correlations"]["phi"] = {"type": "base_only", "depth": 12, "values": {
        w: float(w.startswith("01") or w.endswith("11")) for w in words}}
    shipped = {name: json.loads(path.read_text()) for name, path in CONFIGS.items()}
    return shipped | {"cycle64": cycle64, "coupled12": coupled12, "combined": combined,
                      "components": components, "coupled12-phi": coupled12_phi, "wide8": wide8}


def matrix():
    """(config name, subcommand, seed) of every run, each once."""
    runs = [(name, sub, 3) for name in CONFIGS for sub in SUBCOMMANDS]
    runs += [(name, "verify", seed) for name in ("cantor_small", "markov3_small") for seed in range(10)]
    runs += [(name, "clt", seed) for name in ("cantor_small", "markov3_small", "markov3", "coupled_demo")
             for seed in range(30)]
    runs += [("cycle64", sub, 3) for sub in ("fixed-point", "correlations", "verify")]
    runs += [("coupled12", sub, 3) for sub in ("fixed-point", "verify")]
    runs += [("combined", "stability", 3), ("components", "correlations", 3), ("coupled12-phi", "correlations", 3)]
    runs += [("wide8", "fixed-point", 3)]
    return list(dict.fromkeys(runs))


def run(src, config, sub, seed, out):
    """(exit code, stdout, stderr, {relative path: bytes}) of one CLI run against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "skewfiber.cli", sub, "--config", str(config),
                           "--seed", str(seed), "--out", str(out)], env=env, capture_output=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def expected_exit(config, sub):
    """2 for ``stability`` on a config with no ``stability`` block, 0 for every other run."""
    return 2 if sub == "stability" and "stability" not in config else 0


def differences(label, expected, ours, theirs):
    """One line for a missed exit code and one per part of a run that differs between the two sides."""
    lines = [f"{label}: exit code {ours[0]}, expected {expected}"] if ours[0] != expected else []
    lines += [f"{label}: {part} differs" for part, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs)
              if a != b]
    for name in sorted(set(ours[3]) | set(theirs[3])):
        if name not in theirs[3] or name not in ours[3]:
            lines.append(f"{label}: {name} written on one side only")
        elif ours[3][name] != theirs[3][name]:
            lines.append(f"{label}: {name} differs")
    return lines


def report(rev, outcomes):
    """Print the differences of ``{run: (expected exit, ours, theirs)}``; 1 if there are any, else 0."""
    lines = [line for (name, sub, seed), outcome in outcomes.items()
             for line in differences(f"{name} {sub} --seed {seed}", *outcome)]
    print("\n".join(lines) if lines else f"{len(outcomes)} runs byte-identical to {rev}")
    return 1 if lines else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/identity.py REV", file=sys.stderr)
        return 2
    named = configs()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "theirs")
        for name, cfg in named.items():
            (tmp / f"{name}.json").write_text(json.dumps(cfg))
        sides = {"ours": CHECKOUT / "src", "theirs": tmp / "theirs" / "src"}

        def one(job):
            side, (name, sub, seed) = job
            return run(sides[side], tmp / f"{name}.json", sub, seed, tmp / side / f"{name}-{sub}-{seed}")

        runs = matrix()
        jobs = [(side, key) for key in runs for side in sides]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = dict(zip(jobs, pool.map(one, jobs)))
    return report(argv[0], {key: (expected_exit(named[key[0]], key[1]), results["ours", key],
                                  results["theirs", key]) for key in runs})


if __name__ == "__main__":
    sys.exit(main())
