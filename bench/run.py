"""Benchmark of the skewfiber command line, one workload per invocation.

    python3 bench/run.py --workload cantor --seed 3 --seconds 30 --trace 0

Each subcommand of the workload runs as a fresh ``python3 -m skewfiber.cli``
process, one at a time (a closed loop with one client), with the workload
seed passed as ``--seed`` and ``--threads`` left at its default of 1.  Every
run's outputs are checked.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` every subcommand runs once under ``bench/tracer.py`` and
the per-layer metrics are printed.  The last line of standard output is one
JSON object; the exit code is 0 only when every output check passed.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import CENSUS, ROOT, SPANNED

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
RUNS = CHECKOUT / ".bench_runs"
RESULTS = CHECKOUT / ".bench_results"
DIGESTS = CHECKOUT / ".bench_state" / "digests.json"

# The compared workloads (BENCHMARK.json) are cantor and markov3, which run the
# reduced configs *_small.json: at full size one stability or markov3 fixed-point
# process takes 15-40 s, a single sample per run that a shared machine moves by a
# quarter.  The full-size configs stay runnable by hand, as does coupled.
WORKLOADS = {
    "cantor": (
        "bench/configs/cantor_small.json",
        ("verify", "fixed-point", "spectral", "stability", "correlations", "clt"),
    ),
    "markov3": ("bench/configs/markov3_small.json", ("fixed-point", "correlations", "clt")),
    "cantor-full": (
        "src/skewfiber/data/cantor_demo.json",
        ("verify", "fixed-point", "spectral", "stability", "correlations", "clt"),
    ),
    "markov3-full": ("bench/configs/markov3.json", ("fixed-point", "correlations", "clt")),
    "coupled": (
        "src/skewfiber/data/coupled_demo.json",
        ("verify", "fixed-point", "spectral", "correlations", "clt"),
    ),
}

# (name, unit) printed in the last line with --trace 0; every workload reports all of
# them.  A single subcommand's median over its two to four samples moves with a shared
# machine more than the sum over all of them, so per-subcommand medians are printed in
# the table and enter the last line only through pass_s.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified_error", "dual_norm"),
)
# (name, unit) printed in the last line with --trace 1, summed over the workload's
# subcommands except for the shares below and the atoms maximum.  Self times of
# functions that markov3 never calls (the stability module, and what only verify or
# spectral call) would read 0.0 on every markov3 run, so they are left out here; the
# per-subcommand table and the result file carry them.
PER_LAYER = (
    ("measures.wk_distance.calls", "count"),
    ("measures.wk_distance.self_s", "s"),
    ("measures.wk_distance.atoms_max", "count"),
    ("measures.wk_distance.balanced_share", "share"),
    ("measures.wk_distance.one_signed_share", "share"),
    ("measures.wk_distance.general_share", "share"),
    ("measures.quantize.self_s", "s"),
    ("measures.pushforward.calls", "count"),
    ("measures.pushforward.self_s", "s"),
    ("measures.combine_many.self_s", "s"),
    ("transfer.fixed_point.calls", "count"),
    ("transfer.fixed_point.repeat_share", "share"),
    ("transfer.fixed_point.iterations", "count"),
    ("transfer.fixed_point.self_s", "s"),
    ("transfer.transfer_apply.calls", "count"),
    ("transfer.transfer_apply.self_s", "s"),
    ("transfer.change_between.self_s", "s"),
    ("transfer.lip_constant.calls", "count"),
    ("transfer.lip_constant.pairs", "count"),
    ("transfer.lip_constant.self_s", "s"),
    ("transfer.norm_inf.self_s", "s"),
    ("transfer.quantize_disintegration.self_s", "s"),
    ("symbolic.ruelle_apply.calls", "count"),
    ("symbolic.cylinder_mass.calls", "count"),
    ("symbolic.jacobian_weight.calls", "count"),
    ("symbolic.enumerate_words.self_s", "s"),
    ("skew.sample_orbits.self_s", "s"),
    ("skew.sample_orbits.steps", "count"),
    ("skew.c1_constant.self_s", "s"),
    ("limits.correlation_curve.self_s", "s"),
    ("limits.gordin_norms.self_s", "s"),
    ("limits.asymptotic_variance.self_s", "s"),
    ("limits.clt_experiment.self_s", "s"),
    ("limits.observable_sums.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_share", "share"),
)
# share metric -> (numerator, denominator) of raw per-subcommand values
SHARES = {
    "measures.wk_distance.balanced_share": ("measures.wk_distance.balanced", "measures.wk_distance.calls"),
    "measures.wk_distance.one_signed_share": ("measures.wk_distance.one_signed", "measures.wk_distance.calls"),
    "measures.wk_distance.general_share": ("measures.wk_distance.general", "measures.wk_distance.calls"),
    "transfer.fixed_point.repeat_share": ("transfer.fixed_point.repeats", "transfer.fixed_point.calls"),
    "trace.overhead_share": ("trace.extra_s", "trace.untraced_s"),
}

HARD_LIMIT_S = 160.0  # every run must end within 180 s; no child outlives this
CONSISTENCY_TOL = 0.05
NORM_TOL = 1e-6
SETUP_CODE = (
    "import sys, skewfiber, skewfiber.cli as cli; cli.parse_config(sys.argv[1]); "
    "print(skewfiber.__file__)"
)


class GuardError(RuntimeError):
    """The checkout under test is incomplete or not the one imported."""


def subcommand_metric(sub):
    return sub.replace("-", "_") + "_s"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def run_process(argv, deadline, out_path):
    """Run one child to completion; return (exit code, wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=CHECKOUT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - started, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def source_digest(config):
    """Identity of the code and config under test, used to key the rerun digests."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    h.update(config.read_bytes())
    return h.hexdigest()


def provenance():
    commit = "none (not a git checkout)"
    if (CHECKOUT / ".git").exists():
        done = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class DigestBook:
    """First-seen summary.json digest per (code, workload, subcommand, seed)."""

    def __init__(self, code):
        self.code = code
        try:
            self.book = json.loads(DIGESTS.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.book = {}

    def matches(self, workload, sub, seed, digest):
        key = f"{self.code}:{workload}:{sub}:{seed}"
        first = self.book.setdefault(key, digest)
        return first == digest

    def save(self):
        DIGESTS.parent.mkdir(exist_ok=True)
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, sort_keys=True))
        tmp.replace(DIGESTS)


def check_outputs(sub, code, out_dir, digests, workload, seed):
    """Output checks of one subcommand run: (list of failures, summary or None)."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        return failures + ["no summary.json"], None
    raw = summary_path.read_bytes()
    summary = json.loads(raw)
    failures += [f"verdict {v['name']} failed" for v in summary["verdicts"] if not v["passed"]]
    if sub == "fixed-point":
        m = summary["metrics"]
        if abs(m["norm_inf"] - 1.0) > NORM_TOL:
            failures.append(f"norm_inf {m['norm_inf']!r} outside 1 +- {NORM_TOL}")
        if abs(m["norm_s_inf"] - 2.0) > NORM_TOL:
            failures.append(f"norm_s_inf {m['norm_s_inf']!r} outside 2 +- {NORM_TOL}")
    if not digests.matches(workload, sub, seed, hashlib.sha256(raw).hexdigest()):
        failures.append("summary.json differs from the first run with this code and seed")
    return failures, summary


def time_setup(config, deadline, scratch, tag):
    """Wall time of one fresh interpreter importing the CLI and parsing the config."""
    log = scratch / f"setup-{tag}.log"
    code, wall, _ = run_process([sys.executable, "-c", SETUP_CODE, str(config)], deadline, log)
    text = log.read_text().strip()
    if code != 0:
        raise GuardError(f"setup process failed ({code}): {text[-400:]}")
    imported = Path(text.splitlines()[-1]).resolve()
    if SRC.resolve() not in imported.parents:
        raise GuardError(f"skewfiber imported from {imported}, not from {SRC}")
    return wall


def run_subcommand(sub, config, seed, deadline, scratch, tag, mode):
    """One subcommand process; ``mode`` is "cli" (plain), "off" or "traced" (bench/tracer.py)."""
    out_dir = scratch / f"{sub}-{tag}"
    log = scratch / f"{sub}-{tag}.log"
    cli_args = [sub, "--config", str(config), "--out", str(out_dir), "--seed", str(seed)]
    trace_file = scratch / f"{sub}-{tag}.trace.json"
    if mode == "cli":
        argv = [sys.executable, "-m", "skewfiber.cli", *cli_args]
    elif mode == "off":
        argv = [sys.executable, str(BENCH / "tracer.py"), "--off", "--", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--trace-out", str(trace_file),
                "--spawned-at", repr(time.perf_counter()), "--", *cli_args]
    code, wall, rss = run_process(argv, deadline, log)
    run = {"exit": code, "wall_s": wall, "rss_mb": rss, "out_dir": out_dir, "log": log}
    if mode == "traced" and trace_file.is_file():
        run["trace"] = json.loads(trace_file.read_text())
    return run


def timed_samples(subs, seconds, deadline, take_sample):
    """Wall times of every subcommand, ``{sub: [wall_s]}``.

    The subcommands run round-robin.  Every one runs at least once; after
    that a subcommand runs again only if its median so far says the sample
    ends within ``seconds`` of the start (and before ``deadline``), so every
    subcommand gets about the same number of samples.
    """
    samples = {s: [] for s in subs}
    started = time.perf_counter()
    end = min(started + seconds, deadline)
    for sub in subs:
        samples[sub].append(take_sample(sub, 0))
    while True:
        took = False
        for sub in subs:
            walls = samples[sub]
            if time.perf_counter() + statistics.median(walls) < end:
                walls.append(take_sample(sub, len(walls)))
                took = True
        if not took:
            return samples


def layer_values(trace, traced_wall, untraced_wall, bytes_written):
    """Per-layer values of one traced subcommand run, before aggregation."""
    values = {}
    for short, functions in SPANNED.items():
        for fn in functions:
            name = f"{short}.{fn}"
            values[f"{name}.self_s"] = trace["self_s"].get(name, 0.0)
    values.update(trace["counts"])
    values["missing"] = trace["missing"]
    values["cli.self_s"] = trace["self_s"][ROOT]
    values["trace.census_s"] = trace["self_s"].get(CENSUS, 0.0)
    values["cli.bytes_written"] = bytes_written
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_s"] = untraced_wall
    values["trace.extra_s"] = traced_wall - untraced_wall
    values["trace.overhead_share"] = values["trace.extra_s"] / untraced_wall
    accounted = sum(trace["self_s"].values())
    values["trace.consistency_gap"] = abs(accounted - traced_wall) / traced_wall
    return values


def aggregate_layers(per_sub):
    """Workload-level per-layer metrics from per-subcommand values."""
    out = {}
    for name, _ in PER_LAYER:
        if name in SHARES:
            num, den = SHARES[name]
            total = sum(v.get(den, 0) for v in per_sub.values())
            out[name] = sum(v.get(num, 0) for v in per_sub.values()) / total if total else 0.0
        elif name.endswith("atoms_max"):
            out[name] = max((v.get(name, 0) for v in per_sub.values()), default=0)
        else:
            out[name] = sum(v.get(name, 0) for v in per_sub.values())
    return out


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = 100.0 * (n - 10) / n
    ordered = sorted(samples)
    return p, ordered[n - 11]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S

    config_rel, subs = WORKLOADS[args.workload]
    config = CHECKOUT / config_rel
    if not (SRC / "skewfiber" / "cli.py").is_file() or not config.is_file():
        print(f"error: {CHECKOUT} holds no skewfiber source tree or no {config_rel}",
              file=sys.stderr)
        return 2

    info = provenance()
    info["source_sha256"] = source_digest(config)
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} subcommands={','.join(subs)}")

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    digests = DigestBook(info["source_sha256"])
    failures = []
    attempted = 0
    summaries = {}
    rss = []
    try:
        # Untimed warm-up and import guard; in a fresh checkout this interpreter
        # writes the bytecode cache that every later process reads.
        try:
            time_setup(config, deadline, scratch, "warm-up")
        except GuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup = []

        def checked(sub, run, extra=()):
            """Check and discard the outputs of one subcommand run."""
            nonlocal attempted
            attempted += 1
            problems, summary = check_outputs(sub, run["exit"], run["out_dir"], digests,
                                              args.workload, args.seed)
            problems += extra
            if problems:
                tail = run["log"].read_text(errors="replace")[-300:]
                failures.append({"subcommand": sub, "problems": problems, "log_tail": tail})
            if summary is not None:
                summaries.setdefault(sub, summary)
            rss.append(run["rss_mb"])
            shutil.rmtree(run["out_dir"], ignore_errors=True)
            return run

        if args.trace:
            layers = traced_pass(subs, config, args.seed, deadline, scratch, checked)
        else:
            def take_sample(sub, rep):
                # one setup sample before each subcommand sample spreads the setup
                # samples over the whole run, like the subcommand samples
                setup.append(time_setup(config, deadline, scratch, f"{sub}-{rep}"))
                run = run_subcommand(sub, config, args.seed, deadline, scratch, str(rep), "cli")
                return checked(sub, run)["wall_s"]

            samples = timed_samples(subs, args.seconds, deadline, take_sample)
    finally:
        digests.save()
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"provenance": info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "failures": failures,
              "samples": {"setup_s": setup}}
    if args.trace:
        metrics, units = report_layers(subs, layers, result)
    else:
        metrics, units = report_end_to_end(subs, samples, setup, rss, summaries, result)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    failed = len(failures)
    print(f"{'error_rate':<18} {'failed/attempted':<10} {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    for f in failures:
        print(f"FAILED {f['subcommand']}: {'; '.join(f['problems'])}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def traced_pass(subs, config, seed, deadline, scratch, checked):
    """Per-layer values of each subcommand from one traced run and its untraced partner.

    The partner runs the same launcher without wrappers (``tracer.py --off``);
    the difference of the two wall times is the tracing overhead.
    """
    layers = {}
    for sub in subs:
        run = run_subcommand(sub, config, seed, deadline, scratch, "t", "traced")
        partner = run_subcommand(sub, config, seed, deadline, scratch, "u", "off")
        untraced = checked(sub, partner)["wall_s"]
        extra = ["no trace written"]
        if "trace" in run:
            written = sum(p.stat().st_size for p in run["out_dir"].rglob("*") if p.is_file())
            values = layer_values(run["trace"], run["wall_s"], untraced, written)
            layers[sub] = values
            gap = values["trace.consistency_gap"]
            extra = [] if gap <= CONSISTENCY_TOL else [
                f"traced self times miss the traced wall time by {gap:.1%}"]
        checked(sub, run, extra)
    return layers


def report_end_to_end(subs, samples, setup, rss, summaries, result):
    """Print the timing table; return the end-to-end metrics and their units."""
    table = {subcommand_metric(sub): ("s", samples[sub]) for sub in subs}
    table["setup_s"] = ("s", setup)
    medians = {name: statistics.median(vals) for name, (_, vals) in table.items()}

    fp_summary = summaries.get("fixed-point") or {}
    metrics = {
        "setup_s": medians["setup_s"],
        "pass_s": sum(medians[subcommand_metric(s)] for s in subs),
        "peak_rss_mb": max(rss),
        "certified_error": fp_summary.get("metrics", {}).get("certified_error"),
    }

    print(f"{'metric':<18} {'unit':<10} {'median':>12} {'tail':>22} {'n':>4}")
    for name, (unit, vals) in table.items():
        tail = tail_percentile(vals)
        tail_text = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "none (n<11)"
        print(f"{name:<18} {unit:<10} {medians[name]:>12.6g} {tail_text:>22} {len(vals):>4}")
    for name, unit in END_TO_END:
        if name not in table:
            print(f"{name:<18} {unit:<10} {fmt(metrics[name]):>12}")
    result["samples"].update({name: vals for name, (_, vals) in table.items()})
    result["metrics"] = metrics
    return metrics, dict(END_TO_END)


def report_layers(subs, layers, result):
    """Print the per-subcommand layer table; return the per-layer metrics and units."""
    per_sub = {sub: layers[sub] for sub in subs if sub in layers}
    missing = sorted({n for v in per_sub.values() for n in v["missing"]})
    if missing:
        print("not found in the package, reported as idle: " + ", ".join(missing))
    print("per-layer values by subcommand (zeros omitted; share of the traced wall):")
    for sub, values in per_sub.items():
        wall = values["trace.wall_s"]
        print(f"  {sub}: traced wall {wall:.4g} s, overhead_share "
              f"{values['trace.overhead_share']:.4g}, self-time gap "
              f"{values['trace.consistency_gap']:.2%}")
        for name in sorted(values):
            v = values[name]
            if not v or name.startswith("trace.") or name == "missing":
                continue
            share = f" ({v / wall:.1%})" if name.endswith("self_s") else ""
            print(f"    {name} = {fmt(v)}{share}")
    metrics = aggregate_layers(per_sub)
    result["per_subcommand"] = per_sub
    result["metrics"] = metrics
    return metrics, dict(PER_LAYER)


if __name__ == "__main__":
    sys.exit(main())
