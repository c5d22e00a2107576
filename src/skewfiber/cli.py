"""Command-line front end: config parsing, experiment orchestration, reports.

Configs are JSON with a system block plus optional per-experiment blocks,
parsed once into the values the experiments run on, defaults filled in; an
unknown key or a malformed value fails at its JSON pointer before any compute.
Every subcommand writes CSV tables and a ``summary.json`` into its output
directory.  Exit codes: 0 = all asserted bounds hold, 1 = some bound failed or the numerics
are inconsistent, 2 = usage or configuration error.  Reports contain no
timestamps, so identical config and seed give byte-identical output files;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fitting import exp_fit
from .limits import (
    BURN_IN,
    MIN_TRIALS,
    CoboundaryError,
    InconsistencyError,
    Observable,
    asymptotic_variance,
    clt_experiment,
    correlation_curve,
    fiber_average,
    gordin_norms,
    integrate_observable,
)
from .measures import AtomicMeasure, PiecewiseLinearFn, wk_distance, wk_distance_primal
from .skew import BLOCK_CELLS, FiberMapSpec, SystemSpec, c1_constant
from .stability import (
    PerturbationFamily,
    fiber_op_gap,
    operator_gap,
    realize_grid,
    stability_sweep,
)
from .symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    WeightsError,
    base_rate,
    cylinder_mass_vector,
    ruelle_apply,
)
from .transfer import (
    MAX_ATOMS,
    ConvergenceError,
    Disintegration,
    change_between,
    equilibrium_decay,
    fixed_point,
    lip_constant,
    marginal_density,
    norm_inf,
    norm_s_inf,
    quantize_disintegration,
    transfer_apply,
    verify_ly,
)

class ConfigError(ValueError):
    """Configuration problem, annotated with the JSON pointer of the offender."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"system", "depth", "grid", "tol", "seed", "stability", "correlations", "clt"}
_SYSTEM_KEYS = {"matrix", "theta", "weights", "fiber_maps", "offset_depth"}
_WEIGHT_KEYS = {"bernoulli": {"kind", "p"}, "markov": {"kind", "transition", "stationary"}}
_MAP_KEYS = {"slope", "offset", "offset_table"}
# "k5" is accepted and ignored: the bundled cantor demo and the cantor benchmark config carry it
_STAB_COMMON = {"kind", "deltas", "delta_max", "k5", "depth", "grid", "tol"}
_STAB_KEYS = {"fiber_shift": _STAB_COMMON | {"fiber_direction"},
              "base_weights": _STAB_COMMON | {"weight_direction"},
              "combined": _STAB_COMMON | {"fiber_direction", "weight_direction"}}
_CORR_KEYS = {"nmax", "psi", "phi", "gordin_nmax"}
_CLT_KEYS = {"length", "trials", "truncation"}
_OBS_KEYS = {"fiber": {"type", "breakpoints", "values"}, "base_only": {"type", "depth", "values"},
             "components": {"type", "depth", "components"}}


# the most admissible words a working depth may give; it bounds the per-word loops and what a pair_lipschitz pass
# holds, one |class| x n distance block and one gap row (c1_constant peaks at 0.8 MiB with 4059 branches at the cap)
MAX_WORDS = 4096
# the most lags after lag 0 (each one CSV row and one transfer or closure step), and the most
# CLT trials: one float each in the Birkhoff sums, at most one sampling block's cells
MAX_LAGS, MAX_TRIALS = MAX_WORDS, BLOCK_CELLS
# the finest quantization grid; the bundled configs use at most 2^18
MAX_GRID = 2**20

# ``realized`` is ``realize_grid``'s (deltas, systems, budgets), built once at parse time
StabilityConfig = namedtuple("StabilityConfig", "family realized depth grid tol")
CorrelationsConfig = namedtuple("CorrelationsConfig", "psi phi nmax gordin_nmax")
CltConfig = namedtuple("CltConfig", "length trials truncation")


@dataclass
class ExperimentConfig:
    system: SystemSpec
    depth: int
    grid: int
    tol: float
    seed: int
    correlations: CorrelationsConfig
    clt: CltConfig
    stability: StabilityConfig | None = None
    digest: str = ""
    verbose: bool = False


def _object(block, pointer):
    if not isinstance(block, dict):
        raise ConfigError(pointer or "/", f"must be an object, got {block!r}")
    return block


def _reject_unknown(block, allowed, pointer):
    for key in _object(block, pointer):
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", f"unknown key {key!r}")


def _require(block, key, pointer):
    if key not in block:
        raise ConfigError(pointer, f"missing required key {key!r}")
    return block[key]


def _int(block, key, default, minimum, pointer, maximum=sys.float_info.max):
    """``block[key]`` as an integer in [``minimum``, ``maximum``], by default ``_number``'s float range.

    A ``default`` of None makes the key required.
    """
    value = _require(block, key, pointer) if default is None else block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{pointer}/{key}", f"must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise ConfigError(f"{pointer}/{key}", f"must be at most {maximum!r}, got {value!r}")
    return value


def _depth(block, key, default, matrix, minimum, pointer):
    """``_int`` for a depth of ``matrix``'s words: at least ``minimum``, and at most ``MAX_WORDS`` words.

    Word counts never fall with the depth, so counting stops once it passes
    MAX_WORDS^2 and the check stays short for any depth.
    """
    depth = _int(block, key, default, minimum, pointer)
    count = matrix.word_count(depth, stop=MAX_WORDS**2)
    if count > MAX_WORDS:
        size = f"at least {count}" if count > MAX_WORDS**2 else str(count)
        raise ConfigError(f"{pointer}/{key}", f"depth {depth} gives {size} admissible words, "
                                              f"above the cap of {MAX_WORDS}")
    # a shift with two symbols or more has more words than its depth; the one-symbol shift has one
    if depth > MAX_WORDS:
        raise ConfigError(f"{pointer}/{key}", f"depth {depth} is above the cap of {MAX_WORDS}")
    return depth


def _is_number(value):
    # rejects booleans, strings, a JSON NaN or Infinity, and integers too large for a float (compared exactly)
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _number(value, pointer):
    if not _is_number(value):
        raise ConfigError(pointer, f"must be a finite number, got {value!r}")
    return value


def _positive(block, key, default, pointer):
    value = _number(block.get(key, default), f"{pointer}/{key}")
    if not value > 0:
        raise ConfigError(f"{pointer}/{key}", f"must be a positive number, got {value!r}")
    return value


def _kind(block, keys, pointer, default=None, field="kind"):
    """``block[field]``, one of ``keys``; a key that kind does not read is rejected."""
    block = _object(block, pointer)
    kind = _require(block, field, pointer) if default is None else block.get(field, default)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{pointer}/{field}", f"must be one of {sorted(keys)}, got {kind!r}")
    _reject_unknown(block, keys[kind], pointer)
    return kind


def _parse_word(text, pointer):
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise ConfigError(pointer, f"bad word key {text!r}") from exc


def _word_table(block, words, what, pointer, parse):
    """``block`` as {word: parse(value, its pointer)}; each key must name one of ``words``, once.

    A key that is malformed, names another word, or repeats a word fails at
    its own pointer; ``what`` describes ``words`` in that message.
    """
    allowed = set(words)
    table = {}
    for key, value in _object(block, pointer).items():
        kp = f"{pointer}/{key}"
        word = _parse_word(key, kp)
        if word not in allowed:
            raise ConfigError(kp, f"{word} is not {what}")
        if word in table:
            raise ConfigError(kp, f"word {word} is given twice")
        table[word] = parse(value, kp)
    return table


def _square(block, key, pointer):
    """``block[key]`` as a nonempty square list of lists; anything else is a ConfigError at ``{pointer}/{key}``."""
    rows = _require(block, key, pointer)
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise ConfigError(f"{pointer}/{key}", f"must be a square list of lists, got {rows!r}")
    return rows


def _transition_matrix(block, pointer):
    """``block["matrix"]`` as a TransitionMatrix; any problem is a ConfigError at ``{pointer}/matrix``."""
    entries = _square(block, "matrix", pointer)
    # type() rejects the booleans and floats that np.asarray(dtype=int) would coerce
    if not all(type(v) is int and v in (0, 1) for row in entries for v in row):
        raise ConfigError(f"{pointer}/matrix", f"entries must be the integers 0 or 1, got {entries!r}")
    try:
        return TransitionMatrix(entries)
    except ValueError as exc:
        raise ConfigError(f"{pointer}/matrix", str(exc)) from exc


def _parse_weights(block, pointer):
    if _kind(block, _WEIGHT_KEYS, pointer) == "bernoulli":
        return BaseWeights.bernoulli(_finite_list(block, "p", pointer))
    tp = f"{pointer}/transition"
    transition = [_numbers(row, f"{tp}/{i}") for i, row in enumerate(_square(block, "transition", pointer))]
    stationary = _finite_list(block, "stationary", pointer) if "stationary" in block else None
    return BaseWeights(transition, stationary)


def _parse_system(block, pointer="/system"):
    _reject_unknown(block, _SYSTEM_KEYS, pointer)
    matrix = _transition_matrix(block, pointer)
    theta = _number(_require(block, "theta", pointer), f"{pointer}/theta")
    try:
        weights = _parse_weights(_require(block, "weights", pointer), f"{pointer}/weights")
    except WeightsError as exc:
        raise ConfigError(f"{pointer}/weights/{exc.field}", str(exc)) from exc
    offset_depth = _depth(block, "offset_depth", 1, matrix, 1, pointer)
    maps = []
    if not isinstance(_require(block, "fiber_maps", pointer), list):
        raise ConfigError(f"{pointer}/fiber_maps", "must be a list")
    for i, mblock in enumerate(block["fiber_maps"]):
        mp = f"{pointer}/fiber_maps/{i}"
        _reject_unknown(mblock, _MAP_KEYS, mp)
        own = [w for w in matrix.words(offset_depth) if w[0] == i]
        what = f"an admissible word of depth {offset_depth} starting with symbol {i}"
        table = _word_table(mblock.get("offset_table", {}), own, what, f"{mp}/offset_table", _number)
        slope, offset = (_number(_require(mblock, key, mp), f"{mp}/{key}") for key in ("slope", "offset"))
        maps.append((slope, offset, table))
    try:
        maps = [FiberMapSpec(*m) for m in maps]
        return SystemSpec(matrix, theta, weights, maps, offset_depth)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _numbers(value, pointer):
    """A list of numbers that ``_number`` accepts, as a 1-d float array; anything else is a ConfigError."""
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ConfigError(pointer, f"must be a list of finite numbers, got {value!r}")
    return np.array(value, dtype=float)


def _finite_list(block, key, pointer, default=None):
    """``block[key]`` through ``_numbers``, reported at ``{pointer}/{key}``."""
    value = _require(block, key, pointer) if default is None else block.get(key, default)
    return _numbers(value, f"{pointer}/{key}")


def _piecewise(block, pointer):
    """``block``'s breakpoints and values as a PiecewiseLinearFn; a bad field is a ConfigError.

    A field that is not a list of finite numbers is reported at its own pointer,
    a mismatch between the two fields at ``pointer``.
    """
    breakpoints, values = (_finite_list(block, key, pointer) for key in ("breakpoints", "values"))
    try:
        return PiecewiseLinearFn(breakpoints, values)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _component(block, pointer):
    _reject_unknown(block, {"breakpoints", "values"}, pointer)
    return _piecewise(block, pointer)


def parse_observable(block, matrix, max_depth, pointer):
    """An observable of depth at most ``max_depth``, with one value or component per admissible word."""
    kind = _kind(block, _OBS_KEYS, pointer, field="type")
    if kind == "fiber":
        return Observable.fiber(matrix, _piecewise(block, pointer))
    depth = _int(block, "depth", None, 1, pointer)
    # checked before the words of that depth are listed
    if depth > max_depth:
        raise ConfigError(f"{pointer}/depth", f"must be at most the working depth {max_depth}")
    words = matrix.words(depth)
    field, parse = ("values", _number) if kind == "base_only" else ("components", _component)
    fp = f"{pointer}/{field}"
    what = f"an admissible word of depth {depth}"
    table = _word_table(_require(block, field, pointer), words, what, fp, parse)
    missing = [w for w in words if w not in table]
    if missing:
        raise ConfigError(fp, f"missing word {missing[0]}")
    if kind == "base_only":
        return Observable.base_only(matrix, depth, table)
    return Observable(matrix, depth, [table[w] for w in words], np.arange(len(words)))


def _parse_stability(block, system, depth, grid, tol, pointer="/stability"):
    kind = _kind(block, _STAB_KEYS, pointer, default="fiber_shift")
    directions = {key: _finite_list(block, key, pointer) for key in sorted(_STAB_KEYS[kind] - _STAB_COMMON)}
    delta_max = _positive(block, "delta_max", 0.2, pointer)
    try:
        family = PerturbationFamily(system, delta_max=delta_max, **directions)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc
    deltas = _finite_list(block, "deltas", pointer, [0.1, 0.01, 0.001, 0.0001])
    try:
        realized = realize_grid(family, deltas)
    except ValueError as exc:
        raise ConfigError(f"{pointer}/deltas", str(exc)) from exc
    depth = _depth(block, "depth", depth, system.matrix, system.offset_depth, pointer)
    return StabilityConfig(family, realized, depth, _int(block, "grid", grid, 2, pointer, MAX_GRID),
                           _positive(block, "tol", tol, pointer))


def _parse_correlations(block, matrix, depth, pointer="/correlations"):
    _reject_unknown(block, _CORR_KEYS, pointer)
    observables = {
        "psi": Observable.base_only(matrix, 1, {w: 1.0 if w[0] == 0 else 0.0 for w in matrix.words(1)}),
        "phi": Observable.fiber(matrix, PiecewiseLinearFn.identity()),
    }
    for key in ("psi", "phi"):
        if key in block:
            observables[key] = parse_observable(block[key], matrix, depth, f"{pointer}/{key}")
    nmax = _int(block, "nmax", 12, 0, pointer, MAX_LAGS)
    return CorrelationsConfig(**observables, nmax=nmax,
                              gordin_nmax=_int(block, "gordin_nmax", min(nmax, 8), 0, pointer, MAX_LAGS))


def _parse_clt(block, offset_depth, pointer="/clt"):
    _reject_unknown(block, _CLT_KEYS, pointer)
    # one trial's track, BURN_IN + length + offset_depth - 1 symbols, fits one sampling block
    return CltConfig(length=_int(block, "length", 2000, 1, pointer, BLOCK_CELLS - BURN_IN - offset_depth + 1),
                     trials=_int(block, "trials", 5000, MIN_TRIALS, pointer, MAX_TRIALS),
                     truncation=_int(block, "truncation", 30, 1, pointer, MAX_LAGS))


def parse_config(path):
    """Load and validate a config file; raises ConfigError on the first problem."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("/", f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError("/", f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"not valid JSON: {exc}") from exc
    _reject_unknown(raw, _TOP_KEYS, "")
    system = _parse_system(_require(raw, "system", "/"))
    depth = _depth(raw, "depth", 4, system.matrix, system.offset_depth, "")
    grid = _int(raw, "grid", 512, 2, "", MAX_GRID)
    tol = _positive(raw, "tol", 1e-6, "")
    seed = _int(raw, "seed", 0, 0, "")
    correlations = _parse_correlations(raw.get("correlations", {}), system.matrix, depth)
    clt = _parse_clt(raw.get("clt", {}), system.offset_depth)
    stability = _parse_stability(raw["stability"], system, depth, grid, tol) if "stability" in raw else None
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ExperimentConfig(
        system=system,
        depth=depth,
        grid=grid,
        tol=tol,
        seed=seed,
        correlations=correlations,
        clt=clt,
        stability=stability,
        digest=digest,
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class Report:
    """Collects named pass/fail verdicts and the emitted artifact files."""

    def __init__(self, experiment, config, out_dir):
        self.experiment = experiment
        self.config = config
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot write reports to {out_dir}: {exc.strerror}") from exc
        self.verdicts = []
        self.artifacts = []
        self.metrics = {}

    def check(self, name, passed, detail=""):
        self.verdicts.append({"name": name, "passed": bool(passed), "detail": detail})

    def metric(self, name, value):
        self.metrics[name] = value

    def write_csv(self, name, header, rows):
        lines = [header]
        for row in rows:
            # float() drops the np.float64(...) wrapper NumPy 2 puts in repr
            lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
        (self.out_dir / name).write_text("\n".join(lines) + "\n")
        self.artifacts.append(name)

    def write_text(self, name, text):
        (self.out_dir / name).write_text(text)
        self.artifacts.append(name)

    @property
    def passed(self):
        return all(v["passed"] for v in self.verdicts)

    def finalize(self):
        summary = {
            "experiment": self.experiment,
            "input_digest": self.config.digest,
            "tool_version": __version__,
            "seed": self.config.seed,
            "metrics": self.metrics,
            "verdicts": self.verdicts,
            "artifacts": self.artifacts,
            "passed": self.passed,
        }
        (self.out_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )
        for v in self.verdicts:
            status = "pass" if v["passed"] else "FAIL"
            print(f"[{status}] {self.experiment}: {v['name']}" + (f" ({v['detail']})" if v["detail"] else ""))
        return 0 if self.passed else 1


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _note_fixed_point(config, res, label="fixed point"):
    """With ``--verbose``, one stderr line on how many words share how many fibers, and the certificate's parts."""
    if config.verbose:
        dis = res.disintegration
        contraction, quantization = res.certificate_parts
        print(f"{label}: {len(dis.words())} words, {dis.n_fibers} distinct fibers, {dis.w.size} atoms, "
              f"{res.iterations} iterations; certificate {res.certified_error!r} = contraction {contraction!r}"
              f" + quantization {quantization!r}", file=sys.stderr)


def _compute_fixed_point(config):
    res = fixed_point(config.system, depth=config.depth, tol=config.tol, grid=config.grid)
    _note_fixed_point(config, res)
    return res


def run_fixed_point(config, out_dir):
    report = Report("fixed-point", config, out_dir)
    sys_ = config.system
    res = _compute_fixed_point(config)
    mu0 = res.disintegration
    n_inf = norm_inf(mu0)
    s_inf = norm_s_inf(mu0, sys_.theta)
    lip = lip_constant(mu0, sys_.theta)
    bound = c1_constant(sys_) / (1.0 - sys_.theta)
    report.metric("norm_inf", n_inf)
    report.metric("norm_s_inf", s_inf)
    report.metric("lip_constant", lip)
    report.metric("certified_error", res.certified_error)
    report.metric("iterations", res.iterations)
    report.check("fiberwise_norm_is_one", abs(n_inf - 1.0) <= 1e-6, f"norm_inf={n_inf!r}")
    report.check("strong_norm_is_two", abs(s_inf - 2.0) <= 1e-6, f"norm_s_inf={s_inf!r}")
    report.check("lip_within_regularity_bound", lip <= bound + 1e-6, f"lip={lip!r} bound={bound!r}")
    again, _ = quantize_disintegration(transfer_apply(sys_, mu0), config.grid)
    move = change_between(again, mu0)
    report.check("reapplication_within_tol", move <= config.tol, f"moved {move!r}")
    dumped = mu0.to_json_dict() | {"errorBound": res.certified_error}
    report.write_text("disintegration.json", json.dumps(dumped) + "\n")
    report.write_csv(
        "fixed_point.csv",
        "quantity,value",
        [
            ("norm_inf", n_inf),
            ("norm_s_inf", s_inf),
            ("lip_constant", lip),
            ("certified_error", res.certified_error),
            ("iterations", res.iterations),
            ("last_change", res.last_change),
        ],
    )
    return report.finalize()


def run_spectral(config, out_dir):
    report = Report("spectral", config, out_dir)
    sys_ = config.system
    rate = base_rate(sys_.weights)
    report.metric("base_rate", rate)
    report.check("base_gap_below_one", rate < 1.0, f"rate={rate!r}")
    diff = AtomicMeasure([0.0, 1.0], [1.0, -1.0])
    dis = Disintegration.product(sys_.matrix, config.depth, diff)
    norms = equilibrium_decay(sys_, dis, nmax=8)
    fit = exp_fit(np.arange(1, len(norms) + 1), norms)
    report.metric("equilibrium_rate", fit.rate)
    report.metric("equilibrium_r2", fit.r_squared)
    report.check("equilibrium_rate_below_one", fit.rate < 1.0, f"rate={fit.rate!r}")
    rows = [(n, v, fit.constant * fit.rate**n) for n, v in enumerate(norms, 1)]
    report.write_csv("equilibrium.csv", "n,norm,fit", rows)
    return report.finalize()


def run_stability(config, out_dir):
    stab = config.stability
    if stab is None:
        raise ConfigError("/stability", "no stability block in the config")
    report = Report("stability", config, out_dir)
    result = stability_sweep(stab.family, stab.realized, depth=stab.depth, tol=stab.tol, grid=stab.grid)
    _note_fixed_point(config, result.base_result, "base fixed point")
    for row in result.rows:
        if row.result is not None:
            _note_fixed_point(config, row.result, f"fixed point at delta={row.delta!r}")
    rows = [(r.delta, r.r_delta, r.variation, r.ratio, r.err_bound, r.iterations) for r in result.rows]
    report.write_csv("stability.csv", "delta,R_delta,Delta,ratio,err_bound,iterations", rows)
    report.metric("ratio_bound", result.ratio_bound)
    ok_rows = [row for row in result.rows if row.result is not None]
    report.check("all_deltas_converged", len(ok_rows) == len(result.rows),
                 "; ".join(f"delta={r.delta!r}: {r.message}" for r in result.rows if r.result is None))
    variations = [row.variation for row in ok_rows]
    if len(variations) >= 2:
        report.check(
            "variation_decreases",
            all(b < a for a, b in zip(variations, variations[1:])),
            f"Delta={variations!r}",
        )
    report.check("ratio_bound_finite", math.isfinite(result.ratio_bound))
    # operator-gap lemmas at the largest converged delta, on the sweep's own systems and solves
    if ok_rows:
        sys0, row = stab.family.base, ok_rows[0]
        sys_d, r_delta, res_d = row.system, row.r_delta, row.result
        max_norm = norm_inf(res_d.disintegration)
        f_gap = fiber_op_gap(sys0, sys_d, res_d.disintegration)
        report.metric("fiber_op_gap", f_gap)
        report.check(
            "fiber_gap_lemma", f_gap <= r_delta * max_norm + 1e-10,
            f"gap={f_gap!r} bound={r_delta * max_norm!r}",
        )
        # B_u: largest Lipschitz constant of the invariant disintegrations
        b_u = max(lip_constant(r.disintegration, sys0.theta) for r in (result.base_result, res_d))
        o_gap = operator_gap(sys0, sys_d, res_d.disintegration)
        report.metric("operator_gap", o_gap)
        report.check(
            "operator_gap_lemma", o_gap <= (2.0 + b_u) * r_delta + 1e-8,
            f"gap={o_gap!r} bound={(2.0 + b_u) * r_delta!r}",
        )
    return report.finalize()


def run_correlations(config, out_dir):
    report = Report("correlations", config, out_dir)
    sys_ = config.system
    corr = config.correlations
    res = _compute_fixed_point(config)
    mu0 = res.disintegration
    curve = correlation_curve(sys_, res, corr.psi, corr.phi, corr.nmax)
    fit = exp_fit(curve.lags, curve.values)
    rows = [(n, curve.values[n], curve.err_bounds[n], fit.constant * fit.rate**n) for n in range(corr.nmax + 1)]
    report.write_csv("correlations.csv", "lag,value,err_bound,fit", rows)
    report.metric("tau", fit.rate)
    report.metric("r_squared", fit.r_squared)
    report.check("decay_rate_below_one", fit.rate < 1.0, f"tau={fit.rate!r}")
    norms = gordin_norms(sys_, mu0, corr.phi, nmax=corr.gordin_nmax)
    report.write_csv("gordin.csv", "n,norm", enumerate(norms))
    gordin = exp_fit(np.arange(norms.size), norms)
    report.metric("gordin_tau", gordin.rate)
    report.metric("gordin_ratio_margin", 1.0 - gordin.rate)
    report.check("gordin_summable", gordin.rate < 1.0, f"tau={gordin.rate!r}")
    return report.finalize()


def run_clt(config, out_dir):
    report = Report("clt", config, out_dir)
    sys_ = config.system
    phi = Observable.fiber(sys_.matrix, PiecewiseLinearFn.identity())
    var = asymptotic_variance(sys_, phi, config.depth, config.clt.truncation)
    clt = clt_experiment(sys_, phi, length=config.clt.length, trials=config.clt.trials, seed=config.seed, variance=var)
    if config.verbose:
        solves = ", ".join(f"{name} rate {kappa!r} in {steps} iterations" for name, kappa, steps in var.solves)
        print(f"variance: sigma2 {var.sigma2!r} within {var.numeric_error!r}; solves {solves}", file=sys.stderr)
        blocks = -(-config.clt.trials // clt.block_trials)
        print(f"clt: {config.clt.trials} trials in {blocks} blocks of {clt.block_trials}, "
              f"sampling {clt.sample_s:.3f}s, summing {clt.sum_s:.3f}s", file=sys.stderr)
    report.write_csv("autocovariance.csv", "lag,value,err_bound", zip(range(var.lags.size), var.lags, var.lag_errors))
    summary = {
        "sigma2": var.sigma2,
        "numericErrorCertified": var.numeric_error,
        "ks": clt.ks_statistic,
        "pass": clt.passed,
        "seed": config.seed,
    }
    report.write_text("clt.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    report.metric("sigma2", var.sigma2)
    report.metric("ks", clt.ks_statistic)
    report.metric("threshold", clt.threshold)
    report.check("ks_within_critical", clt.passed, f"ks={clt.ks_statistic!r} thr={clt.threshold!r}")
    return report.finalize()


def run_verify(config, out_dir):
    """Battery of invariant and property checks from every module."""
    sys_ = config.system
    matrix = sys_.matrix
    # five exact transfer steps from 2-4 atoms per word at depth d reach up to 4 word_count(d + 5) atoms
    small_depth = max(min(config.depth, 3), sys_.offset_depth)
    atoms = 4 * matrix.word_count(small_depth + 5, stop=MAX_ATOMS)
    if atoms > MAX_ATOMS:
        pointer = "/system/offset_depth" if sys_.offset_depth >= min(config.depth, 3) else "/depth"
        raise ConfigError(pointer, f"verify's exact steps at depth {small_depth} may reach {atoms} atoms "
                                   f"or more, above the cap of {MAX_ATOMS}")
    report = Report("verify", config, out_dir)
    rng = np.random.default_rng(config.seed)

    def random_measure(n):
        return AtomicMeasure(rng.random(n), rng.uniform(-2, 2, n))

    worst = 0.0
    for _ in range(40):
        a, b = random_measure(rng.integers(1, 9)), random_measure(rng.integers(1, 9))
        worst = max(worst, abs(wk_distance(a, b) - wk_distance_primal(a, b)))
    report.check("dual_solver_matches_primal_flow", worst <= 2e-3, f"max gap {worst!r}")

    worst = 0.0
    for _ in range(30):
        w = rng.uniform(0.1, 1.0, rng.integers(1, 10))
        mu = AtomicMeasure(rng.random(w.size), w / w.sum())
        worst = max(worst, abs(wk_distance(mu) - 1.0))
    report.check("probability_measures_have_unit_norm", worst <= 1e-12, f"max gap {worst!r}")

    ok = True
    for _ in range(50):
        a, b, c = (random_measure(rng.integers(1, 7)) for _ in range(3))
        ok &= wk_distance(a, b) == wk_distance(b, a)
        ok &= wk_distance(a, c) <= wk_distance(a, b) + wk_distance(b, c) + 1e-10
    report.check("metric_symmetry_and_triangle", ok)

    # the fixed point's quantizer, on a one-row table over the one-symbol shift
    mu = random_measure(60)
    one_row = Disintegration(TransitionMatrix([[1]]), 1, 0, mu.positions, mu.weights)
    snapped, bound = quantize_disintegration(one_row, config.grid)
    report.check("quantize_certificate", wk_distance(mu, AtomicMeasure(snapped.pos, snapped.w)) <= bound + 1e-14)

    ok = True
    for depth in range(1, min(config.depth, 6) + 1):
        # word_count is the entry sum of A^(depth-1), so this checks the enumeration
        ok &= len(matrix.words(depth)) == matrix.word_count(depth)
        ok &= abs(cylinder_mass_vector(sys_.weights, matrix, depth).sum() - 1.0) <= 1e-12
    report.check("word_counts_and_mass_normalization", ok)

    # the weights of all branches into one target symbol sum to 1
    column_sums = sys_.weights.jacobian.sum(axis=0)
    report.check("jacobian_row_normalization", np.abs(column_sums - 1.0).max() <= 1e-12)

    f = CylinderFunction(matrix, 3, rng.standard_normal(matrix.word_count(3)))
    pf = ruelle_apply(f, sys_.weights)
    report.check(
        "ruelle_preserves_mean",
        abs(pf.mean(sys_.weights) - f.mean(sys_.weights)) <= 1e-10,
    )

    def random_dis(signed=True):
        fibers = {}
        for w in matrix.words(small_depth):
            k = int(rng.integers(2, 5))
            weights = rng.uniform(-1, 1, k) if signed else rng.uniform(0.1, 1.0, k)
            fibers[w] = AtomicMeasure(rng.random(k), weights)
        return Disintegration.from_fibers(matrix, small_depth, fibers)

    ok = True
    for _ in range(10):
        dis = random_dis()
        out = transfer_apply(sys_, dis)
        lhs = marginal_density(out).values
        rhs = ruelle_apply(marginal_density(dis), sys_.weights).values
        ok &= np.abs(lhs - rhs).max() <= 1e-10
        ok &= norm_inf(out) <= norm_inf(dis) + 1e-10
    report.check("marginal_intertwining_and_weak_contraction", ok)

    res = _compute_fixed_point(config)
    mu0 = res.disintegration
    n_inf = norm_inf(mu0)
    s_inf = norm_s_inf(mu0, sys_.theta)
    report.metric("norm_inf", n_inf)
    report.metric("certified_error", res.certified_error)
    report.check("invariant_measure_norms", abs(n_inf - 1.0) <= 1e-6 and abs(s_inf - 2.0) <= 1e-6,
                 f"norm_inf={n_inf!r} norm_s_inf={s_inf!r}")
    bound = c1_constant(sys_) / (1.0 - sys_.theta)
    lip = lip_constant(mu0, sys_.theta)
    report.check("lip_regularity_bound", lip <= bound + 1e-6, f"lip={lip!r} bound={bound!r}")

    margins = []
    for _ in range(5):
        dis = random_dis(signed=False)
        margins.extend(bound - lip for lip, bound in verify_ly(sys_, dis, nmax=5))
    report.check("lasota_yorke_margins", min(margins) >= -1e-8, f"min margin {min(margins)!r}")

    diff = AtomicMeasure([0.0, 1.0], [1.0, -1.0])
    norms = equilibrium_decay(sys_, Disintegration.product(matrix, small_depth, diff), 8)
    fit = exp_fit(np.arange(1, len(norms) + 1), norms)
    report.check("equilibrium_decay_rate", fit.rate < 1.0, f"rate={fit.rate!r}")

    a0, b0 = sys_.branches[:, 0].tolist()
    ok = True
    for _ in range(10):
        w = rng.uniform(0.1, 1.0, 4)
        a = AtomicMeasure(rng.random(4), w / w.sum())
        w2 = rng.uniform(0.1, 1.0, 4)
        b = AtomicMeasure(rng.random(4), w2 / w2.sum())
        pushed_a, pushed_b = (AtomicMeasure(a0 * m.positions + b0, m.weights) for m in (a, b))
        ok &= wk_distance(pushed_a, pushed_b) <= abs(a0) * wk_distance(a, b) + 1e-12
    report.check("pushforward_contraction_factor", ok)

    phi = Observable.fiber(matrix, PiecewiseLinearFn.identity())
    m_phi = integrate_observable(sys_, mu0, phi)
    centered = phi.shifted(-m_phi)
    c0 = correlation_curve(sys_, res, centered, centered, 0).values[0]
    masses = cylinder_mass_vector(sys_.weights, matrix, mu0.depth)
    squares = phi.weigh(mu0, lambda v: (v - m_phi) ** 2).fiber_masses()
    direct = float(np.dot(masses, squares))
    report.check("autocovariance_lag0_is_variance", abs(c0 - direct) <= 1e-10)

    level0 = gordin_norms(sys_, mu0, phi, nmax=2)[0]
    s = fiber_average(mu0, centered)
    expected = math.sqrt(float(np.dot(masses, s.values**2)))
    report.check("gordin_level0_identity", abs(level0 - expected) <= 1e-10)

    report.write_csv(
        "verify.csv",
        "check,passed,detail",
        [(v["name"], v["passed"], v["detail"].replace(",", ";")) for v in report.verdicts],
    )
    return report.finalize()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "verify": run_verify, "fixed-point": run_fixed_point, "spectral": run_spectral,
    "stability": run_stability, "correlations": run_correlations, "clt": run_clt,
}
SUBCOMMANDS = tuple(RUNNERS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewfiber",
        description="Numerical experiments for skew products with contracting fibers",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the config's /seed is checked at parse time; the override gets the same check
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be a nonnegative integer, got {args.seed}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        config = parse_config(args.config)
        parsed = time.perf_counter()
        if args.seed is not None:
            config.seed = args.seed
        config.verbose = args.verbose
        code = RUNNERS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError, CoboundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"numerical inconsistency: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"config parsed in {parsed - started:.3f}s", file=sys.stderr)
        print(f"{args.command} finished in {time.perf_counter() - parsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
