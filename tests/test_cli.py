"""Tests for config parsing, CLI exit codes, and report determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import identity
import skewfiber.cli
import skewfiber.stability
import skewfiber.transfer
from skewfiber.cli import CltConfig, ConfigError, main, parse_config
from skewfiber.demos import cantor_demo, coupled_demo
from skewfiber.limits import InconsistencyError
from skewfiber.transfer import ConvergenceError

BUNDLED = resources.files("skewfiber") / "data" / "cantor_demo.json"
BUNDLED_COUPLED = resources.files("skewfiber") / "data" / "coupled_demo.json"
CANTOR_SMALL = Path(__file__).parents[1] / "bench" / "configs" / "cantor_small.json"
# the configs whose seed-3 reports are pinned, by name
PINNED = {"cantor_small": CANTOR_SMALL, "markov3_small": CANTOR_SMALL.parent / "markov3_small.json",
          "coupled_demo": BUNDLED_COUPLED}
IDENTITY_CONFIGS = identity.configs()
# weight-family stability blocks for the cantor_small system
WEIGHT_FAMILIES = {
    "combined": IDENTITY_CONFIGS["combined"]["stability"],
    "base_weights": {"kind": "base_weights", "weight_direction": [1, -1], "depth": 2, "grid": 4096, "tol": 1e-7},
}


def small_config(**overrides):
    cfg = {
        "system": {
            "matrix": [[1, 1], [1, 1]],
            "theta": 0.5,
            "weights": {"kind": "bernoulli", "p": [0.5, 0.5]},
            "fiber_maps": [
                {"slope": 1 / 3, "offset": 0.0},
                {"slope": 1 / 3, "offset": 2 / 3},
            ],
            "offset_depth": 1,
        },
        "depth": 3,
        "grid": 256,
        "tol": 1e-5,
        "seed": 1,
        "stability": {
            "kind": "fiber_shift",
            "fiber_direction": [0.0, -1.0],
            "deltas": [0.1, 0.01],
            "delta_max": 0.2,
            "grid": 2048,
        },
        "correlations": {"nmax": 6, "gordin_nmax": 4},
        "clt": {"length": 200, "trials": 150, "truncation": 10},
    }
    cfg.update(overrides)
    return cfg


def parse_certificate(text):
    """(total, contraction, quantization) from a ``--verbose`` fixed-point line's certificate part."""
    head, parts = text.split(" = ")
    contraction, quantization = parts.split(" + ")
    assert head.startswith("certificate ") and contraction.startswith("contraction ")
    assert quantization.startswith("quantization ")
    return tuple(float(part.split()[1]) for part in (head, contraction, quantization))


def report_hashes(config, command, files, tmp_path):
    """SHA-256 of each of ``files`` that ``command`` writes on a config at seed 3."""
    out = tmp_path / command
    assert main([command, "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@pytest.fixture
def config_path(tmp_path):
    def write(cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


class TestParseConfig:
    def test_bundled_demos_are_valid(self):
        for bundle in (BUNDLED, BUNDLED_COUPLED):
            config = parse_config(str(bundle))
            assert config.system.n_symbols == 2
            assert config.digest

    @pytest.mark.parametrize("bundle,demo", [(BUNDLED, cantor_demo), (BUNDLED_COUPLED, coupled_demo)])
    def test_bundled_demos_are_the_python_demos(self, bundle, demo):
        # the JSON files and skewfiber.demos are two copies of one system
        parsed, built = parse_config(str(bundle)).system, demo()
        assert np.array_equal(parsed.matrix.entries, built.matrix.entries)
        assert np.array_equal(parsed.theta, built.theta)
        assert np.array_equal(parsed.weights.transition, built.weights.transition)
        assert np.array_equal(parsed.weights.stationary, built.weights.stationary)
        assert np.array_equal(parsed.branches, built.branches)
        assert parsed.offset_depth == built.offset_depth

    @pytest.mark.parametrize("path", sorted(
        [str(p) for p in (resources.files("skewfiber") / "data").iterdir() if p.name.endswith(".json")]
        + [str(p) for p in CANTOR_SMALL.parent.glob("*.json")]
    ), ids=lambda path: Path(path).name)
    def test_every_shipped_config_parses(self, path):
        assert parse_config(path).digest

    def test_weights_must_sum_to_one(self, config_path):
        cfg = small_config()
        cfg["system"]["weights"]["p"] = [0.6, 0.6]
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(config_path(cfg))

    def test_unknown_key_named(self, config_path):
        cfg = small_config()
        cfg["alpha"] = 0.5
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(config_path(cfg))

    def test_unknown_nested_key_has_pointer(self, config_path):
        cfg = small_config()
        cfg["system"]["spam"] = 1
        with pytest.raises(ConfigError, match="/system/spam"):
            parse_config(config_path(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config("/nonexistent/config.json")

    def test_truncated_json_fails_at_the_root(self, config_path):
        path = Path(config_path(small_config()))
        path.write_text(path.read_text()[:40])
        with pytest.raises(ConfigError, match="not valid JSON") as caught:
            parse_config(path)
        assert caught.value.pointer == "/"

    def test_expanding_map_rejected_at_parse(self, config_path):
        cfg = small_config()
        cfg["system"]["fiber_maps"][0]["slope"] = 1.2
        with pytest.raises(ConfigError, match="slope"):
            parse_config(config_path(cfg))

    def test_bad_observable_word(self, config_path):
        cfg = small_config()
        cfg["correlations"]["psi"] = {"type": "base_only", "depth": 1, "values": {"x": 1.0}}
        with pytest.raises(ConfigError, match="word"):
            parse_config(config_path(cfg))

    def test_nan_delta_rejected(self, config_path):
        cfg = small_config()
        cfg["stability"]["deltas"] = [float("nan"), 0.01]
        with pytest.raises(ConfigError, match="^/stability/deltas: "):
            parse_config(config_path(cfg))

    @pytest.mark.parametrize(
        "weights,pointer",
        [
            ({"kind": "bernoulli", "p": [float("nan"), float("nan")]}, "/system/weights/p"),
            (
                {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": [float("nan")] * 2},
                "/system/weights/stationary",
            ),
        ],
        ids=["p", "stationary"],
    )
    def test_nan_weights_rejected(self, weights, pointer, config_path):
        cfg = small_config()
        cfg["system"]["weights"] = weights
        with pytest.raises(ConfigError, match=f"^{pointer}: "):
            parse_config(config_path(cfg))

    def test_absent_keys_take_their_defaults(self, config_path):
        cfg = small_config(correlations={}, clt={})
        del cfg["stability"]["deltas"]
        config = parse_config(config_path(cfg))
        stab = config.stability
        assert stab.realized[0] == [0.1, 0.01, 0.001, 0.0001]
        assert stab.family.delta_max == 0.2
        # depth and tol fall back to the top level, the block's grid wins
        assert (stab.depth, stab.grid, stab.tol) == (3, 2048, 1e-5)
        corr = config.correlations
        assert (corr.nmax, corr.gordin_nmax, corr.psi.depth, corr.phi.depth) == (12, 8, 1, 1)
        assert config.clt == CltConfig(length=2000, trials=5000, truncation=30)

    def test_grid_cap_is_inclusive(self, config_path):
        cfg = small_config(grid=2**20)
        cfg["stability"]["grid"] = 2**20
        config = parse_config(config_path(cfg))
        assert config.grid == config.stability.grid == 2**20

    def test_observable_deeper_than_working_depth(self, config_path, tmp_path, capsys):
        cfg = small_config()
        words = ("".join(w) for w in product("01", repeat=4))
        cfg["correlations"]["psi"] = {"type": "base_only", "depth": 4, "values": {w: 1.0 for w in words}}
        code = main(["correlations", "--config", config_path(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "config error: /correlations/psi/depth:" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_seed_override(self, config_path, tmp_path):
        path = config_path(small_config())
        config = parse_config(path)
        assert config.seed == 1


# (block, key, malformed value, JSON pointer of the offender)
MALFORMED = [
    ("clt", "length", "abc", "/clt/length"),
    ("clt", "trials", 500.5, "/clt/trials"),
    ("clt", "truncation", True, "/clt/truncation"),
    ("stability", "depth", "x", "/stability/depth"),
    ("stability", "tol", 0, "/stability/tol"),
    ("correlations", "nmax", -1, "/correlations/nmax"),
    ("correlations", "gordin_nmax", "a", "/correlations/gordin_nmax"),
    # a count that sizes an array is capped before any compute: 7.28 TiB of lags or sums at 10^12
    ("correlations", "nmax", 10**12, "/correlations/nmax"),
    ("correlations", "gordin_nmax", 4097, "/correlations/gordin_nmax"),
    ("clt", "length", 10**12, "/clt/length"),
    ("clt", "length", 2**20 - 39, "/clt/length"),
    ("clt", "trials", 10**12, "/clt/trials"),
    ("clt", "trials", 2**20 + 1, "/clt/trials"),
    ("clt", "truncation", 10**9, "/clt/truncation"),
    (
        "correlations", "phi",
        {"type": "components", "depth": 1, "components": {
            "0": {"values": [0.0, 1.0]},
            "1": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]},
        }},
        "/correlations/phi/components/0",
    ),
]


# (stability key, malformed value, JSON pointer of the offender)
MALFORMED_STABILITY = [
    ("kind", "bogus", "/stability/kind"),
    ("fiber_direction", [0.0], "/stability"),
    ("fiber_direction", "ab", "/stability/fiber_direction"),
    ("deltas", ["x", 0.01], "/stability/deltas"),
    ("deltas", [], "/stability/deltas"),
    ("deltas", [0.01, 0.1], "/stability/deltas"),
    ("deltas", [0.5], "/stability/deltas"),  # beyond delta_max
    # a fiber_shift family reads no weight direction
    ("weight_direction", [1.0, -1.0], "/stability/weight_direction"),
    # an integer count must fit the float range, as a float field must
    ("grid", 10**400, "/stability/grid"),
]


# (path of one field in small_config, malformed value, JSON pointer of the offender)
MALFORMED_FIELDS = [
    (("stability", "delta_max"), "x", "/stability/delta_max"),
    (("stability", "deltas"), 0.1, "/stability/deltas"),
    (("system", "offset_depth"), "2", "/system/offset_depth"),
    (("system", "offset_depth"), 1.5, "/system/offset_depth"),
    (("system", "fiber_maps"), 5, "/system/fiber_maps"),
    (("system", "weights"), 5, "/system/weights"),
    (("correlations", "psi"), 5, "/correlations/psi"),
    (("correlations", "psi", "depth"), 1.5, "/correlations/psi/depth"),
    (("correlations", "psi", "depth"), True, "/correlations/psi/depth"),
    (("depth",), True, "/depth"),
    (("depth",), 3.7, "/depth"),
    # a working depth may give at most MAX_WORDS words (2^13 and 2^30 here)
    (("depth",), 13, "/depth"),
    (("depth",), 30, "/depth"),
    (("depth",), 10**9, "/depth"),
    (("stability", "depth"), 13, "/stability/depth"),
    (("grid",), 256.7, "/grid"),
    (("grid",), 10**400, "/grid"),
    (("stability", "grid"), 10**400, "/stability/grid"),
    # a grid may have at most 2^20 steps
    (("grid",), 2**20 + 1, "/grid"),
    (("stability", "grid"), 2**20 + 1, "/stability/grid"),
    (("seed",), 10**400, "/seed"),
    (("tol",), True, "/tol"),
    (("seed",), 1.5, "/seed"),
    (("seed",), True, "/seed"),
    (("system", "theta"), [1], "/system/theta"),
    (("system", "fiber_maps", 0, "slope"), [1], "/system/fiber_maps/0/slope"),
    (("system", "fiber_maps", 0, "slope"), "x", "/system/fiber_maps/0/slope"),
    (("system", "fiber_maps", 0, "offset"), None, "/system/fiber_maps/0/offset"),
    (("system", "fiber_maps", 0, "offset_table"), 5, "/system/fiber_maps/0/offset_table"),
    (("system", "fiber_maps", 0, "offset_table"), {"0": "a"}, "/system/fiber_maps/0/offset_table/0"),
    (("system", "weights", "transition"), [[0.5, 0.5], [0.5, 0.5]], "/system/weights/transition"),
    (("correlations", "psi", "values"), 5, "/correlations/psi/values"),
    (("correlations", "psi"), {"type": "components", "depth": 1, "components": 5}, "/correlations/psi/components"),
    (
        ("correlations", "psi"),
        {"type": "fiber", "breakpoints": [0.0, "x"], "values": [0.0, 1.0]},
        "/correlations/psi/breakpoints",
    ),
    (
        ("correlations", "psi"),
        {"type": "fiber", "breakpoints": [0.0, 1.0], "values": [None, 1.0]},
        "/correlations/psi/values",
    ),
    (
        ("correlations", "psi"),
        {"type": "fiber", "breakpoints": [0.0, 1.0], "values": [float("nan"), 1.0]},
        "/correlations/psi/values",
    ),
    (
        ("correlations", "psi"),
        {"type": "fiber", "breakpoints": {"0": 0.0}, "values": [0.0, 1.0]},
        "/correlations/psi/breakpoints",
    ),
    (("correlations", "psi", "values", "0"), float("nan"), "/correlations/psi/values/0"),
    (("system", "theta"), float("inf"), "/system/theta"),
    # arrays hold JSON numbers: no booleans, numeric strings or NaN
    (("correlations", "phi"), {"type": "fiber", "breakpoints": [False, True], "values": [0.0, 1.0]},
     "/correlations/phi/breakpoints"),
    (("correlations", "phi"), {"type": "fiber", "breakpoints": [0.0, 1.0], "values": ["0", "1"]},
     "/correlations/phi/values"),
    (("stability", "deltas"), ["0.1", "0.01"], "/stability/deltas"),
    (("system", "weights", "p"), [0.5, "0.5"], "/system/weights/p"),
    (("system", "weights", "p"), [float("nan"), float("nan")], "/system/weights/p"),
    (("system", "weights"), {"kind": "markov", "transition": [["0.5", 0.5], [0.5, 0.5]]},
     "/system/weights/transition/0"),
    (("system", "weights"), {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": [0.5, "0.5"]},
     "/system/weights/stationary"),
    (("system", "weights"), {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                             "stationary": [float("nan"), float("nan")]},
     "/system/weights/stationary"),
    # matrix entries are the integers 0 and 1
    (("system", "matrix"), [[1, 1.7], [1, 1]], "/system/matrix"),
    (("system", "matrix"), [["1", 1], [1, 1]], "/system/matrix"),
    (("system", "matrix"), [[True, 1], [1, 1]], "/system/matrix"),
    (("system", "matrix"), [[1, 0.5], [1, 1]], "/system/matrix"),
    # a periodic matrix and a ragged one
    (("system", "matrix"), [[0, 1], [1, 0]], "/system/matrix"),
    (("system", "matrix"), [[1, 1], [1]], "/system/matrix"),
    # a relation between the two fields is reported at the observable's pointer
    (("correlations", "psi"), {"type": "fiber", "breakpoints": [0.5, 1.0], "values": [0.0, 1.0]}, "/correlations/psi"),
    (("correlations", "phi"), {"type": "fiber", "breakpoints": [0, 0.6, 0.4, 1], "values": [0, 1, 0, 1]},
     "/correlations/phi"),
    (
        ("correlations", "psi"),
        {"type": "components", "depth": 1, "components": {
            "0": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]},
            "1": {"breakpoints": [0.0, 1.0], "values": ["x", 1.0]},
        }},
        "/correlations/psi/components/1/values",
    ),
    (
        ("correlations", "psi"),
        {"type": "components", "depth": 1, "components": {
            "0": {"breakpoints": [[0.0], [1.0]], "values": [0.0, 1.0]},
            "1": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]},
        }},
        "/correlations/psi/components/0/breakpoints",
    ),
    (
        ("correlations", "psi"),
        {"type": "components", "depth": 1, "components": {
            "0": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]},
            "1": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0]},
        }},
        "/correlations/psi/components/1",
    ),
    (("system", "weights"), {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": [0.3, 0.3, 0.4]},
     "/system/weights/stationary"),
    # a word key must name an admissible word of its table's depth, once; a bad one fails at its own pointer
    (("correlations", "psi", "values", "7"), 1.0, "/correlations/psi/values/7"),
    (("correlations", "psi", "values", "01"), 1.0, "/correlations/psi/values/01"),
    (("correlations", "psi", "values", "x"), 1.0, "/correlations/psi/values/x"),
    (
        ("correlations", "psi"),
        {"type": "base_only", "depth": 2, "values": {"00": 1.0, "01": 1.0, "10": 0.0, "11": 0.0, "0,1": 1.0}},
        "/correlations/psi/values/0,1",
    ),
    (
        ("correlations", "psi"),
        {"type": "components", "depth": 1, "components": {"0": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}}},
        "/correlations/psi/components",
    ),
    (
        ("correlations", "psi"),
        {"type": "components", "depth": 1, "components": {
            w: {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]} for w in ("0", "1", "2")
        }},
        "/correlations/psi/components/2",
    ),
    (("system", "fiber_maps", 0, "offset_table"), {"00": 0.0}, "/system/fiber_maps/0/offset_table/00"),
    (("system", "fiber_maps", 0, "offset_table"), {"1": 0.0}, "/system/fiber_maps/0/offset_table/1"),
    (("system", "fiber_maps", 0, "offset_table"), {"x": 0.0}, "/system/fiber_maps/0/offset_table/x"),
    # an observable accepts only the keys its type reads
    (
        ("correlations", "psi"),
        {"type": "fiber", "depth": 3, "components": {"zz": 1}, "breakpoints": [0, 1], "values": [0, 1]},
        "/correlations/psi/depth",
    ),
    (
        ("correlations", "psi"),
        {"type": "base_only", "depth": 1, "values": {"0": 1.0, "1": 0.0}, "breakpoints": "junk"},
        "/correlations/psi/breakpoints",
    ),
    # a weights check fails at the field at fault
    (("system", "weights"), {"kind": "markov", "transition": [[0.5, 0.6], [0.5, 0.5]]}, "/system/weights/transition"),
    (("system", "weights"), {"kind": "markov", "transition": [[1.5, -0.5], [0.5, 0.5]]}, "/system/weights/transition"),
    (("system", "weights"), {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": [0.2, 0.8]},
     "/system/weights/stationary"),
    (("system", "weights", "p"), [1.5, -0.5], "/system/weights/p"),
    (("system", "weights", "p"), [0.5, 0.6], "/system/weights/p"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "path,value,pointer", MALFORMED_FIELDS, ids=[f"{'.'.join(map(str, m[0]))}={m[1]!r}" for m in MALFORMED_FIELDS]
    )
    def test_malformed_field_is_config_error(self, path, value, pointer, config_path, tmp_path, capsys):
        cfg = small_config()
        cfg["correlations"]["psi"] = {"type": "base_only", "depth": 1, "values": {"0": 1.0, "1": 0.0}}
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        code = main(["fixed-point", "--config", config_path(cfg), "--out", str(tmp_path / "m")])
        assert code == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key,value,pointer", MALFORMED, ids=[f"{m[0]}.{m[1]}" for m in MALFORMED])
    def test_malformed_experiment_block_is_config_error(
        self, block, key, value, pointer, config_path, tmp_path, capsys
    ):
        cfg = small_config()
        cfg[block][key] = value
        code = main([block, "--config", config_path(cfg), "--out", str(tmp_path / "m")])
        assert code == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,pointer", MALFORMED_STABILITY, ids=[f"{m[0]}={m[1]!r}" for m in MALFORMED_STABILITY]
    )
    def test_malformed_stability_field_is_config_error(
        self, key, value, pointer, config_path, tmp_path, capsys
    ):
        cfg = small_config()
        cfg["stability"][key] = value
        code = main(["stability", "--config", config_path(cfg), "--out", str(tmp_path / "m")])
        assert code == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err

    def test_integer_beyond_float_range_is_config_error(self, config_path, tmp_path, capsys):
        cfg = small_config()
        cfg["system"]["theta"] = 10**400
        code = main(["fixed-point", "--config", config_path(cfg), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "config error: /system/theta:" in capsys.readouterr().err

    def test_verify_passes(self, config_path, tmp_path):
        code = main(["verify", "--config", config_path(small_config()), "--out", str(tmp_path / "v")])
        assert code == 0

    def test_verify_runs_every_check_at_a_deep_offset(self, config_path, tmp_path):
        # its random tables and product disintegration sit at depth 3 unless the
        # offset depth, which transfer_apply reads, asks for more
        cfg = json.loads(CANTOR_SMALL.read_text())
        checks = []
        for offset_depth in (1, 4):
            cfg["system"]["offset_depth"] = offset_depth
            cfg["stability"]["depth"] = max(cfg["stability"]["depth"], offset_depth)
            out = tmp_path / f"v{offset_depth}"
            assert main(["verify", "--config", config_path(cfg), "--out", str(out)]) == 0
            rows = [line.split(",") for line in (out / "verify.csv").read_text().splitlines()[1:]]
            assert all(row[1] == "True" for row in rows)
            checks.append([row[0] for row in rows])
        assert cfg["depth"] == 4 and checks[1] == checks[0] and len(checks[0]) == 15

    def test_config_error_is_usage_error(self, config_path, tmp_path):
        cfg = small_config()
        cfg["system"]["weights"]["p"] = [0.6, 0.6]
        code = main(["verify", "--config", config_path(cfg), "--out", str(tmp_path / "v")])
        assert code == 2

    def test_stability_zero_delta_rejected(self, config_path, tmp_path):
        cfg = small_config()
        cfg["stability"]["deltas"] = [0.0]
        code = main(["stability", "--config", config_path(cfg), "--out", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("family", ["fiber_shift", "base_weights"])
    def test_zero_direction_is_rejected_before_any_solve(self, family, config_path, tmp_path, capsys, monkeypatch):
        # R(delta) = 0 at every delta: the sweep's ratio would divide by zero
        cfg = json.loads(CANTOR_SMALL.read_text())
        if family == "fiber_shift":
            cfg["stability"]["fiber_direction"] = [0.0, 0.0]
        else:
            cfg["stability"] = dict(WEIGHT_FAMILIES["base_weights"], weight_direction=[0.0, 0.0])
        solves = []
        monkeypatch.setattr(skewfiber.stability, "fixed_point", lambda *args, **kwargs: solves.append(args))
        out = tmp_path / "s"
        assert main(["stability", "--config", config_path(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: /stability/deltas: delta 0.1 " in err
        assert "Traceback" not in err
        assert solves == [] and not out.exists()

    def test_clt_insufficient_trials_rejected(self, config_path, tmp_path):
        cfg = small_config()
        cfg["clt"]["trials"] = 10
        code = main(["clt", "--config", config_path(cfg), "--out", str(tmp_path / "c")])
        assert code == 2

    def test_clt_seeds_key_rejected(self, config_path, tmp_path, capsys):
        cfg = small_config()
        cfg["clt"]["seeds"] = [1, 2, 3]
        code = main(["clt", "--config", config_path(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "/clt/seeds: unknown key" in capsys.readouterr().err

    def test_clt_empty_orbit_rejected(self, config_path, tmp_path):
        cfg = small_config()
        cfg["clt"]["length"] = 0
        code = main(["clt", "--config", config_path(cfg), "--out", str(tmp_path / "c")])
        assert code == 2

    def test_stability_without_its_block_is_config_error(self, config_path, tmp_path, capsys):
        cfg = small_config()
        del cfg["stability"]
        assert main(["stability", "--config", config_path(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "config error: /stability: no stability block" in capsys.readouterr().err

    @pytest.mark.parametrize("offset_depth,depth,pointer", [(1, 2, "/depth"), (2, 2, "/system/offset_depth")])
    def test_verify_refuses_exact_steps_that_cannot_fit(
        self, offset_depth, depth, pointer, config_path, tmp_path, capsys
    ):
        # the full 16-symbol shift: five exact steps from depth 2 reach 4 * 16^7 atoms
        n = 16
        cfg = small_config(depth=depth)
        cfg["system"].update(matrix=[[1] * n] * n, weights={"kind": "bernoulli", "p": [1 / n] * n},
                             offset_depth=offset_depth,
                             fiber_maps=[{"slope": 0.3, "offset": 0.7 * i / (n - 1)} for i in range(n)])
        del cfg["stability"], cfg["correlations"]
        out = tmp_path / "v"
        started = time.perf_counter()
        assert main(["verify", "--config", config_path(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: verify's exact steps at depth 2 ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", sorted(skewfiber.cli.RUNNERS))
    @pytest.mark.parametrize("config,out,message,reason", [
        ("a_directory", "out", "config error: /: cannot read config file ", "Is a directory"),
        ("config.json", "taken", "error: cannot write reports to ", "File exists"),
        ("config.json", "taken/sub", "error: cannot write reports to ", "Not a directory"),
    ], ids=["config-is-a-directory", "out-is-a-file", "out-under-a-file"])
    def test_unusable_path_is_usage_error_before_any_compute(
        self, command, config, out, message, reason, config_path, tmp_path, capsys, monkeypatch
    ):
        config_path(small_config())
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "taken").write_text("kept\n")
        solves = []
        for module in (skewfiber.cli, skewfiber.stability):
            monkeypatch.setattr(module, "fixed_point", lambda *args, **kwargs: solves.append(args))
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(tmp_path / config), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith(f": {reason}\n") and err.count("\n") == 1
        assert solves == [] and sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_no_convergence_is_an_error_without_traceback(self, config_path, tmp_path, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise ConvergenceError("no fixed point within 130 iterations (last change 1)")

        monkeypatch.setattr(skewfiber.cli, "fixed_point", diverging)
        assert main(["fixed-point", "--config", config_path(small_config()), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err == "error: no fixed point within 130 iterations (last change 1)\n"

    @pytest.mark.parametrize("command", ["fixed-point", "stability"])
    def test_gather_past_the_atom_cap_is_an_error_without_traceback(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(skewfiber.transfer, "MAX_ATOMS", 64)
        assert main([command, "--config", str(CANTOR_SMALL), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a transfer step at depth ") and err.endswith("; lower /grid or /depth\n")
        assert err.count("\n") == 1

    def test_a_delta_past_the_atom_cap_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the base solve fits, then each delta's solve meets a cap of one atom: exit 2, not a failed row
        solve = skewfiber.stability.fixed_point

        def base_then_cap(*args, **kwargs):
            res = solve(*args, **kwargs)
            monkeypatch.setattr(skewfiber.transfer, "MAX_ATOMS", 1)
            return res

        monkeypatch.setattr(skewfiber.stability, "fixed_point", base_then_cap)
        assert main(["stability", "--config", str(CANTOR_SMALL), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a transfer step at depth ") and err.count("\n") == 1

    def test_a_delta_without_a_fixed_point_says_why(self, tmp_path, capsys, monkeypatch):
        # the first delta's solve fails: the sweep goes on, and the failed check names that delta and the reason
        solve = skewfiber.stability.fixed_point

        def fail_first_delta(sys_d, **kwargs):
            if sys_d.fiber_maps[1].offset == pytest.approx(2 / 3 - 0.1):
                raise ConvergenceError("no fixed point within 130 iterations (last change 1)")
            return solve(sys_d, **kwargs)

        monkeypatch.setattr(skewfiber.stability, "fixed_point", fail_first_delta)
        out = tmp_path / "s"
        assert main(["stability", "--config", str(CANTOR_SMALL), "--out", str(out)]) == 1
        detail = "delta=0.1: no fixed point within 130 iterations (last change 1)"
        assert f"[FAIL] stability: all_deltas_converged ({detail})\n" in capsys.readouterr().out
        verdicts = {v["name"]: v for v in json.loads((out / "summary.json").read_text())["verdicts"]}
        assert verdicts["all_deltas_converged"] == {"name": "all_deltas_converged", "passed": False, "detail": detail}

    def test_inconsistent_variance_is_bound_failure(self, config_path, tmp_path, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise InconsistencyError("sigma^2 below minus its float bound")

        monkeypatch.setattr("skewfiber.cli.asymptotic_variance", inconsistent)
        code = main(["clt", "--config", config_path(small_config()), "--out", str(tmp_path / "c")])
        assert code == 1


    @pytest.mark.parametrize("command", ["fixed-point", "clt"])
    def test_negative_seed_override_exits_before_compute(self, command, config_path, tmp_path, capsys):
        out = tmp_path / "neg"
        started = time.perf_counter()
        assert main([command, "--config", config_path(small_config()), "--out", str(out), "--seed", "-1"]) == 2
        assert time.perf_counter() - started < 1.0
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestArtifacts:
    def test_spectral_does_not_depend_on_seed(self, config_path, tmp_path):
        cfg = small_config()
        cfg["system"]["weights"] = {"kind": "markov", "transition": [[0.9, 0.1], [0.5, 0.5]]}
        path = config_path(cfg)
        outs = [tmp_path / "s0", tmp_path / "s5"]
        for seed, out in zip(("0", "5"), outs):
            assert main(["spectral", "--config", path, "--out", str(out), "--seed", seed]) == 0
        a, b = (json.loads((out / "summary.json").read_text()) for out in outs)
        assert a["metrics"] == b["metrics"]
        # oracle: the chain's eigenvalues are 1 and 0.4
        assert a["metrics"]["base_rate"] == pytest.approx(0.4, abs=1e-12)
        assert (outs[0] / "equilibrium.csv").read_bytes() == (outs[1] / "equilibrium.csv").read_bytes()

    def test_stability_csv_columns(self, config_path, tmp_path):
        out = tmp_path / "s"
        code = main(["stability", "--config", config_path(small_config()), "--out", str(out)])
        assert code == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0] == "delta,R_delta,Delta,ratio,err_bound,iterations"
        # one row per delta
        assert len(lines) == 1 + len(small_config()["stability"]["deltas"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert "stability.csv" in summary["artifacts"]

    def test_verbose_times_go_to_stderr_only(self, config_path, tmp_path, capsys):
        path = config_path(small_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fixed-point", "--config", path, "--out", str(out_a)]) == 0
        capsys.readouterr()
        assert main(["fixed-point", "--config", path, "--out", str(out_b), "--verbose"]) == 0
        err = capsys.readouterr().err.splitlines()
        sharing, certificate = err[0].split("; ")
        assert sharing == "fixed point: 8 words, 1 distinct fibers, 64 atoms, 10 iterations"
        assert [line.rsplit(" ", 1)[0] for line in err[1:]] == ["config parsed in", "fixed-point finished in"]
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        # the certificate (alpha Delta + q) / (1 - alpha) as its contraction and quantization parts
        total, contraction, quantization = parse_certificate(certificate)
        assert total == json.loads((out_a / "summary.json").read_text())["metrics"]["certified_error"]
        assert 0.0 < contraction < quantization and total == pytest.approx(contraction + quantization, rel=1e-15)

    def test_verbose_clt_names_blocks_and_times(self, config_path, tmp_path, capsys, monkeypatch):
        from skewfiber import skew

        path = config_path(small_config())
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["clt", "--config", path, "--out", str(quiet)]) == 0
        quiet_out = capsys.readouterr()
        assert quiet_out.err == ""
        # 150 trials of 40 + 200 cells stream in blocks of 64, 64 and 22
        monkeypatch.setattr(skew, "BLOCK_CELLS", 64 * 240)
        assert main(["clt", "--config", path, "--out", str(loud), "--verbose"]) == 0
        loud_out = capsys.readouterr()
        assert loud_out.out == quiet_out.out
        for name in quiet.iterdir():
            assert (loud / name.name).read_bytes() == name.read_bytes()
        variance, line = loud_out.err.splitlines()[:2]
        # sigma^2 and its float bound, then each contraction solve's rate bound and iteration count
        head, solves = variance.split("; solves ")
        assert head.startswith("variance: sigma2 ")
        sigma2, bound = (float(part) for part in head.split()[2::2])
        assert head.split()[3] == "within" and 0.0 < bound <= 1e-12
        assert sigma2 == json.loads((loud / "clt.json").read_text())["sigma2"]
        assert abs(sigma2 - 0.25) <= bound
        for part, name in zip(solves.split(", "), ("M1", "M2", "V")):
            label, rate_word, kappa, in_word, steps, unit = part.split()
            assert (label, rate_word, in_word, unit) == (name, "rate", "in", "iterations")
            assert 0.0 < float(kappa) < 1.0 and int(steps) > 1
        head, sampling, summing = line.split(", ")
        assert head == "clt: 150 trials in 3 blocks of 64"
        for part, label in ((sampling, "sampling"), (summing, "summing")):
            name, seconds = part.split()
            assert name == label and seconds.endswith("s") and float(seconds[:-1]) >= 0.0

    @pytest.mark.parametrize("command,solves", [("correlations", 1), ("stability", 3)])
    def test_verbose_names_the_sharing_of_each_fixed_point(self, command, solves, config_path, tmp_path, capsys):
        cfg = small_config()
        cfg["system"]["weights"] = {"kind": "markov", "transition": [[0.6, 0.4], [0.3, 0.7]]}
        cfg["system"]["offset_depth"] = 2
        cfg["system"]["fiber_maps"][1]["offset_table"] = {"10": -0.1}
        path = config_path(cfg)
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main([command, "--config", path, "--out", str(quiet)]) == 0
        quiet_out = capsys.readouterr()
        assert quiet_out.err == ""
        assert main([command, "--config", path, "--out", str(loud), "--verbose"]) == 0
        loud_out = capsys.readouterr()
        assert loud_out.out == quiet_out.out
        assert sorted(p.name for p in loud.iterdir()) == sorted(p.name for p in quiet.iterdir())
        for name in quiet.iterdir():
            assert (loud / name.name).read_bytes() == name.read_bytes()
        lines = loud_out.err.splitlines()[:-2]
        assert len(lines) == solves
        for line in lines:
            sharing, certificate = line.split(": ", 1)[1].split("; ")
            # eight depth-3 words; with offset depth 2 a fiber depends on the first symbol
            words, fibers, atoms, iterations = (int(part.split()[0]) for part in sharing.split(", "))
            assert (words, fibers) == (8, 2) and atoms > 0 and iterations > 0
            total, contraction, quantization = parse_certificate(certificate)
            assert min(contraction, quantization) > 0.0
            assert total == pytest.approx(contraction + quantization, rel=1e-15)

    def test_oversized_depth_names_count_and_cap(self, config_path, tmp_path, capsys):
        for depth, size in ((13, "8192"), (10**9, "at least 33554432")):
            cfg = small_config(depth=depth)
            cfg.pop("stability")
            started = time.perf_counter()
            assert main(["fixed-point", "--config", config_path(cfg), "--out", str(tmp_path / "d")]) == 2
            assert time.perf_counter() - started < 1.0
            err = capsys.readouterr().err
            assert f"config error: /depth: depth {depth} gives {size} admissible words, above the cap of 4096" in err
            assert not (tmp_path / "d").exists()
        # the one-symbol shift has a single word at every depth
        cfg = small_config(depth=10**9)
        cfg.pop("stability")
        cfg["system"].update(matrix=[[1]], weights={"kind": "bernoulli", "p": [1.0]},
                             fiber_maps=[{"slope": 0.5, "offset": 0.0}])
        cfg["correlations"] = {}
        assert main(["fixed-point", "--config", config_path(cfg), "--out", str(tmp_path / "d")]) == 2
        assert "config error: /depth: depth 1000000000 is above the cap of 4096" in capsys.readouterr().err

    def test_sparse_alphabet_runs_at_deep_offsets(self, config_path, tmp_path):
        # 64 symbols and 68 words at depth 5: the branch and observable tables hold one entry per word
        system = IDENTITY_CONFIGS["cycle64"]["system"]
        words = parse_config(config_path({"system": system, "depth": 5})).system.matrix.words(5)
        assert len(words) == 68
        psi = {"type": "base_only", "depth": 5, "values": {",".join(map(str, w)): float(w[0] == 0) for w in words}}
        cfg = {"system": system, "depth": 5, "correlations": {"psi": psi}}
        for sub in ("fixed-point", "correlations"):
            assert main([sub, "--config", config_path(cfg), "--out", str(tmp_path / sub)]) == 0
        # an offset depth is capped by its word count, as a working depth is
        cfg = small_config(depth=4)
        cfg["system"]["offset_depth"] = 30
        with pytest.raises(ConfigError, match="/system/offset_depth: depth 30 gives at least"):
            parse_config(config_path(cfg))

    def test_sparse_alphabet_peak_memory(self, config_path, tmp_path):
        # with a dense table of 64^4 window codes per branch map, fixed-point peaked at 292 MB.  A
        # process's ru_maxrss starts at the peak of the one it was forked from, so the CLI runs
        # under a bare interpreter, not forked from this test process
        script = (
            "import os, subprocess, sys\n"
            "cli = [sys.executable, '-m', 'skewfiber.cli', 'fixed-point', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "_, status, usage = os.wait4(subprocess.Popen(cli).pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(skewfiber.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfg = config_path({"system": identity.cycle_chord_system(64, 4), "depth": 4})
        done = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, check=True)
        code, peak_kib = map(int, done.stdout.splitlines()[-1].split())
        assert code == 0
        assert peak_kib < 60 * 1024

    def test_fixed_point_writes_disintegration(self, config_path, tmp_path):
        out = tmp_path / "f"
        code = main(["fixed-point", "--config", config_path(small_config()), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "disintegration.json").read_text())
        assert list(data) == ["depth", "matrix", "words", "atoms", "weights", "errorBound"]
        assert data["errorBound"] == json.loads((out / "summary.json").read_text())["metrics"]["certified_error"]

    def test_clt_summary_schema(self, config_path, tmp_path):
        out = tmp_path / "c"
        main(["clt", "--config", config_path(small_config()), "--out", str(out)])
        data = json.loads((out / "clt.json").read_text())
        assert set(data) == {"sigma2", "numericErrorCertified", "ks", "pass", "seed"}

    def test_clt_runs_no_fixed_point_transfer_step_or_fit(self, config_path, tmp_path, monkeypatch):
        from skewfiber import fitting, transfer

        def refuse(*args, **kwargs):
            raise AssertionError("clt reads sigma^2 from the moment closure")

        banned = {id(f) for f in (transfer.fixed_point, transfer.transfer_apply,
                                  transfer.quantize_disintegration, fitting.exp_fit)}
        # every binding in the package, as callers import the functions by name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "skewfiber":
                for attr, value in list(vars(module).items()):
                    if id(value) in banned:
                        monkeypatch.setattr(module, attr, refuse)
        out = tmp_path / "c"
        assert main(["clt", "--config", config_path(small_config()), "--out", str(out)]) == 0
        lines = (out / "autocovariance.csv").read_text().splitlines()
        assert lines[0] == "lag,value,err_bound" and len(lines) == 1 + 11
        # the exact lags of the middle-third height, 3^-n / 8, each within its float bound
        for n, line in enumerate(lines[1:]):
            lag, value, err = line.split(",")
            assert int(lag) == n and abs(float(value) - 3.0**-n / 8) <= float(err) <= 1e-12

    def test_verify_reports_are_byte_identical(self, config_path, tmp_path):
        path = config_path(small_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(out_a)]) == 0
        assert main(["verify", "--config", path, "--out", str(out_b)]) == 0
        for name in ("summary.json", "verify.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("name,expected", [
        ("cantor_small", b'{\n  "ks": 0.019078067522815156,\n  "numericErrorCertified": 4.3475639754931554e-14,\n'
                         b'  "pass": true,\n  "seed": 3,\n  "sigma2": 0.24999999999999983\n}\n'),
        ("markov3_small", b'{\n  "ks": 0.01498382353248251,\n  "numericErrorCertified": 6.834449912250816e-14,\n'
                          b'  "pass": true,\n  "seed": 3,\n  "sigma2": 0.3034506723195594\n}\n'),
    ])
    def test_clt_json_is_pinned_at_seed_3(self, name, expected, tmp_path):
        # ks moves with any change to the orbit stream's draws or to the order of the Birkhoff sums
        out = tmp_path / "clt"
        assert main(["clt", "--config", str(CANTOR_SMALL.parent / f"{name}.json"), "--seed", "3",
                     "--out", str(out)]) == 0
        assert (out / "clt.json").read_bytes() == expected

    @pytest.mark.parametrize("name,command,expected", [
        ("cantor_small", "correlations", {
            "correlations.csv": "23dfb118b610963ea9838e4470025232c9636dd9d3441aa8abf4b475b932a507",
            "gordin.csv": "470003dcdbfc8b9170415ba7207a0d9f618ead36addefe8de1627fd97ed20538",
            "summary.json": "3326aa93b4582e8cebf8cd318aaa72f397d99c2be907f2262c2453f5406f73a6"}),
        ("cantor_small", "spectral", {
            "equilibrium.csv": "9d2ec80f4e5f7e733d9c0ae5ae894ea7259cfdea80a4bfed02656bc253ed9897",
            "summary.json": "d62e978d38ce84f71565015008af9ae2b964ce257908ecf5fc08c63244530498"}),
        ("markov3_small", "correlations", {
            "correlations.csv": "8bd46051cd25aa99dfc53fbd87d8eff07cc706922eb8c5004e85b8866db3471d",
            "gordin.csv": "0a2d7cfaa909e63c2d28f350bc777f8baedaa3668a5b1e4d80f522def63786e6",
            "summary.json": "aac9a7053e7e3a595b773e8fa0441f1fe27d77822647526d7b27b1f25ab90d69"}),
        ("markov3_small", "spectral", {
            "equilibrium.csv": "76d3e37142905c9e78e1115e3aeb5e2f18ec5f2d418c1c8909534f0192822ae4",
            "summary.json": "e4633b7602767d9f69baddc82ab0e103d6b02977e71f53a3340155fa3fcd371a"}),
        ("coupled_demo", "correlations", {
            "correlations.csv": "58c78751b8b4477ab6f51a3a89716f2566dc4fb910178fd23c82f214e6b85798",
            "gordin.csv": "ea685edf86bcf189532f43741b1c22e4676f7f5ac2aa4d7d9087ed3ac7c0a152",
            "summary.json": "46bf42a989fcb95658872f9f76368f765b8e2180fc474a444fcb2a49c5ace36d"}),
    ])
    def test_fitted_reports_are_pinned_at_seed_3(self, name, command, expected, tmp_path):
        # the fits, their columns and the verdicts that read them, as bytes
        assert report_hashes(PINNED[name], command, expected, tmp_path) == expected

    @pytest.mark.parametrize("name,command,expected", [
        ("cantor_small", "verify", {
            "verify.csv": "085078ca4507311e83fca6a1eb97b6dfec28534fd177dd9b4ff53cd046697a9c",
            "summary.json": "3ab25cbc52f1bdfcb7bb7346d7e4cde8314ebf27cf0c1a1bf2135cc2f75a279d"}),
        ("cantor_small", "fixed-point", {
            "fixed_point.csv": "f5efecca67310cc5eef3dab123479e83d72c625eb0ae876451401b50304c0c0b",
            "summary.json": "ab8109e0f8be393343eef21c2078493d59dfa581beeda22118aef530700af31e"}),
        ("cantor_small", "stability", {
            "stability.csv": "44579ee83f186705471d6b38dc1b2b9454618ab6a86b0c8d184990f4b43de0d6",
            "summary.json": "0ce9e71cca1e665d3a5644917bc2de35af48cb80a576113777a69c81d33dd204"}),
        ("markov3_small", "verify", {
            "verify.csv": "6836a6731fa8b4e747810c62f7cb6fbcef26911def1eb94effdbe7a383a0ba32",
            "summary.json": "ed646f6c9ca3d8cee4aa9d517dbfede22840eb0b357ff2c19b64c130f7b06c94"}),
        ("markov3_small", "fixed-point", {
            "fixed_point.csv": "28ac47846701d49c8b183b5253bf1d810587357a7ccabd449872bb5fbc33cfc9",
            "summary.json": "83e2f70d2fa35551c903a58cb7648d9ca0d51b786d8285974b9254eb5223aaff"}),
        ("coupled_demo", "fixed-point", {
            "fixed_point.csv": "61a8ea66b58488d3d1f77c094d3682fa4b30edb9f3b2a2ae5aa70d30e8406c76",
            "disintegration.json": "076f2fa6393c5c29cc0a4263e259faf9f09984331accafa1dcd3a3995cb94ae9",
            "summary.json": "0905d832d21cdc5fc3e939d1c7f8ebe9b37b93c76ac137bb585a6eed34f7ca35"}),
        ("cantor_small", "clt", {
            "clt.json": "803bf1f6300136f79374262daff8e1ef3a6c8b3a4b7f001d1d1453e0d4a93355",
            "autocovariance.csv": "6d9b13c0f64ae0da905ca637f775f32ee5c5ad3316d42961f50f02d1cae9d512"}),
        ("markov3_small", "clt", {
            "clt.json": "25751802eb70245b2fbb23f1006f671af0298c79b009b6a9290d46b24f56bee1",
            "autocovariance.csv": "a0c92141479dcff6086360ffbb1fc07d42dbd1ed5deaf218a2ff8715260007e0"}),
        ("coupled_demo", "clt", {
            "clt.json": "2289c23add41c0bae128637c4b93a5fbe9c710c7e9da7647f482e53662c462a1",
            "autocovariance.csv": "0ac4c5bee02036e2c7007f21a65aa19d4c216a0fcb55d8ec5cca411f847f9385"}),
    ])
    def test_certified_reports_are_pinned_at_seed_3(self, name, command, expected, tmp_path):
        # the branch table, R(delta), the moment closure's sigma^2 and lags, and the checks that read them, as bytes
        assert report_hashes(PINNED[name], command, expected, tmp_path) == expected

    def test_components_observable_reports_are_pinned_at_seed_3(self, config_path, tmp_path):
        # psi reads each symbol's own component, phi a depth-2 base_only table
        expected = {
            "correlations.csv": "0c51b47a1fc0b58cb1db569737d29aab606678416f795a2310c6548181d6edce",
            "gordin.csv": "dbbe4767cd20768a5306a2c0da758557db2b26aeee8e23d7823f4a8d4db236e4",
            "summary.json": "be9d7715169a521c24648b8e1307e037aeb725afde1913e2f274b715a6e004a4"}
        assert report_hashes(config_path(IDENTITY_CONFIGS["components"]), "correlations", expected, tmp_path) == expected

    def test_csv_cells_parse_as_numbers(self, tmp_path):
        out = tmp_path / "corr"
        assert main(["correlations", "--config", str(BUNDLED), "--out", str(out)]) == 0
        for name in ("correlations.csv", "gordin.csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                for cell in line.split(","):
                    float(cell)

    @pytest.mark.parametrize("family", list(WEIGHT_FAMILIES))
    def test_stability_on_weight_families(self, family, config_path, tmp_path):
        cfg = json.loads(CANTOR_SMALL.read_text())
        cfg["stability"] = WEIGHT_FAMILIES[family]
        path = config_path(cfg)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["stability", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert {"fiber_gap_lemma", "operator_gap_lemma"} <= {v["name"] for v in summary["verdicts"]}
        assert all(v["passed"] for v in summary["verdicts"])
        # the gaps read the sweep's realized system: weights move in both families, offsets only in combined
        assert summary["metrics"]["operator_gap"] > 0.0
        assert (summary["metrics"]["fiber_op_gap"] > 0.0) == (family == "combined")
        for name in ("summary.json", "stability.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_stability_solves_each_fixed_point_once(self, config_path, tmp_path, monkeypatch):
        cfg = small_config()
        calls = []
        real_fixed_point = skewfiber.stability.fixed_point

        def counted(*args, **kwargs):
            calls.append(args)
            return real_fixed_point(*args, **kwargs)

        for module in (skewfiber.cli, skewfiber.stability):
            monkeypatch.setattr(module, "fixed_point", counted)
        code = main(["stability", "--config", config_path(cfg), "--out", str(tmp_path / "s")])
        assert code == 0
        # the base system plus one solve per sweep delta
        assert len(calls) == len(cfg["stability"]["deltas"]) + 1


def test_no_subcommand_imports_scipy_or_numpy_ma(config_path, tmp_path):
    """Every subcommand, ``verify`` included, runs with scipy blocked and loads none of it, nor ``numpy.ma``.

    A plain ``np.unique`` imports ``numpy.ma`` on its first call, which costs every run's start-up.
    """
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from skewfiber.cli import SUBCOMMANDS, main\n"
        "assert len(SUBCOMMANDS) == 6\n"
        "for sub in SUBCOMMANDS:\n"
        "    assert main([sub, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + sub]) == 0, sub\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(skewfiber.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, config_path(small_config()), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines()[-2:] == ["[]", "False"]
