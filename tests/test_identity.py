"""Tests of ``tools/identity.py``'s run matrix, configs and report, with no CLI process."""

import json

import pytest

from conftest import identity
from skewfiber.cli import parse_config

CONFIGS = identity.configs()


def test_matrix_has_173_distinct_runs():
    runs = identity.matrix()
    assert len(runs) == len(set(runs)) == 173
    assert {name for name, _, _ in runs} == set(CONFIGS)


def test_only_stability_without_its_block_expects_exit_2():
    expected = {run: identity.expected_exit(CONFIGS[run[0]], run[1]) for run in identity.matrix()}
    assert set(expected.values()) == {0, 2}
    assert {run for run, code in expected.items() if code == 2} == {
        ("coupled_demo", "stability", 3), ("markov3_small", "stability", 3), ("markov3", "stability", 3)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_config_parses(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    assert parse_config(path).digest


def test_unexpected_exit_code_is_one_line_and_fails(capsys):
    # the same failure on both sides: no byte differs, the exit code alone is reported
    failed = (1, b"", b"[FAIL] verify: quantize_certificate\n", {"summary.json": b"{}\n"})
    passed = (0, b"[pass] verify\n", b"", {"summary.json": b"{}\n"})
    outcomes = {("markov3_small", "verify", 4): (0, failed, failed), ("cantor_small", "verify", 4): (0, passed, passed)}
    assert identity.report("HEAD", outcomes) == 1
    assert capsys.readouterr().out == "markov3_small verify --seed 4: exit code 1, expected 0\n"


def test_expected_exits_and_equal_bytes_pass(capsys):
    refused = (2, b"", b"config error: /stability: no stability block in the config\n", {})
    assert identity.report("HEAD", {("markov3", "stability", 3): (2, refused, refused)}) == 0
    assert capsys.readouterr().out == "1 runs byte-identical to HEAD\n"
