"""Smoke tests of the ``cep`` subcommands, run in a temporary directory."""

import csv
import re
from dataclasses import replace

import pytest

from cep import cli
from cep.config import desk_profile, save_config
from cep.sensing import SensingConfig


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A two-episode desk SR2L training run: its directory and checkpoint."""
    out = tmp_path_factory.mktemp("train")
    assert cli.main(["train", "--mode", "sr2l", "--episodes", "2",
                     "--seed", "1", "--out", str(out)]) == 0
    return out, out / "policy_final.cepn"


def rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_writes_log_config_and_checkpoint(trained):
    out, checkpoint = trained
    assert len(rows(out / "train_log.csv")) == 2
    assert (out / "config.txt").exists() and checkpoint.exists()


def test_eval_pfm(tmp_path):
    out = tmp_path / "eval"
    assert cli.main(["eval", "--policy", "pfm", "--episodes", "2",
                     "--out", str(out)]) == 0
    assert len(rows(out / "eval_episodes.csv")) == 2
    assert rows(out / "eval_summary.csv")[0]["scope"] == "all"


def test_eval_checkpoint(trained, tmp_path):
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(trained[1]), "--episodes",
                     "1", "--out", str(out)]) == 0
    assert len(rows(out / "eval_episodes.csv")) == 1


def test_sweep(trained, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n10,1.0,0.75\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--checkpoint", str(trained[1]), "--grid",
                     str(grid), "--episodes", "1", "--out", str(out)]) == 0
    assert [r["n_pursuers"] for r in rows(out)] == ["5", "10"]


def test_replay(trained, tmp_path):
    out = tmp_path / "trajectory.csv"
    assert cli.main(["replay", "--checkpoint", str(trained[1]), "--seed", "3",
                     "--out", str(out)]) == 0
    data = rows(out)
    assert data[0]["step"] == "0" and data[-1]["outcome"] != ""


@pytest.mark.parametrize("command", [
    ["eval", "--episodes", "1"],
    ["sweep", "--episodes", "1"],
    ["replay", "--seed", "3"],
])
def test_checkpoint_width_mismatch(trained, tmp_path, capsys, command):
    # The desk checkpoint's actor reads 36 rays; this config senses 8.
    config = tmp_path / "config.txt"
    save_config(replace(desk_profile(), sensing=SensingConfig(n_s=8)), config)
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    extra = {"eval": ["--out", str(tmp_path / "eval")],
             "sweep": ["--grid", str(grid), "--out", str(tmp_path / "s.csv")],
             "replay": ["--out", str(tmp_path / "r.csv")]}[command[0]]
    assert cli.main([*command, "--checkpoint", str(trained[1]),
                     "--config", str(config), *extra]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"cep: error: .*reads 36 inputs.*sensing\.n_s\)\n",
                        err)


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_zero_episodes_rejected(trained, tmp_path, capsys, command):
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    extra = {"eval": ["--out", str(tmp_path / "eval")],
             "sweep": ["--grid", str(grid), "--out", str(tmp_path / "s.csv")]}
    assert cli.main([command, "--checkpoint", str(trained[1]), "--episodes",
                     "0", *extra[command]]) == 2
    assert capsys.readouterr().err == \
        "cep: error: episodes must be >= 1, got 0\n"


@pytest.mark.parametrize("key", ["arena.t_max", "arena.half_width"])
def test_non_finite_arena_value_rejected(tmp_path, capsys, key):
    # Before: t_max = inf overflowed in max_steps, half_width = inf reported
    # escape%=100 over NaN pursuer positions.
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\n{key} = inf\n")
    assert cli.main(["eval", "--policy", "pfm", "--episodes", "1",
                     "--config", str(config),
                     "--out", str(tmp_path / "eval")]) == 2
    name = key.split(".")[1]
    assert capsys.readouterr().err == \
        f"cep: error: {config}: 2: {key}: {name} must be finite, got inf\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("key", ["sensing.w_l", "scaffold.epsilon", "pfm.k_p",
                                 "train.alpha"])
def test_non_finite_section_value_rejected(tmp_path, capsys, key):
    # Before: scaffold.epsilon = inf trained SR2L as IAC, sensing.w_l = inf
    # made every observation NaN.
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\n{key} = inf\n")
    assert cli.main(["train", "--mode", "sr2l", "--episodes", "1",
                     "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
    name = key.split(".")[1]
    assert capsys.readouterr().err == \
        f"cep: error: {config}: 2: {key}: {name} must be finite, got inf\n"
    assert not (tmp_path / "run").exists()


def test_batch_larger_than_buffer_rejected(tmp_path, capsys):
    # Before: training ran, logged updates = 0 in every row and saved the
    # untrained nets.
    config = tmp_path / "config.txt"
    config.write_text("seed = 1\ntrain.buffer_capacity = 10\n")
    assert cli.main(["train", "--mode", "iac", "--episodes", "2",
                     "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"cep: error: {config}: 2: train.buffer_capacity: batch_size 64 must "
        f"be <= buffer_capacity 10, or the buffer never holds a batch to "
        f"train on\n")
    assert not (tmp_path / "run").exists()


def test_train_negative_seed_rejected(tmp_path, capsys):
    # Before: the run directory and its config.txt were written, then numpy
    # failed on the seed with a message naming neither key nor value.
    out = tmp_path / "a"
    assert cli.main(["train", "--mode", "iac", "--seed", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "cep: error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_replay_negative_seed_rejected(trained, tmp_path, capsys):
    out = tmp_path / "trajectory.csv"
    assert cli.main(["replay", "--checkpoint", str(trained[1]), "--seed", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "cep: error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_out_dir_the_config_cannot_hold(tmp_path, capsys):
    # save_config would write 'out_dir = .../#1', read back as '.../'.
    runs = tmp_path / "runs"
    assert cli.main(["train", "--mode", "iac", "--episodes", "1",
                     "--out", str(runs / "#1")]) == 2
    assert capsys.readouterr().err.startswith(
        f"cep: error: out_dir '{runs / '#1'}' must not contain '#'")
    assert not runs.exists()


@pytest.mark.parametrize("command,missing", [
    (["eval", "--episodes", "1", "--checkpoint"], "missing.cepn"),
    (["train", "--mode", "iac", "--episodes", "1", "--config"], "missing.txt"),
    (["sweep", "--checkpoint", "CHECKPOINT", "--episodes", "1", "--grid"],
     "missing.csv"),
], ids=["checkpoint", "config", "grid"])
def test_missing_file_is_a_one_line_error(trained, tmp_path, capsys, command,
                                          missing):
    path = tmp_path / missing
    argv = [str(trained[1]) if a == "CHECKPOINT" else a for a in command]
    assert cli.main([*argv, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"cep: error: \[Errno 2\] No such file or "
                        rf"directory: '{re.escape(str(path))}'\n", err)
