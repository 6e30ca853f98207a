"""Smoke tests of the ``cep`` subcommands, run in a temporary directory."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from cep import cli, harness
from cep.config import desk_profile, load_config, save_config
from cep.neural import Mlp, PolicyBundle, load_checkpoint, save_checkpoint
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


@pytest.mark.parametrize("argv,line", [
    (["--policy", "pfm", "--episodes", "250"],
     "escape%=100 mean_escape_steps=41.636 mean_reward=-0.1323341 "
     "(250 episodes)"),
    (["--policy", "random", "--episodes", "3"],
     "escape%=0 mean_escape_steps=nan mean_reward=-0.589738092 (3 episodes)"),
], ids=["pfm", "random"])
def test_eval_prints_the_overall_summary(tmp_path, capsys, argv, line):
    out = tmp_path / "eval"
    assert cli.main(["eval", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        line, f"wrote {out / 'eval_episodes.csv'} and "
              f"{out / 'eval_summary.csv'}"]


def test_eval_episodes_default_to_the_config(tmp_path):
    # Before: --episodes was required, and eval_episodes of the file unread.
    config = tmp_path / "config.txt"
    config.write_text("eval_episodes = 2\n")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--policy", "pfm", "--config", str(config),
                     "--out", str(out)]) == 0
    assert len(rows(out / "eval_episodes.csv")) == 2


def test_eval_seed_overrides_the_config(tmp_path):
    def written(out):
        return [(out / name).read_bytes()
                for name in ("eval_episodes.csv", "eval_summary.csv")]

    for seed in (0, 5):
        assert cli.main(["eval", "--policy", "pfm", "--seed", str(seed),
                         "--episodes", "2",
                         "--out", str(tmp_path / str(seed))]) == 0
    cfg = replace(desk_profile(), seed=5)
    report = harness.evaluate_monte_carlo(harness.make_policy("pfm", cfg),
                                          cfg, episodes=2)
    ref = tmp_path / "ref"
    ref.mkdir()
    harness.write_eval_episodes(ref / "eval_episodes.csv", report)
    harness.write_eval_summary(ref / "eval_summary.csv", report)
    assert written(tmp_path / "5") == written(ref)
    assert written(tmp_path / "0")[0] != written(ref)[0]


def test_train_overrides_reach_config_txt(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--mode", "iac", "--seed", "2", "--episodes",
                     "1", "--out", str(out)]) == 0
    assert "seed = 2" in (out / "config.txt").read_text().splitlines()
    assert load_config(out / "config.txt") == replace(
        desk_profile(), mode="iac", seed=2, episodes=1)


@pytest.mark.parametrize("command", [
    ["eval", "--policy", "pfm", "--episodes", "1"],
    ["train", "--mode", "iac", "--episodes", "1"],
], ids=["eval", "train"])
def test_empty_config_path_rejected(tmp_path, capsys, command):
    # An empty path names no file: it must not fall back to the desk profile.
    out = tmp_path / "out"
    assert cli.main([*command, "--config", "", "--out", str(out)]) == 2
    # Before: "[Errno 21] Is a directory: '.'", a path never given.
    assert capsys.readouterr().err == "cep: error: config path is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["pfm", "random"])
def test_eval_checkpoint_for_a_policy_that_reads_none(trained, tmp_path,
                                                      capsys, policy):
    # Before: the checkpoint was ignored and the policy scored, exit 0.
    out = tmp_path / "eval"
    assert cli.main(["eval", "--policy", policy, "--checkpoint",
                     str(trained[1]), "--episodes", "1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"cep: error: policy '{policy}' takes no checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["checkpoint", "pfm"])
def test_eval_empty_checkpoint_path(tmp_path, capsys, policy):
    # Before: the empty path counted as no --checkpoint, so the planner
    # scored (exit 0) and the actor asked for a checkpoint that was given.
    # cep sweep and cep replay already failed on it as a path.
    out = tmp_path / "eval"
    assert cli.main(["eval", "--policy", policy, "--checkpoint", "",
                     "--episodes", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "cep: error: [Errno 2] No such file or directory: ''\n"
    assert not out.exists()


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


def test_sweep_prints_each_cell(trained, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n10,1.0,0.75\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--checkpoint", str(trained[1]), "--grid",
                     str(grid), "--episodes", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=5 V'=1.5 R'=1.5 escape%=0 mean_steps=nan",
        "n=10 V'=1 R'=0.75 escape%=0 mean_steps=nan",
        f"wrote {out}"]


RATIOS = "the ratios must be finite and > 0"
BAD_CELLS = [("-1,1.0,1.0", "(-1, 1.0, 1.0)",
              "n_pursuers must be >= 0, got -1"),
             ("5,0,1.0", "(5, 0.0, 1.0)", RATIOS),
             ("5,1.0,0", "(5, 1.0, 0.0)", RATIOS),
             ("5,-2.0,1.0", "(5, -2.0, 1.0)", RATIOS),
             ("5,inf,1.0", "(5, inf, 1.0)", RATIOS),
             ("5,1.0,nan", "(5, 1.0, nan)", RATIOS)]


@pytest.mark.parametrize("row,cell,reason", BAD_CELLS,
                         ids=[row for row, _, _ in BAD_CELLS])
def test_sweep_cell_that_makes_no_arena(trained, tmp_path, capsys, row, cell,
                                        reason):
    # The cell is judged where its arena is built, before the output
    # directory is made; before, load_grid judged it a second time.
    grid = tmp_path / "grid.csv"
    grid.write_text(f"n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n{row}\n")
    out = tmp_path / "sweeps" / "sweep.csv"
    assert cli.main(["sweep", "--checkpoint", str(trained[1]), "--grid",
                     str(grid), "--episodes", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"cep: error: sweep cell (n_pursuers, v_ratio, r_ratio) = {cell}: "
        f"{reason}\n")
    assert not (tmp_path / "sweeps").exists()


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


def test_checkpoint_networks_that_do_not_fit(tmp_path, capsys):
    # An actor of one width is no layer: it would score an identity map.
    checkpoint = tmp_path / "misfit.cepn"
    save_checkpoint(checkpoint, PolicyBundle(
        Mlp([36], np.zeros(0)), Mlp([38, 1], np.zeros(39)),
        Mlp([38, 1], np.zeros(39))))
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--episodes",
                     "1", "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == (
        "cep: error: checkpoint actor widths [36]: a network needs at least "
        "2 widths, each >= 1\n")


def test_checkpoint_with_non_finite_parameters(trained, tmp_path, capsys):
    # Before: inf in the actor's last bias scored 66.7% escapes, exit 0.
    bundle = load_checkpoint(trained[1])
    bundle.actor.biases[-1][0] = np.inf
    checkpoint = tmp_path / "inf.cepn"
    save_checkpoint(checkpoint, bundle)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--episodes",
                     "1", "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == (
        "cep: error: checkpoint actor parameters are not all finite\n")
    assert not (tmp_path / "eval").exists()


def test_config_key_set_twice(tmp_path, capsys):
    # Before: the second setting won, and 30 pursuers were evaluated.
    config = tmp_path / "config.txt"
    config.write_text("arena.n_pursuers = 10\narena.n_pursuers = 30\n")
    assert cli.main(["eval", "--policy", "pfm", "--episodes", "1",
                     "--config", str(config),
                     "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == (
        f"cep: error: {config}:2: arena.n_pursuers: already set on line 1\n")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_zero_episodes_rejected(trained, tmp_path, capsys, command):
    # The count is the run config's eval_episodes, judged before the output
    # directory is made.  Before, that directory was left behind.
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    out = tmp_path / "new"
    extra = {"eval": ["--out", str(out / "eval")],
             "sweep": ["--grid", str(grid), "--out", str(out / "s.csv")]}
    assert cli.main([command, "--checkpoint", str(trained[1]), "--episodes",
                     "0", *extra[command]]) == 2
    assert capsys.readouterr().err == \
        "cep: error: eval_episodes must be >= 1, got 0\n"
    assert not out.exists()


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
    # Before: --out's directory was made before the seed was judged, so
    # new/dir was left behind.
    out = tmp_path / "new" / "dir" / "trajectory.csv"
    assert cli.main(["replay", "--checkpoint", str(trained[1]), "--seed", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "cep: error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "new").exists()


def test_train_out_dir_the_config_cannot_hold(tmp_path):
    # Before: '#' in --out was rejected, since save_config would write
    # 'out_dir = .../#1' and read back '.../'.  Now the directory stays out
    # of config.txt, and the file repeats the run byte for byte.
    runs = tmp_path / "runs"
    assert cli.main(["train", "--mode", "iac", "--episodes", "1",
                     "--out", str(runs / "#1")]) == 0
    assert cli.main(["train", "--mode", "iac",
                     "--config", str(runs / "#1" / "config.txt"),
                     "--out", str(runs / "#2")]) == 0
    for name in ("config.txt", "train_log.csv", "policy_final.cepn"):
        assert (runs / "#1" / name).read_bytes() == \
            (runs / "#2" / name).read_bytes(), name


def test_train_config_txt_repeats_the_run_alone(tmp_path):
    run, again, sr2l = tmp_path / "run", tmp_path / "again", tmp_path / "sr2l"
    assert cli.main(["train", "--mode", "iac", "--episodes", "1",
                     "--out", str(run)]) == 0
    assert cli.main(["train", "--config", str(run / "config.txt"),
                     "--out", str(again)]) == 0
    for name in ("config.txt", "train_log.csv", "policy_final.cepn"):
        assert (run / name).read_bytes() == (again / name).read_bytes(), name
    # --mode still overrides the file's mode.
    assert cli.main(["train", "--mode", "sr2l", "--config",
                     str(run / "config.txt"), "--out", str(sr2l)]) == 0
    assert "mode = sr2l" in (sr2l / "config.txt").read_text().splitlines()
    assert load_config(sr2l / "config.txt") == replace(
        load_config(run / "config.txt"), mode="sr2l")


@pytest.mark.parametrize("name", [
    "#1", "#", "a\nb", "a\rb", "a\x1cb", "a\u2028b", " runs", "runs ",
    "runs\t", "\nruns",
], ids=["hash", "only-hash", "newline", "carriage-return", "file-separator",
        "line-separator", "leading-space", "trailing-space", "trailing-tab",
        "leading-newline"])
def test_train_out_dir_the_config_file_could_not_hold(tmp_path, name):
    # Before: the directory was a config value, and these names were
    # rejected, since '#' starts a comment, a line break ends the line and
    # a value is read back stripped.
    out = tmp_path / "runs" / name
    assert cli.main(["train", "--mode", "iac", "--episodes", "1",
                     "--out", str(out)]) == 0
    assert load_config(out / "config.txt") == replace(
        desk_profile(), mode="iac", episodes=1)


def test_train_empty_out_dir_rejected(tmp_path, monkeypatch, capsys):
    # Before: the run's files went to the working directory, and the last
    # line read "outputs in " with nothing after it.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--mode", "iac", "--episodes", "1",
                     "--out", ""]) == 2
    assert capsys.readouterr().err == \
        "cep: error: out_dir must not be empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "sweep", "replay"])
def test_empty_out_rejected(trained, tmp_path, monkeypatch, capsys, command):
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    extra = {"eval": ["--episodes", "1"],
             "sweep": ["--grid", str(grid), "--episodes", "1"],
             "replay": ["--seed", "3"]}[command]
    assert cli.main([command, "--checkpoint", str(trained[1]), *extra,
                     "--out", ""]) == 2
    assert capsys.readouterr().err == "cep: error: --out must not be empty\n"
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "replay"])
def test_out_into_a_missing_directory(trained, tmp_path, command):
    # Before: the sweep ran every episode, then exited 2 with "No such file
    # or directory"; so did the replay.
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    out = tmp_path / "new" / "dir" / "out.csv"
    extra = {"sweep": ["--grid", str(grid), "--episodes", "1"],
             "replay": ["--seed", "3"]}[command]
    assert cli.main([command, "--checkpoint", str(trained[1]), *extra,
                     "--out", str(out)]) == 0
    assert rows(out)


@pytest.mark.parametrize("command,entry,name", [
    ("eval", "evaluate_monte_carlo", "eval"),
    ("sweep", "sweep", "sweep.csv"),
    ("replay", "replay", "trajectory.csv"),
], ids=["eval", "sweep", "replay"])
def test_out_under_a_regular_file(trained, tmp_path, monkeypatch, capsys,
                                  command, entry, name):
    # The directory is made before the first episode, so no episode runs.
    def no_episode(*args, **kwargs):
        raise AssertionError(f"harness.{entry} was called")

    monkeypatch.setattr(harness, entry, no_episode)
    grid = tmp_path / "grid.csv"
    grid.write_text("n_pursuers,v_ratio,r_ratio\n5,1.5,1.5\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    extra = {"eval": ["--episodes", "1"],
             "sweep": ["--grid", str(grid), "--episodes", "1"],
             "replay": ["--seed", "3"]}[command]
    assert cli.main([command, "--checkpoint", str(trained[1]), *extra,
                     "--out", str(blocker / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cep: error: ") and str(blocker) in err
    assert blocker.read_text() == ""


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
