import hashlib
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.config import (MODES, RunConfig, check_seed, config_to_text,
                        desk_profile, load_config, paper_profile, save_config)
from cep.env import ArenaConfig
from cep.neural import TrainConfig
from cep.pfm import PfmGains
from cep.sensing import SensingConfig
from cep.sr2l import ScaffoldConfig

finite = st.floats(0.01, 1e6)


@st.composite
def run_configs(draw):
    """Valid run configs: a shipped profile with fields of every section and
    of every type (int, float, str, the hidden-width tuple) redrawn."""
    base = draw(st.sampled_from([desk_profile(), paper_profile()]))
    arena = replace(base.arena,
                    half_width=draw(st.floats(20.0, 1e4)),
                    half_height=draw(st.floats(20.0, 1e4)),
                    n_pursuers=draw(st.integers(0, 500)),
                    v_e_max=draw(finite), r_e=draw(finite),
                    dt=draw(st.floats(1e-3, 1.0)))
    sensing = replace(base.sensing, n_s=draw(st.integers(4, 720)),
                      k_s=draw(finite), w_l=draw(finite),
                      r_b_norm=draw(finite))
    train = replace(base.train, gamma=draw(st.floats(0.5, 1.0)),
                    lr_actor=draw(st.floats(1e-8, 1.0)),
                    batch_size=draw(st.integers(1, 4096)),
                    hidden=tuple(draw(st.lists(st.integers(1, 1024),
                                               max_size=4))))
    scaffold = replace(base.scaffold, beta=draw(st.floats(0.0, 100.0)))
    pfm = replace(base.pfm, k_p=draw(finite))
    return replace(base, arena=arena, sensing=sensing, train=train,
                   scaffold=scaffold, pfm=pfm,
                   mode=draw(st.sampled_from(MODES)),
                   episodes=draw(st.integers(1, 10**6)),
                   seed=draw(st.integers(0, 2**63 - 1)))


@given(cfg=run_configs())
@settings(deadline=None, max_examples=100)
def test_save_load_round_trip(cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("section", [SensingConfig, ScaffoldConfig, PfmGains,
                                     TrainConfig])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_rejected(section, value):
    # Before: scaffold.epsilon = inf trained SR2L as IAC (D_f = 0 on every
    # step), sensing.w_l = inf made every observation NaN.
    names = [f.name for f in fields(section)
             if isinstance(getattr(section(), f.name), float)]
    assert names
    for name in names:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            section(**{name: value})


INTEGER_FIELDS = [(section, f.name)
                  for section in (ArenaConfig, SensingConfig, TrainConfig,
                                  ScaffoldConfig, PfmGains, RunConfig)
                  for f in fields(section) if f.type in (int, "int")]


def test_integer_fields_are_the_counts_and_the_seed():
    assert [(section.__name__, name) for section, name in INTEGER_FIELDS] == [
        ("ArenaConfig", "n_pursuers"), ("SensingConfig", "n_s"),
        ("TrainConfig", "batch_size"), ("TrainConfig", "buffer_capacity"),
        ("TrainConfig", "checkpoint_every"), ("RunConfig", "episodes"),
        ("RunConfig", "eval_episodes"), ("RunConfig", "seed")]


@pytest.mark.parametrize("section,name", INTEGER_FIELDS,
                         ids=[f"{s.__name__}.{n}" for s, n in INTEGER_FIELDS])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_integer_field_rejects_a_non_integer(section, name, value):
    # Before: checkpoint_every = 2.5 wrote a checkpoint every 5 episodes,
    # n_pursuers = True ran one pursuer, and n_pursuers = 5.5 failed late
    # with a TypeError.
    base = desk_profile() if section is RunConfig else section()
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer, got {value!r}")):
        replace(base, **{name: value})


@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_hidden_width_and_seed_reject_a_non_integer(value):
    with pytest.raises(ValueError,
                       match="^each hidden width must be an integer"):
        TrainConfig(hidden=(64, value))
    with pytest.raises(ValueError, match="^seed must be an integer"):
        check_seed(value)


FLOAT_FIELDS = [(section, f.name)
                for section in (ArenaConfig, SensingConfig, TrainConfig,
                                ScaffoldConfig, PfmGains)
                for f in fields(section) if f.type in (float, "float")]


@pytest.mark.parametrize("section,name", FLOAT_FIELDS,
                         ids=[f"{s.__name__}.{n}" for s, n in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [True, "1.0"])
def test_float_field_rejects_a_bool_or_a_non_number(section, name, value):
    # Before: dt = True ran 1-second steps, beta, gamma and tau took True,
    # and half_width = "50" failed late with a TypeError.
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a real number, got {value!r}")):
        replace(section(), **{name: value})


def test_float_field_takes_an_int_or_a_numpy_float():
    # RunConfig holds no float; every other field but the counts and
    # train.hidden is one.
    assert len(FLOAT_FIELDS) == 26
    arena = ArenaConfig(half_width=50, dt=np.float64(0.1))
    assert (arena.half_width, arena.dt) == (50, 0.1)


def test_hidden_must_be_a_tuple(tmp_path):
    # Before: a list constructed, and the config.txt it wrote
    # ("train.hidden = [8, 8]") failed to load.
    with pytest.raises(ValueError, match=re.escape(
            "hidden must be a tuple, got [8, 8]")):
        TrainConfig(hidden=[8, 8])


@pytest.mark.parametrize("mode", ["pfm", "random", "IAC", ""])
def test_mode_is_a_training_mode(mode):
    with pytest.raises(ValueError, match="mode"):
        RunConfig(**{**vars(desk_profile()), "mode": mode})


def test_empty_path_rejected():
    # Path("") is the working directory, so reading it would name '.'.
    with pytest.raises(ValueError, match="^config path is empty$"):
        load_config("")


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("arena.no_such_field = 1\n")
    with pytest.raises(ValueError, match="unknown field"):
        load_config(path)


@pytest.mark.parametrize("key", ["arena.seed", "train.seed",
                                 "scaffold.store_executed_action",
                                 "reward_sign", "out_dir", "arena",
                                 "__class__", "arena.__doc__"])
def test_removed_key_rejected(tmp_path, key):
    # A key that nothing reads must fail loudly, not pass silently.  Nor is
    # a section a key, or an attribute that is not a field (before:
    # __class__ and arena.__doc__ raised TypeError).
    path = tmp_path / "old.txt"
    path.write_text(f"{key} = 5\n")
    with pytest.raises(ValueError, match=f"old.txt:1: unknown field '{key}'"):
        load_config(path)


def test_shipped_keys():
    keys = [line.split(" = ")[0]
            for line in config_to_text(desk_profile()).splitlines() if line]
    assert len(keys) == len(set(keys)) == 36


@pytest.mark.parametrize("line,key", [
    ("arena.n_pursuers = 1.5", "arena.n_pursuers"),
    ("train.lr_actor = fast", "train.lr_actor"),
    ("train.hidden = 64,x", "train.hidden"),
    # Before: an empty item was dropped, and 64,,32 loaded as (64, 32).
    ("train.hidden = 64,,32", "train.hidden"),
    ("train.hidden = 64,", "train.hidden"),
    ("train.hidden = ,", "train.hidden"),
    ("episodes = ten", "episodes"),
])
def test_bad_value_names_file_line_and_key(tmp_path, line, key):
    path = tmp_path / "bad.txt"
    path.write_text(f"# a comment\n{line}\n")
    with pytest.raises(ValueError, match=f"bad.txt:2: {key}: "):
        load_config(path)


@pytest.mark.parametrize("key,first,second", [
    ("arena.n_pursuers", "10", "30"),
    ("seed", "1", "2"),
    ("train.hidden", "64", "64"),
])
def test_repeated_key_names_both_lines(tmp_path, key, first, second):
    # Before: the last setting won without a word.
    path = tmp_path / "twice.txt"
    path.write_text(f"{key} = {first}\n# a comment\n{key} = {second}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"twice.txt:3: {key}: already set on line 1")):
        load_config(path)


# SHA-1 of each profile's config text.  A profile states only what differs
# from the section defaults, and that must not change what it holds.
PROFILE_TEXT_SHA1 = {
    desk_profile: "5bd3d69dc63f6f5a349879e3f3c1995da2229fa3",
    paper_profile: "1c0581f86ed62befaf27ef7e0a1f3ae86deccc3f",
}


@pytest.mark.parametrize("profile", PROFILE_TEXT_SHA1, ids=lambda p: p.__name__)
def test_profile_text_unchanged(profile):
    text = config_to_text(profile()).encode()
    assert hashlib.sha1(text).hexdigest() == PROFILE_TEXT_SHA1[profile]


def test_sections_default_to_their_defaults():
    cfg = RunConfig(desk_profile().arena, desk_profile().sensing)
    assert (cfg.train, cfg.scaffold, cfg.pfm) == \
        (TrainConfig(), ScaffoldConfig(), PfmGains())


@pytest.mark.parametrize("hidden", [(0,), (64, 0), (-3, 8)])
def test_hidden_width_below_one_rejected(tmp_path, hidden):
    with pytest.raises(ValueError, match="hidden widths must be >= 1"):
        TrainConfig(hidden=hidden)
    path = tmp_path / "config.txt"
    path.write_text("train.hidden = " + ",".join(map(str, hidden)) + "\n")
    with pytest.raises(ValueError, match="hidden widths must be >= 1"):
        load_config(path)


def test_no_hidden_layer_is_valid(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("train.hidden =\n")
    assert load_config(path).train.hidden == ()


@pytest.mark.parametrize("text,where,message", [
    ("seed = 1\ntrain.hidden = 0\n", "2: train.hidden",
     "hidden widths must be >= 1"),
    ("arena.dt = 0\n", "1: arena.dt", "dt must be > 0"),
    ("episodes = 0\n", "1: episodes", "episodes must be >= 1"),
    ("scaffold.beta = 101\nscaffold.epsilon = 1e-3\n",
     "1: scaffold.beta, 2: scaffold.epsilon", "beta must be in"),
    # Valid only together: each key is named, and the pair is checked once.
    ("arena.v_p_min = 9\n# comment\narena.v_p_max = 8\n",
     "1: arena.v_p_min, 3: arena.v_p_max", "v_p_min <= v_p_max"),
], ids=["hidden", "dt", "episodes", "beta", "v_p_pair"])
def test_failed_section_check_names_file_lines_and_keys(tmp_path, text, where,
                                                        message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: {where}: ")
    assert message in str(info.value)


def test_keys_valid_only_together_load(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("arena.v_p_min = 11\narena.v_p_max = 12\n")
    arena = load_config(path).arena
    assert (arena.v_p_min, arena.v_p_max) == (11.0, 12.0)


# One value per rule of each section.  Every "> 0" rule states its field
# and the value it got in one form.
@pytest.mark.parametrize("section,field,value,message", [
    ("arena", "half_width", "0", "half_width must be > 0, got 0.0"),
    ("arena", "half_height", "-1", "half_height must be > 0, got -1.0"),
    ("arena", "spawn_half_extent", "0",
     "spawn_half_extent must be > 0, got 0.0"),
    ("arena", "r_e", "0", "r_e must be > 0, got 0.0"),
    ("arena", "r_p", "0", "r_p must be > 0, got 0.0"),
    ("arena", "capture_radius", "0", "capture_radius must be > 0, got 0.0"),
    ("arena", "v_e_max", "0", "v_e_max must be > 0, got 0.0"),
    ("arena", "dt", "-0.1", "dt must be > 0, got -0.1"),
    ("arena", "n_pursuers", "-1", "n_pursuers must be >= 0, got -1"),
    ("arena", "v_p_min", "0", "need 0 < v_p_min <= v_p_max"),
    ("arena", "spawn_half_extent", "50",
     "spawn region must fit strictly inside the arena"),
    ("arena", "capture_radius", "10", "capture_radius must be < r_p"),
    ("arena", "t_max", "0.1", "t_max must be > dt"),
    # Before: max_steps raised OverflowError on the first episode.
    ("arena", "t_max", "1e308", "t_max / dt must be finite, got 1e+308 / 0.1"),
    ("sensing", "k_s", "0", "k_s must be > 0, got 0.0"),
    ("sensing", "r_b_norm", "0", "r_b_norm must be > 0, got 0.0"),
    ("sensing", "n_s", "3", "n_s must be >= 4, got 3"),
    ("sensing", "w_l", "-1", "weights must be >= 0 with a positive sum"),
    ("train", "lr_actor", "0", "lr_actor must be > 0, got 0.0"),
    ("train", "lr_critic", "0", "lr_critic must be > 0, got 0.0"),
    ("train", "batch_size", "0", "batch_size must be > 0, got 0"),
    ("train", "buffer_capacity", "0", "buffer_capacity must be > 0, got 0"),
    ("train", "grad_clip", "0", "grad_clip must be > 0, got 0.0"),
    ("train", "checkpoint_every", "0", "checkpoint_every must be > 0, got 0"),
    ("train", "gamma", "0", "gamma must be in (0, 1], got 0.0"),
    ("train", "gamma", "1.5", "gamma must be in (0, 1], got 1.5"),
    ("train", "tau", "0", "tau must be in (0, 1], got 0.0"),
    ("train", "alpha", "-1", "alpha must be >= 0, got -1.0"),
    ("train", "buffer_capacity", "10", "batch_size 64 must be <= "
     "buffer_capacity 10, or the buffer never holds a batch to train on"),
    ("scaffold", "epsilon", "0", "epsilon must be > 0, got 0.0"),
    ("scaffold", "beta", "-1", "beta must be in [0, 100], got -1.0"),
    ("pfm", "k_p", "0", "k_p must be > 0, got 0.0"),
    ("pfm", "k_b", "-2", "k_b must be > 0, got -2.0"),
    ("pfm", "singularity_floor", "0",
     "singularity_floor must be > 0, got 0.0"),
    ("", "episodes", "0", "episodes must be >= 1, got 0"),
    ("", "eval_episodes", "0", "eval_episodes must be >= 1, got 0"),
    ("", "seed", "-1", "seed must be >= 0, got -1"),
    ("", "mode", "pfm", "mode must be one of ('iac', 'sr2l'), got 'pfm'"),
])
def test_value_out_of_range_rejected(tmp_path, section, field, value, message):
    key = f"{section}.{field}" if section else field
    path = tmp_path / "bad.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: 1: {key}: {message}"


@pytest.mark.parametrize("line,message", [
    ("arena.half_width 60", "expected 'key = value'"),
    ("world.half_width = 60", "unknown section 'world'"),
])
def test_malformed_line_rejected(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: {message}"
