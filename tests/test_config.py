from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.config import (MODES, RunConfig, desk_profile, load_config,
                        paper_profile, save_config)

finite = st.floats(0.01, 1e6)


@st.composite
def run_configs(draw):
    """Valid run configs: a shipped profile with fields of every section and
    of every type (int, float, bool, str, the hidden-width tuple) redrawn."""
    base = draw(st.sampled_from([desk_profile(), paper_profile()]))
    arena = replace(base.arena,
                    half_width=draw(st.floats(20.0, 1e4)),
                    half_height=draw(st.floats(20.0, 1e4)),
                    n_pursuers=draw(st.integers(0, 500)),
                    v_e_max=draw(finite), r_e=draw(finite),
                    dt=draw(st.floats(1e-3, 1.0)),
                    seed=draw(st.integers(0, 2**63 - 1)))
    sensing = replace(base.sensing, n_s=draw(st.integers(4, 720)),
                      k_s=draw(finite), w_l=draw(finite),
                      r_b_norm=draw(finite))
    train = replace(base.train, gamma=draw(st.floats(0.5, 1.0)),
                    lr_actor=draw(st.floats(1e-8, 1.0)),
                    batch_size=draw(st.integers(1, 4096)),
                    hidden=tuple(draw(st.lists(st.integers(1, 1024),
                                               max_size=4))))
    scaffold = replace(base.scaffold, beta=draw(st.floats(0.0, 100.0)),
                       store_executed_action=draw(st.booleans()))
    pfm = replace(base.pfm, k_p=draw(finite))
    return replace(base, arena=arena, sensing=sensing, train=train,
                   scaffold=scaffold, pfm=pfm,
                   mode=draw(st.sampled_from(MODES)),
                   episodes=draw(st.integers(1, 10**6)),
                   seed=draw(st.integers(0, 2**63 - 1)),
                   out_dir=draw(st.text("abcXYZ019/._-", max_size=20)),
                   reward_sign=draw(st.sampled_from([-1.0, 1.0])))


@given(cfg=run_configs())
@settings(deadline=None, max_examples=100)
def test_save_load_round_trip(cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("mode", ["pfm", "random", "IAC", ""])
def test_mode_is_a_training_mode(mode):
    with pytest.raises(ValueError, match="mode"):
        RunConfig(**{**vars(desk_profile()), "mode": mode})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("arena.no_such_field = 1\n")
    with pytest.raises(ValueError, match="unknown field"):
        load_config(path)
