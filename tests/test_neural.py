import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from cep.neural import (LOG_STD_MAX, LOG_STD_MIN, SQUASH_EPS, Batch, Mlp,
                        PolicyBundle, ReplayBuffer, TrainConfig,
                        TrainingDiverged, _param_count,
                        _split_actor_head,
                        actor_loss_and_grads, actor_mean_action,
                        actor_sample_batch, actor_update,
                        critic_loss_and_grads, critic_target, critic_update,
                        forward_actor, load_checkpoint, save_checkpoint,
                        soft_update)

STATE_DIM = 6


# -- oracles: the actor's full sample record, the critic on one pair, and the
# policy's log-density at an arbitrary action


@dataclass
class ActorOutput:
    mean: np.ndarray
    log_std: np.ndarray
    action: np.ndarray
    log_prob: float


def actor_output(net: Mlp, state: np.ndarray,
                 rng: np.random.Generator) -> ActorOutput:
    """The sample ``forward_actor`` draws from the same rng state, with its
    head's mean and clamped log-std and its log-density."""
    s = np.asarray(state, dtype=float).reshape(1, -1)
    noise = rng.standard_normal((1, net.widths[-1] // 2))
    action, log_prob, cache = actor_sample_batch(net, s, noise)
    mean, _, log_std = _split_actor_head(cache["acts"][-1])
    return ActorOutput(mean[0], log_std[0], action[0], float(log_prob[0]))


def forward_critic(net: Mlp, state: np.ndarray, action: np.ndarray) -> float:
    x = np.concatenate([np.asarray(state, dtype=float).ravel(),
                        np.asarray(action, dtype=float).ravel()]).reshape(1, -1)
    if x.shape[1] != net.widths[0]:
        raise ValueError(f"input width {x.shape[1]} != critic width {net.widths[0]}")
    return float(net(x)[0, 0])


def action_log_density(net: Mlp, state: np.ndarray, action: np.ndarray) -> float:
    """log pi(a|s) at an arbitrary squashed action with |a_k| < 1."""
    s = np.asarray(state, dtype=float).reshape(1, -1)
    a = np.asarray(action, dtype=float).reshape(1, -1)
    out = net(s)
    mean, _, log_std = _split_actor_head(out)
    std = np.exp(log_std)
    pre = np.arctanh(a)
    z = (pre - mean) / std
    log_prob = (-0.5 * z ** 2 - log_std - 0.5 * math.log(2.0 * math.pi)
                - np.log(1.0 - a ** 2 + SQUASH_EPS)).sum(axis=1)
    return float(log_prob[0])


def make_bundle(seed=0, hidden=(8, 8)) -> PolicyBundle:
    cfg = TrainConfig(hidden=hidden)
    return PolicyBundle.create(STATE_DIM, cfg, np.random.default_rng(seed))


def random_batch(n, rng, terminal_frac=0.0) -> Batch:
    term = rng.uniform(size=n) < terminal_frac
    return Batch(rng.normal(size=(n, STATE_DIM)), rng.uniform(-1, 1, (n, 2)),
                 rng.normal(size=n), rng.normal(size=(n, STATE_DIM)), term)


def zero_net(widths):
    net = Mlp.create(widths, np.random.default_rng(0))
    for i in range(net.n_layers):
        net.weights[i][:] = 0.0
        net.biases[i][:] = 0.0
    return net


class TestMlp:
    def test_zero_net_outputs_zero(self):
        net = zero_net([4, 8, 8, 1])
        assert np.all(net(np.ones((3, 4))) == 0.0)

    def test_param_roundtrip(self):
        net = Mlp.create([4, 8, 2], np.random.default_rng(1))
        flat = net.params_flat()
        clone = zero_net([4, 8, 2])
        clone.set_params_flat(flat)
        x = np.random.default_rng(2).normal(size=(5, 4))
        assert np.array_equal(net(x), clone(x))

    def test_param_count(self):
        net = Mlp.create([4, 8, 2], np.random.default_rng(1))
        assert len(net.params_flat()) == (4 + 1) * 8 + (8 + 1) * 2


class TestForwardActor:
    def test_zero_net_zero_state(self):
        net = zero_net([STATE_DIM, 8, 4])
        out = actor_output(net, np.zeros(STATE_DIM), np.random.default_rng(3))
        assert np.all(out.mean == 0.0)
        assert np.all(out.log_std == 0.0)
        assert np.all(np.abs(out.action) < 1.0)

    def test_same_seed_same_sample(self):
        bundle = make_bundle()
        s = np.random.default_rng(1).normal(size=STATE_DIM)
        a1 = forward_actor(bundle.actor, s, np.random.default_rng(9))
        a2 = forward_actor(bundle.actor, s, np.random.default_rng(9))
        assert np.array_equal(a1, a2)
        oracle = actor_output(bundle.actor, s, np.random.default_rng(9))
        assert np.array_equal(a1, oracle.action)

    def test_log_std_clamped(self):
        net = zero_net([STATE_DIM, 8, 4])
        net.biases[-1][2:] = -20.0
        out = actor_output(net, np.zeros(STATE_DIM), np.random.default_rng(0))
        assert np.all(out.log_std == LOG_STD_MIN)
        net.biases[-1][2:] = 20.0
        out = actor_output(net, np.zeros(STATE_DIM), np.random.default_rng(0))
        assert np.all(out.log_std == LOG_STD_MAX)

    def test_width_mismatch_raises(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            forward_actor(bundle.actor, np.zeros(STATE_DIM + 1),
                          np.random.default_rng(0))

    def test_action_bounds(self):
        bundle = make_bundle()
        rng = np.random.default_rng(7)
        for _ in range(50):
            action = forward_actor(bundle.actor, rng.normal(size=STATE_DIM), rng)
            assert np.all(np.abs(action) <= 1.0)


class TestForwardCritic:
    def test_zero_net(self):
        net = zero_net([STATE_DIM + 2, 8, 1])
        assert forward_critic(net, np.ones(STATE_DIM), np.ones(2)) == 0.0

    def test_purity(self):
        bundle = make_bundle()
        s, a = np.ones(STATE_DIM), np.array([0.3, -0.2])
        assert forward_critic(bundle.critic, s, a) == \
            forward_critic(bundle.critic, s, a)

    def test_lipschitz_bound(self):
        # |Q(s,a) - Q(s,a+d)| <= L*|d| with L from the product of layer
        # spectral norms (tanh is 1-Lipschitz)
        bundle = make_bundle(seed=4)
        net = bundle.critic
        L = 1.0
        for w in net.weights:
            L *= np.linalg.norm(w, ord=2)
        rng = np.random.default_rng(5)
        s = rng.normal(size=STATE_DIM)
        for _ in range(50):
            a = rng.uniform(-1, 1, 2)
            d = rng.normal(size=2) * 1e-2
            q1 = forward_critic(net, s, a)
            q2 = forward_critic(net, s, a + d)
            assert abs(q1 - q2) <= L * np.linalg.norm(d) + 1e-12


class TestSquashedDensity:
    def test_monte_carlo_normalization(self):
        # integral of pi(a|s) over the action box is 1 (within MC error)
        bundle = make_bundle(seed=2)
        s = np.random.default_rng(0).normal(size=STATE_DIM) * 0.3
        rng = np.random.default_rng(42)
        n = 100_000
        actions = rng.uniform(-1.0, 1.0, size=(n, 2))
        log_p = np.array([action_log_density(bundle.actor, s, a)
                          for a in actions[:: 1]])
        integral = 4.0 * float(np.mean(np.exp(log_p)))
        assert abs(integral - 1.0) < 0.02

    def test_sample_path_density_consistency(self):
        # the log-prob reported at sampling matches the standalone density
        bundle = make_bundle(seed=3)
        s = np.random.default_rng(1).normal(size=STATE_DIM)
        out = actor_output(bundle.actor, s, np.random.default_rng(11))
        lp = action_log_density(bundle.actor, s, out.action)
        assert abs(lp - out.log_prob) < 1e-9


def squashed_entropy(mean, log_std):
    """Entropy in nats of tanh(N(mean, exp(log_std)**2)), elementwise.

    The Gaussian entropy plus E[log(1 - a**2 + SQUASH_EPS)], the same
    change-of-variables term as the policy's log-density, by
    Gauss-Hermite quadrature.
    """
    x, w = hermegauss(80)
    mean = np.asarray(mean, dtype=float)[..., None]
    log_std = np.asarray(log_std, dtype=float)[..., None]
    a = np.tanh(mean + np.exp(log_std) * x)
    log_jac = np.log(1.0 - a ** 2 + SQUASH_EPS) @ (w / w.sum())
    return 0.5 * (1.0 + math.log(2.0 * math.pi)) + log_std[..., 0] + log_jac


def entropy_maximiser():
    """(log sigma*, H*) maximising the squashed entropy at zero mean.

    With the squash correction the entropy is bounded: widening the
    Gaussian piles mass near |a| = 1, where the Jacobian term goes to
    log(SQUASH_EPS) (Haarnoja et al. 2018, arXiv:1801.01290, appendix C).
    Golden-section search; the maximiser lies near -0.13.
    """
    lo, hi = -1.0, 1.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        if squashed_entropy(0.0, c) > squashed_entropy(0.0, d):
            hi = d
        else:
            lo = c
    log_std_star = (lo + hi) / 2.0
    return log_std_star, float(squashed_entropy(0.0, log_std_star))


def run_entropy_dominated_actor(head_log_std):
    """500 actor updates with alpha=10 from a head log-sigma bias.

    Returns the batch's (mean log sigma, mean entropy per dimension) before
    and after; the entropy bonus dominates the critic's pull on the policy.
    """
    bundle = make_bundle(seed=8)
    bundle.actor.biases[-1][2:] = head_log_std
    cfg = TrainConfig(alpha=10.0, lr_actor=1e-2, hidden=(8, 8))
    rng = np.random.default_rng(2)
    batch = random_batch(32, rng)

    def stats():
        out = bundle.actor(batch.states)
        log_std = np.clip(out[:, 2:], LOG_STD_MIN, LOG_STD_MAX)
        return (float(np.mean(log_std)),
                float(np.mean(squashed_entropy(out[:, :2], log_std))))

    before = stats()
    for _ in range(500):
        actor_update(batch, bundle, cfg, rng)
    return before, stats()


def fd_check(loss_fn, net, analytic, rng, n_coords=40, h=1e-5, tol=1e-4):
    """Central finite differences on random coordinates vs analytic grads."""
    flat = net.params_flat()
    idx = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        net.set_params_flat(flat)
        up = loss_fn()
        flat[i] = orig - h
        net.set_params_flat(flat)
        down = loss_fn()
        flat[i] = orig
        net.set_params_flat(flat)
        fd = (up - down) / (2 * h)
        ga = analytic[i]
        assert abs(ga - fd) < tol * max(abs(ga), abs(fd), 1e-6), \
            f"coord {i}: analytic {ga} vs fd {fd}"


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_critic_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        bundle = make_bundle(seed=seed)
        batch = random_batch(8, rng)
        y = rng.normal(size=8)
        _, analytic = critic_loss_and_grads(bundle.critic, batch.states,
                                            batch.actions, y)

        def loss_fn():
            return critic_loss_and_grads(bundle.critic, batch.states,
                                         batch.actions, y)[0]

        fd_check(loss_fn, bundle.critic, analytic, rng)

    # alpha=10 is the entropy-dominated regime of the TestUpdates entropy
    # tests.  Only narrow-to-moderate log-sigma heads are checked at h=1e-5:
    # for log sigma >= 1.5 the forward pass loses precision in 1 - a**2 and
    # central differences drift by up to 6e-3 relative (they agree to 5e-5
    # at h=1e-4), so such a case would need the larger step.
    @pytest.mark.parametrize("seed,alpha", [
        *(pytest.param(seed, 0.2, id=str(seed)) for seed in range(10)),
        *(pytest.param(seed, 10.0, id=f"{seed}-alpha10") for seed in range(10)),
    ])
    def test_actor_gradients_match_finite_differences(self, seed, alpha):
        rng = np.random.default_rng(100 + seed)
        bundle = make_bundle(seed=seed)
        states = rng.normal(size=(8, STATE_DIM))
        noise = rng.standard_normal((8, 2))
        _, analytic = actor_loss_and_grads(bundle.actor, bundle.critic,
                                           states, noise, alpha)

        def loss_fn():
            return actor_loss_and_grads(bundle.actor, bundle.critic, states,
                                        noise, alpha)[0]

        fd_check(loss_fn, bundle.actor, analytic, rng)


class TestCriticTarget:
    def test_gamma_zero(self):
        bundle = make_bundle()
        cfg = TrainConfig(gamma=1e-12)  # gamma must be > 0; effectively zero
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        y = critic_target(batch, bundle, cfg, rng.standard_normal((6, 2)))
        assert np.allclose(y, batch.rewards, atol=1e-9)

    def test_terminal_masked(self):
        bundle = make_bundle()
        cfg = TrainConfig(gamma=0.9)
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng, terminal_frac=1.0)
        y = critic_target(batch, bundle, cfg, rng.standard_normal((6, 2)))
        assert np.array_equal(y, batch.rewards)

    def test_zero_critic_zero_alpha(self):
        bundle = make_bundle()
        bundle.target_critic = zero_net([STATE_DIM + 2, 8, 8, 1])
        cfg = TrainConfig(gamma=0.9, alpha=1e-300)
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        y = critic_target(batch, bundle, cfg, rng.standard_normal((6, 2)))
        assert np.allclose(y, batch.rewards, atol=1e-9)


class TestUpdates:
    def test_overfit_one_batch_critic(self):
        bundle = make_bundle(seed=6)
        cfg = TrainConfig(gamma=0.9, lr_critic=1e-2, hidden=(8, 8))
        rng = np.random.default_rng(1)
        batch = random_batch(16, rng)
        first = critic_update(batch, bundle, cfg, np.random.default_rng(5))
        last = first
        for _ in range(99):
            last = critic_update(batch, bundle, cfg, np.random.default_rng(5))
        assert last < first

    def test_zero_reward_zero_gamma_zero_critic_loss_zero(self):
        bundle = make_bundle()
        bundle.critic = zero_net([STATE_DIM + 2, 8, 8, 1])
        bundle.target_critic = zero_net([STATE_DIM + 2, 8, 8, 1])
        cfg = TrainConfig(gamma=1e-12, alpha=1e-300)
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        batch.rewards[:] = 0.0
        loss = critic_update(batch, bundle, cfg, rng)
        assert loss == 0.0

    def test_zero_critic_zero_alpha_actor_unchanged(self):
        bundle = make_bundle()
        bundle.critic = zero_net([STATE_DIM + 2, 8, 8, 1])
        cfg = TrainConfig(alpha=1e-300)
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        before = bundle.actor.params_flat()
        actor_update(batch, bundle, cfg, rng)
        assert np.allclose(bundle.actor.params_flat(), before, atol=1e-250)

    def test_entropy_domination_widens_policy(self):
        # Huge alpha: the entropy bonus dominates, but the tanh squash bounds
        # the entropy (Haarnoja et al. 2018, arXiv:1801.01290, appendix C),
        # so a narrow policy widens to its finite maximiser log sigma* ~ -0.13
        # rather than to LOG_STD_MAX.
        before, after = run_entropy_dominated_actor(head_log_std=-2.0)
        log_std_star, h_star = entropy_maximiser()
        assert after[0] > before[0]
        assert abs(after[0] - log_std_star) < 0.05
        assert after[1] > before[1]
        assert h_star - after[1] < 0.02

    def test_entropy_domination_narrows_wide_policy(self):
        # The same maximiser attracts from above: a wide policy narrows.
        before, after = run_entropy_dominated_actor(head_log_std=1.5)
        log_std_star, h_star = entropy_maximiser()
        assert after[0] < before[0]
        assert abs(after[0] - log_std_star) < 0.05
        assert after[1] > before[1]
        assert h_star - after[1] < 0.02

    def test_divergence_detected(self):
        bundle = make_bundle()
        cfg = TrainConfig()
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        batch.rewards[0] = np.inf
        # inf - inf in the backward pass.
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDiverged):
            critic_update(batch, bundle, cfg, rng)

    def test_actor_divergence_detected_before_the_step(self):
        bundle = make_bundle()
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        batch.states[0] = np.inf
        before = bundle.actor.params.copy()
        with pytest.warns(RuntimeWarning), \
                pytest.raises(TrainingDiverged, match="^actor loss diverged"):
            actor_update(batch, bundle, TrainConfig(), rng)
        assert np.array_equal(bundle.actor.params, before)

    @pytest.mark.parametrize("name", ["critic", "actor"])
    def test_non_finite_parameters_detected(self, name):
        # A finite loss whose step overflows: unclipped gradients of order
        # 1e3 (large rewards for the critic, a steep critic for the actor)
        # times a learning rate of 1e308.
        bundle = make_bundle()
        rng = np.random.default_rng(0)
        batch = random_batch(6, rng)
        cfg = TrainConfig(lr_actor=1e308, lr_critic=1e308, grad_clip=1e308)
        if name == "critic":
            batch.rewards *= 1e3
        else:
            bundle.critic.weights[-1][...] *= 1e3
        update = critic_update if name == "critic" else actor_update
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
                TrainingDiverged, match=f"^{name} parameters became non-finite"):
            update(batch, bundle, cfg, rng)

    def test_update_determinism(self):
        def run():
            bundle = make_bundle(seed=12)
            cfg = TrainConfig(hidden=(8, 8))
            rng = np.random.default_rng(3)
            batch_rng = np.random.default_rng(4)
            for _ in range(20):
                batch = random_batch(8, batch_rng)
                critic_update(batch, bundle, cfg, rng)
                actor_update(batch, bundle, cfg, rng)
                soft_update(bundle.target_critic, bundle.critic, cfg.tau)
            return np.concatenate([bundle.actor.params_flat(),
                                   bundle.critic.params_flat(),
                                   bundle.target_critic.params_flat()])

        assert np.array_equal(run(), run())

    def test_parameters_finite_after_updates(self):
        bundle = make_bundle(seed=13)
        cfg = TrainConfig(hidden=(8, 8), lr_actor=0.1, lr_critic=0.1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            batch = random_batch(8, rng)
            critic_update(batch, bundle, cfg, rng)
            actor_update(batch, bundle, cfg, rng)
        assert bundle.actor.is_finite()
        assert bundle.critic.is_finite()


class TestSoftUpdate:
    def test_tau_one_copies(self):
        a, b = make_bundle(seed=1), make_bundle(seed=2)
        soft_update(a.target_critic, b.critic, 1.0)
        assert np.array_equal(a.target_critic.params_flat(),
                              b.critic.params_flat())

    def test_tau_zero_keeps(self):
        a, b = make_bundle(seed=1), make_bundle(seed=2)
        before = a.target_critic.params_flat()
        soft_update(a.target_critic, b.critic, 1e-300)
        assert np.allclose(a.target_critic.params_flat(), before)

    def test_halfway(self):
        a = make_bundle(seed=1)
        t = zero_net([STATE_DIM + 2, 8, 8, 1])
        o = zero_net([STATE_DIM + 2, 8, 8, 1])
        for i in range(o.n_layers):
            o.weights[i][:] = 2.0
        soft_update(t, o, 0.5)
        assert np.all(t.weights[0] == 1.0)

    def test_shape_mismatch(self):
        t = zero_net([4, 8, 1])
        o = zero_net([4, 9, 1])
        with pytest.raises(ValueError):
            soft_update(t, o, 0.5)


class TestReplayBuffer:
    def test_sample_requires_fill(self):
        buf = ReplayBuffer(10, STATE_DIM)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))

    def test_ring_overwrite(self):
        buf = ReplayBuffer(4, 1)
        for i in range(6):
            buf.push(np.array([float(i)]), np.zeros(2), float(i),
                     np.zeros(1), False)
        assert buf.size == 4
        rewards = Batch.from_rows(buf.table, 1).rewards
        assert sorted(rewards.tolist()) == [2.0, 3.0, 4.0, 5.0]

    def test_seeded_sampling_reproducible(self):
        buf = ReplayBuffer(16, 1)
        for i in range(16):
            buf.push(np.array([float(i)]), np.zeros(2), float(i),
                     np.zeros(1), False)
        b1 = buf.sample(8, np.random.default_rng(9))
        b2 = buf.sample(8, np.random.default_rng(9))
        assert np.array_equal(b1.rewards, b2.rewards)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        bundle = make_bundle(seed=21)
        p1 = tmp_path / "a.cepn"
        p2 = tmp_path / "b.cepn"
        save_checkpoint(p1, bundle)
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        for net, orig in ((loaded.actor, bundle.actor),
                          (loaded.critic, bundle.critic),
                          (loaded.target_critic, bundle.target_critic)):
            assert net.widths == orig.widths
            assert np.array_equal(net.params_flat(), orig.params_flat())

    def test_magic_guard(self, tmp_path):
        p = tmp_path / "bad.cepn"
        p.write_bytes(b"NOPE1" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_truncated_names_offset(self, tmp_path):
        bundle = make_bundle(seed=24)
        full = tmp_path / "full.cepn"
        save_checkpoint(full, bundle)
        data = full.read_bytes()
        # (start, size) of each item in file order: magic, network count,
        # then per network its width count, widths and parameters.
        items = [(0, 5), (5, 4)]
        for net in (bundle.actor, bundle.critic, bundle.target_critic):
            pos = sum(items[-1])
            n_params = len(net.params_flat())
            items += [(pos, 4), (pos + 4, 4 * len(net.widths)),
                      (pos + 4 + 4 * len(net.widths), 8 * n_params)]
        assert sum(items[-1]) == len(data)
        cut_path = tmp_path / "cut.cepn"
        for start, size in items:
            for cut in sorted({start, start + 1, start + size - 1}):
                cut_path.write_bytes(data[:cut])
                with pytest.raises(ValueError,
                                   match=rf"truncated .* byte offset {start},"):
                    load_checkpoint(cut_path)

    def test_format_layout(self, tmp_path):
        bundle = make_bundle(seed=22)
        p = tmp_path / "c.cepn"
        save_checkpoint(p, bundle)
        data = p.read_bytes()
        assert data[:5] == b"CEPN1"
        import struct
        n_nets = struct.unpack_from("<I", data, 5)[0]
        assert n_nets == 3
        n_w = struct.unpack_from("<I", data, 9)[0]
        widths = struct.unpack_from(f"<{n_w}I", data, 13)
        assert list(widths) == bundle.actor.widths

    def test_loaded_behaves_identically(self, tmp_path):
        bundle = make_bundle(seed=23)
        p = tmp_path / "d.cepn"
        save_checkpoint(p, bundle)
        loaded = load_checkpoint(p)
        s = np.random.default_rng(3).normal(size=STATE_DIM)
        assert np.array_equal(actor_mean_action(bundle.actor, s),
                              actor_mean_action(loaded.actor, s))


# -- oracles: the per-layer update path and the five-array replay buffer that
# the flat parameter vector and the one replay table replaced


def layers(net: Mlp) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [w.copy() for w in net.weights], [b.copy() for b in net.biases]


def flatten(weights, biases) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b])
                           for w, b in zip(weights, biases)])


def per_layer_backward(weights, d_out, acts):
    """Per-layer (dW, db) and the input gradient, every layer computed."""
    grads = [None] * len(weights)
    dz = d_out
    for i in range(len(weights) - 1, -1, -1):
        if i < len(weights) - 1:
            dz = dz * (1.0 - acts[i + 1] ** 2)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
        dz = dz @ weights[i].T
    return grads, dz


def per_layer_clip(grads, clip):
    total = math.sqrt(sum(float(np.sum(dw ** 2) + np.sum(db ** 2))
                          for dw, db in grads))
    if total > clip:
        scale = clip / total
        grads = [(dw * scale, db * scale) for dw, db in grads]
    return grads, total


def per_layer_sgd(net: Mlp, grads, lr):
    weights, biases = layers(net)
    for i, (dw, db) in enumerate(grads):
        weights[i] = weights[i] - lr * dw
        biases[i] = biases[i] - lr * db
    return flatten(weights, biases)


def per_layer_critic_update(batch, nets, cfg, rng):
    """``critic_update`` on per-layer arrays: (new critic params, pre-clip
    gradient norm)."""
    noise = rng.standard_normal((len(batch), nets.actor.widths[-1] // 2))
    y = critic_target(batch, nets, cfg, noise)
    q, acts = nets.critic.forward(np.concatenate([batch.states,
                                                  batch.actions], axis=1))
    diff = q[:, 0] - y
    grads, _ = per_layer_backward(nets.critic.weights,
                                  (2.0 * diff / len(diff)).reshape(-1, 1),
                                  acts)
    grads, total = per_layer_clip(grads, cfg.grad_clip)
    return per_layer_sgd(nets.critic, grads, cfg.lr_critic), total


def per_layer_actor_update(batch, nets, cfg, rng):
    """``actor_update`` on per-layer arrays with a full critic backward:
    (new actor params, pre-clip gradient norm)."""
    n, alpha = len(batch), cfg.alpha
    noise = rng.standard_normal((n, nets.actor.widths[-1] // 2))
    action, _, cache = actor_sample_batch(nets.actor, batch.states, noise)
    _, q_acts = nets.critic.forward(np.concatenate([batch.states, action],
                                                   axis=1))
    _, d_input = per_layer_backward(nets.critic.weights,
                                    np.full((n, 1), -1.0 / n), q_acts)
    d_a = d_input[:, batch.states.shape[1]:]
    a = cache["action"]
    d_a = d_a + (alpha / n) * 2.0 * a / (1.0 - a ** 2 + SQUASH_EPS)
    d_pre = d_a * (1.0 - a ** 2)
    d_log_std = d_pre * cache["std"] * cache["noise"] - (alpha / n)
    clip_mask = (cache["raw"] > LOG_STD_MIN) & (cache["raw"] < LOG_STD_MAX)
    d_out = np.concatenate([d_pre, d_log_std * clip_mask], axis=1)
    grads, _ = per_layer_backward(nets.actor.weights, d_out, cache["acts"])
    grads, total = per_layer_clip(grads, cfg.grad_clip)
    return per_layer_sgd(nets.actor, grads, cfg.lr_actor), total


class FiveArrayBuffer:
    """The replay ring as five parallel arrays, one per field."""

    def __init__(self, capacity, state_dim, action_dim=2):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.terminals = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.cursor = 0

    def push(self, s, a, r, s2, terminal):
        i = self.cursor
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s2
        self.terminals[i] = terminal
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size, rng):
        idx = rng.integers(0, self.size, size=batch_size)
        return Batch(self.states[idx], self.actions[idx], self.rewards[idx],
                     self.next_states[idx], self.terminals[idx])


SEEDS = range(6)
CLIPS = [pytest.param(1e-3, True, id="clipped"),
         pytest.param(1e6, False, id="unclipped")]


class TestFlatParameters:
    def test_weight_and_bias_writes_change_params(self):
        net = Mlp.create([3, 4, 2], np.random.default_rng(0))
        net.weights[1][2, 1] = 7.0
        net.biases[0][3] = -5.0
        flat = net.params_flat()
        assert flat[3 * 4 + 4 + 2 * 2 + 1] == 7.0
        assert flat[3 * 4 + 3] == -5.0

    def test_params_in_checkpoint_order(self):
        net = Mlp.create([5, 8, 8, 3], np.random.default_rng(1))
        assert np.array_equal(net.params_flat(), flatten(*layers(net)))

    def test_layers_cannot_be_rebound(self):
        net = Mlp.create([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((3, 4))

    def test_copy_shares_no_memory(self):
        net = Mlp.create([3, 4, 2], np.random.default_rng(0))
        clone = net.copy()
        assert not np.shares_memory(clone.params, net.params)
        for a, b in zip(clone.weights + clone.biases,
                        net.weights + net.biases):
            assert not np.shares_memory(a, b)
        clone.weights[0][0, 0] += 1.0
        assert not np.array_equal(clone.params_flat(), net.params_flat())

    def test_constructor_copies_its_vector(self):
        vec = np.arange(float(_param_count([3, 4, 2])))
        net = Mlp([3, 4, 2], vec)
        assert not np.shares_memory(net.params, vec)
        with pytest.raises(ValueError, match="size mismatch"):
            Mlp([3, 4, 2], vec[:-1])


class TestAgainstPerLayerOracle:
    """The flat-vector update path gives exactly the per-layer results."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backward(self, seed):
        rng = np.random.default_rng(seed)
        net = Mlp.create([STATE_DIM, 8, 5, 3], rng)
        _, acts = net.forward(rng.normal(size=(16, STATE_DIM)))
        d_out = rng.normal(size=(16, 3))
        grads, d_input = per_layer_backward(net.weights, d_out, acts)
        assert np.array_equal(net.backward(d_out, acts),
                              flatten(*zip(*grads)))
        assert np.array_equal(net.input_gradient(d_out, acts), d_input)

    @pytest.mark.parametrize("clip,clipped", CLIPS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_critic_update(self, seed, clip, clipped):
        bundle = make_bundle(seed=seed)
        cfg = TrainConfig(hidden=(8, 8), grad_clip=clip)
        batch = random_batch(16, np.random.default_rng(seed + 50), 0.3)
        expected, total = per_layer_critic_update(
            batch, bundle, cfg, np.random.default_rng(seed))
        assert (total > clip) is clipped
        critic_update(batch, bundle, cfg, np.random.default_rng(seed))
        assert np.array_equal(bundle.critic.params_flat(), expected)

    @pytest.mark.parametrize("clip,clipped", CLIPS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_actor_update(self, seed, clip, clipped):
        bundle = make_bundle(seed=seed)
        cfg = TrainConfig(hidden=(8, 8), grad_clip=clip)
        batch = random_batch(16, np.random.default_rng(seed + 50))
        expected, total = per_layer_actor_update(
            batch, bundle, cfg, np.random.default_rng(seed))
        assert (total > clip) is clipped
        actor_update(batch, bundle, cfg, np.random.default_rng(seed))
        assert np.array_equal(bundle.actor.params_flat(), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soft_update(self, seed):
        target, online = make_bundle(seed=seed).critic, \
            make_bundle(seed=seed + 100).critic
        tau = float(np.random.default_rng(seed).uniform(0.001, 1.0))
        (tw, tb), (ow, ob) = layers(target), layers(online)
        expected = flatten([(1.0 - tau) * t + tau * o for t, o in zip(tw, ow)],
                           [(1.0 - tau) * t + tau * o for t, o in zip(tb, ob)])
        soft_update(target, online, tau)
        assert np.array_equal(target.params_flat(), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_buffer(self, seed):
        rng = np.random.default_rng(seed)
        new, old = ReplayBuffer(20, STATE_DIM), FiveArrayBuffer(20, STATE_DIM)
        for _ in range(int(rng.integers(20, 50))):
            row = (rng.normal(size=STATE_DIM), rng.uniform(-1, 1, 2),
                   float(rng.normal()), rng.normal(size=STATE_DIM),
                   bool(rng.uniform() < 0.3))
            new.push(*row)
            old.push(*row)
        a = new.sample(16, np.random.default_rng(seed))
        b = old.sample(16, np.random.default_rng(seed))
        for name in ("states", "actions", "rewards", "next_states",
                     "terminals"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (new.size, new.cursor) == (old.size, old.cursor)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequence_of_updates(self, seed):
        # Twenty steps of the training loop's update triple on both paths.
        bundle = make_bundle(seed=seed)
        cfg = TrainConfig(hidden=(8, 8), grad_clip=0.5, lr_actor=0.05,
                          lr_critic=0.05)
        rng, batch_rng = np.random.default_rng(seed), \
            np.random.default_rng(seed + 1)
        oracle = bundle.copy()
        oracle_rng = np.random.default_rng(seed)
        for _ in range(20):
            batch = random_batch(8, batch_rng, 0.2)
            critic, _ = per_layer_critic_update(batch, oracle, cfg, oracle_rng)
            oracle.critic.set_params_flat(critic)
            actor, _ = per_layer_actor_update(batch, oracle, cfg, oracle_rng)
            oracle.actor.set_params_flat(actor)
            (tw, tb), (ow, ob) = layers(oracle.target_critic), \
                layers(oracle.critic)
            oracle.target_critic.set_params_flat(flatten(
                [(1.0 - cfg.tau) * t + cfg.tau * o for t, o in zip(tw, ow)],
                [(1.0 - cfg.tau) * t + cfg.tau * o for t, o in zip(tb, ob)]))

            critic_update(batch, bundle, cfg, rng)
            actor_update(batch, bundle, cfg, rng)
            soft_update(bundle.target_critic, bundle.critic, cfg.tau)
        for name in ("actor", "critic", "target_critic"):
            assert np.array_equal(getattr(bundle, name).params_flat(),
                                  getattr(oracle, name).params_flat()), name
