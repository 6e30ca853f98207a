"""Small MLP actor/critic with manual backpropagation and soft-AC losses.

All math is float64 numpy; no autodiff framework.  Networks are stacks of
dense layers with tanh hidden activations and a linear output layer.

Actor head: ``2*ACTION_DIM`` outputs split into a mean and a raw log-std
(clamped to [-5, 2]).  Actions are tanh-squashed Gaussian samples with the
exact squash correction in the log-density::

    a = tanh(mu + sigma * xi),  xi ~ N(0, I)
    log pi(a|s) = sum_k [ -xi_k^2/2 - log sigma_k - log(2 pi)/2
                          - log(1 - a_k^2 + 1e-6) ]

With the squash correction the policy's entropy is bounded and peaks at a
finite sigma (log sigma ~ -0.13 per dimension at zero mean), so a large
alpha does not drive log sigma to ``LOG_STD_MAX``.

Updates (:func:`sac_update`, once per environment step): one actor pass
over the 2B rows ``[s'; s]`` of a batch of B transitions, with one
``(2B, ACTION_DIM)`` noise draw, serves both steps that follow it:

* critic: minimize mean squared (Q(s,a) - y) with
  ``y = r + gamma * (Q_target(s', a') - alpha * log pi(a'|s'))`` and the
  bootstrap masked on terminal transitions; a' is the pass's first half.
* actor: ascend ``E[Q(s, a_theta) - alpha * log pi(a_theta|s)]`` through the
  reparameterized sample of the pass's second half, against the critic the
  first step just moved.

Both use plain SGD with global gradient-norm clipping; the target critic
then tracks the online critic by Polyak averaging.  The one draw equals
two B-row draws, and each half of the pass equals a B-row pass bit for bit
where BLAS rounds a row of a product alike whatever the row count: at the
shipped batch of 64, but not at B = 1, whose 1-row products go through gemv.

An :class:`Mlp`'s parameters are one float64 vector ``params`` in checkpoint
order, with ``weights[i]``/``biases[i]`` as views; gradients share the layout,
so SGD, clipping (its norm still summed layer by layer, weights then bias),
Polyak averaging and checkpoint I/O each touch one array.  :meth:`Mlp.backward`
skips the layer-0 input gradient; the actor update's critic pass uses
:meth:`Mlp.input_gradient`, which computes only that.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .env import check_config, check_integer

__all__ = [
    "Mlp",
    "ReplayBuffer",
    "Batch",
    "ActorSample",
    "TrainConfig",
    "PolicyBundle",
    "TrainingDiverged",
    "forward_actor",
    "actor_mean_action",
    "actor_sample_batch",
    "critic_target",
    "critic_loss_and_grads",
    "actor_loss_and_grads",
    "critic_update",
    "actor_update",
    "soft_update",
    "sac_update",
    "save_checkpoint",
    "load_checkpoint",
    "ACTION_DIM",
]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_MAGIC = b"CEPN1"
ACTION_DIM = 2


class TrainingDiverged(RuntimeError):
    """Raised when an update produces a non-finite loss or parameters."""


class Mlp:
    """Dense stack: tanh on hidden layers, linear output.  Holds its own copy
    of ``params``; write ``weights[i]`` and ``biases[i]`` in place."""

    def __init__(self, widths: list[int], params: np.ndarray):
        self.widths = list(widths)
        self.params = np.array(params, dtype=float)
        # Per layer: the weight's slice and shape, and the bias's slice.
        self.layout, pos = [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            w = slice(pos, pos + fan_in * fan_out)
            pos = w.stop + fan_out
            self.layout.append((w, (fan_in, fan_out), slice(w.stop, pos)))
        if self.params.shape != (pos,):
            raise ValueError("parameter vector size mismatch")
        self.n_layers = len(self.layout)
        self.weights = tuple(self.params[w].reshape(shape)
                             for w, shape, _ in self.layout)
        self.biases = tuple(self.params[b] for _, _, b in self.layout)

    @classmethod
    def create(cls, widths: list[int], rng: np.random.Generator) -> "Mlp":
        """Glorot-uniform weights, zero biases."""
        chunks = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
            chunks.append(np.zeros(fan_out))
        return cls(widths, np.concatenate(chunks))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns the output and the per-layer activations (inputs first);
        the caches feed :meth:`backward`.  An input whose last axis is not the
        network's input width raises ``ValueError``."""
        if x.shape[-1] != self.widths[0]:
            raise ValueError(f"input width {x.shape[-1]} != network input "
                             f"width {self.widths[0]}")
        acts = [x]
        for i in range(self.n_layers):
            z = acts[-1] @ self.weights[i]
            z += self.biases[i]
            if i < self.n_layers - 1:
                np.tanh(z, out=z)
            acts.append(z)
        return acts[-1], acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, d_out: np.ndarray, acts: list[np.ndarray]) -> np.ndarray:
        """Backprop ``d(objective)/d(output)`` through cached activations
        into the parameter gradient, a vector laid out as ``params``."""
        grad = np.empty_like(self.params)
        dz = d_out
        for i in range(self.n_layers - 1, -1, -1):
            w, shape, b = self.layout[i]
            np.matmul(acts[i].T, dz, out=grad[w].reshape(shape))
            np.add.reduce(dz, axis=0, out=grad[b])
            if i:
                dz = (dz @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grad

    def input_gradient(self, d_out: np.ndarray, acts: list[np.ndarray]
                       ) -> np.ndarray:
        """Backprop ``d(objective)/d(output)`` to the gradient w.r.t. the
        input only (pushes critic gradients into the actor's action)."""
        dz = d_out
        for i in range(self.n_layers - 1, 0, -1):
            dz = (dz @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return dz @ self.weights[0].T

    def params_flat(self) -> np.ndarray:
        return self.params.copy()

    def copy(self) -> "Mlp":
        return Mlp(self.widths, self.params)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.params).all())


@dataclass
class Batch:
    """Sampled transitions; ``terminals`` is 1.0 (or True) where terminal."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray

    @classmethod
    def from_rows(cls, rows: np.ndarray, state_dim: int) -> "Batch":
        """Column views of replay rows laid out as :class:`ReplayBuffer`'s."""
        a_end = state_dim + ACTION_DIM
        return cls(rows[:, :state_dim], rows[:, state_dim:a_end],
                   rows[:, a_end], rows[:, a_end + 1:-1], rows[:, -1])

    def __len__(self) -> int:
        return len(self.states)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with seeded uniform sampling; a
    ``table`` row is state, action, reward, next state, terminal (1.0/0.0)."""

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.state_dim = state_dim
        self.table = np.zeros((capacity, 2 * state_dim + ACTION_DIM + 2))
        self.size = 0
        self.cursor = 0

    def push(self, s: np.ndarray, a: np.ndarray, r: float, s2: np.ndarray,
             terminal: bool) -> None:
        i = self.cursor
        np.concatenate((s, a, (r,), s2, (terminal,)), out=self.table[i])
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self.size < batch_size:
            raise ValueError("buffer smaller than batch size")
        idx = rng.integers(0, self.size, size=batch_size)
        # Fancy indexing returns a copy, so the batch owns its rows.
        return Batch.from_rows(self.table[idx], self.state_dim)


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    alpha: float = 0.2
    lr_actor: float = 1e-3
    lr_critic: float = 1e-3
    tau: float = 0.01
    batch_size: int = 64
    buffer_capacity: int = 100_000
    hidden: tuple[int, ...] = (64, 64)
    grad_clip: float = 1.0
    checkpoint_every: int = 50

    def __post_init__(self) -> None:
        check_config(self, ("lr_actor", "lr_critic", "batch_size",
                            "buffer_capacity", "grad_clip",
                            "checkpoint_every"))
        for name in ("gamma", "tau"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size {self.batch_size} must be <= "
                             f"buffer_capacity {self.buffer_capacity}, or "
                             f"the buffer never holds a batch to train on")
        if not isinstance(self.hidden, tuple):
            raise ValueError(f"hidden must be a tuple, got {self.hidden!r}")
        for width in self.hidden:
            check_integer("each hidden width", width)
        if not all(width >= 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")


@dataclass
class PolicyBundle:
    """Actor, critic, and target critic (SGD keeps no optimizer state)."""

    actor: Mlp
    critic: Mlp
    target_critic: Mlp

    @classmethod
    def create(cls, state_dim: int, cfg: TrainConfig,
               rng: np.random.Generator) -> "PolicyBundle":
        actor = Mlp.create([state_dim, *cfg.hidden, 2 * ACTION_DIM], rng)
        # Small head: the initial policy is near-zero mean with unit std,
        # i.e. isotropic exploration rather than a heading bias.
        actor.weights[-1][...] *= 0.01
        critic = Mlp.create([state_dim + ACTION_DIM, *cfg.hidden, 1], rng)
        return cls(actor, critic, critic.copy())

    def copy(self) -> "PolicyBundle":
        return PolicyBundle(self.actor.copy(), self.critic.copy(),
                            self.target_critic.copy())


def _split_actor_head(out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = out[:, :ACTION_DIM]
    raw = out[:, ACTION_DIM:]
    log_std = np.minimum(np.maximum(raw, LOG_STD_MIN), LOG_STD_MAX)
    return mean, raw, log_std


@dataclass
class ActorSample:
    """One actor pass over a batch of states with explicit noise: the
    squashed actions, their log-densities, and what the actor's backward
    pass reads (the layer activations, the raw log-std head, the std and
    the noise).  Indexing by a row slice slices every field alike."""

    acts: list[np.ndarray]
    raw: np.ndarray
    std: np.ndarray
    noise: np.ndarray
    action: np.ndarray
    log_prob: np.ndarray

    def __getitem__(self, rows: slice) -> "ActorSample":
        return ActorSample([a[rows] for a in self.acts], self.raw[rows],
                           self.std[rows], self.noise[rows],
                           self.action[rows], self.log_prob[rows])


def actor_sample_batch(net: Mlp, states: np.ndarray, noise: np.ndarray
                       ) -> ActorSample:
    """Squashed-Gaussian samples for a batch given explicit noise."""
    out, acts = net.forward(states)
    mean, raw, log_std = _split_actor_head(out)
    std = np.exp(log_std)
    pre = mean + std * noise
    action = np.tanh(pre)
    log_prob = np.add.reduce(-0.5 * noise ** 2 - log_std - 0.5 * _LOG_2PI
                             - np.log(1.0 - action ** 2 + SQUASH_EPS), axis=1)
    return ActorSample(acts, raw, std, noise, action, log_prob)


def forward_actor(net: Mlp, state: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample one squashed action; deterministic given (net, state, rng state)."""
    s = np.asarray(state, dtype=float).reshape(1, -1)
    noise = rng.standard_normal((1, ACTION_DIM))
    mean, _, log_std = _split_actor_head(net(s))
    return np.tanh(mean + np.exp(log_std) * noise)[0]


def actor_mean_action(net: Mlp, state: np.ndarray) -> np.ndarray:
    """Deterministic evaluation action: squashed mean, no noise."""
    s = np.asarray(state, dtype=float).reshape(1, -1)
    out = net(s)
    mean, _, _ = _split_actor_head(out)
    return np.tanh(mean[0])


def critic_target(batch: Batch, nets: PolicyBundle, cfg: TrainConfig,
                  next_sample: ActorSample) -> np.ndarray:
    """Per-sample regression target from the actor's sample at the next
    states; bootstrap masked on terminals."""
    q2 = nets.target_critic(np.concatenate([batch.next_states,
                                            next_sample.action], axis=1))[:, 0]
    boot = q2 - cfg.alpha * next_sample.log_prob
    return batch.rewards + cfg.gamma * boot * (1.0 - batch.terminals)


def critic_loss_and_grads(critic: Mlp, states: np.ndarray, actions: np.ndarray,
                          y: np.ndarray) -> tuple[float, np.ndarray]:
    x = np.concatenate([states, actions], axis=1)
    q, acts = critic.forward(x)
    diff = q[:, 0] - y
    n = len(diff)
    loss = float(np.add.reduce(diff ** 2) / n)
    d_q = (2.0 * diff / n).reshape(-1, 1)
    return loss, critic.backward(d_q, acts)


def actor_loss_and_grads(actor: Mlp, critic: Mlp, states: np.ndarray,
                         sample: ActorSample, alpha: float
                         ) -> tuple[float, np.ndarray]:
    """Loss mean(alpha*logpi - Q) and its actor gradients (critic frozen),
    for the actor's ``sample`` at ``states``.

    The gradient flows through the squashed sample into the critic's action
    input and through the explicit mean/log-std dependence of the density.
    """
    n = len(states)
    a = sample.action
    x = np.concatenate([states, a], axis=1)
    q, q_acts = critic.forward(x)
    q = q[:, 0]
    loss = float(np.add.reduce(alpha * sample.log_prob - q) / n)

    # d(loss)/dQ = -1/n per sample -> gradient w.r.t. the critic's input
    d_input = critic.input_gradient(np.full((n, 1), -1.0 / n), q_acts)
    d_a = d_input[:, states.shape[1]:]

    # squash-correction term of log pi differentiates to 2a/(1-a^2+eps)
    d_a = d_a + (alpha / n) * 2.0 * a / (1.0 - a ** 2 + SQUASH_EPS)
    d_pre = d_a * (1.0 - a ** 2)
    d_mean = d_pre
    d_log_std = d_pre * sample.std * sample.noise - (alpha / n)
    clip_mask = ((sample.raw > LOG_STD_MIN) & (sample.raw < LOG_STD_MAX))
    d_raw = d_log_std * clip_mask
    d_out = np.concatenate([d_mean, d_raw], axis=1)
    return loss, actor.backward(d_out, sample.acts)


def _descend(net: Mlp, name: str, loss: float, grads: np.ndarray,
             clip: float, lr: float) -> float:
    """One SGD step of ``net`` (called ``name`` in errors) on ``grads``, laid
    out as ``net.params``, scaled in place to global norm ``clip`` if
    longer; returns ``loss``.  A non-finite loss, or parameters made
    non-finite by the step, raise :class:`TrainingDiverged`."""
    if not math.isfinite(loss):
        raise TrainingDiverged(f"{name} loss diverged: {loss}")
    sq = grads * grads
    # A left fold, not sum(): from Python 3.12 sum() of floats compensates
    # its rounding, and the step must not depend on the interpreter.
    total = 0.0
    for w, _, b in net.layout:
        total += float(np.add.reduce(sq[w]) + np.add.reduce(sq[b]))
    total = math.sqrt(total)
    if total > clip:
        grads *= clip / total
    net.params -= lr * grads
    if not net.is_finite():
        raise TrainingDiverged(f"{name} parameters became non-finite")
    return loss


def critic_update(batch: Batch, nets: PolicyBundle, cfg: TrainConfig,
                  next_sample: ActorSample) -> float:
    """One SGD step on the critic regression loss, its target taken from
    the actor's ``next_sample`` at ``batch.next_states``; returns the
    pre-step loss."""
    y = critic_target(batch, nets, cfg, next_sample)
    loss, grads = critic_loss_and_grads(nets.critic, batch.states,
                                        batch.actions, y)
    return _descend(nets.critic, "critic", loss, grads, cfg.grad_clip,
                    cfg.lr_critic)


def actor_update(batch: Batch, nets: PolicyBundle, cfg: TrainConfig,
                 sample: ActorSample) -> float:
    """One SGD step ascending the reparameterized objective through the
    actor's ``sample`` at ``batch.states``; returns the pre-step loss."""
    loss, grads = actor_loss_and_grads(nets.actor, nets.critic, batch.states,
                                       sample, cfg.alpha)
    return _descend(nets.actor, "actor", loss, grads, cfg.grad_clip,
                    cfg.lr_actor)


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """Polyak update: target <- (1 - tau) * target + tau * online."""
    if target.widths != online.widths:
        raise ValueError("shape mismatch between target and online networks")
    target.params *= 1.0 - tau
    target.params += tau * online.params


def sac_update(batch: Batch, nets: PolicyBundle, cfg: TrainConfig,
               rng: np.random.Generator) -> tuple[float, float]:
    """One soft actor-critic update: a critic step, an actor step and the
    target's Polyak step, served by one actor pass over ``[next_states;
    states]`` (see the module docstring).  Returns the pre-step (critic,
    actor) losses; a diverged step raises :class:`TrainingDiverged`."""
    n = len(batch)
    noise = rng.standard_normal((2 * n, ACTION_DIM))
    sample = actor_sample_batch(
        nets.actor, np.concatenate([batch.next_states, batch.states]), noise)
    critic_loss = critic_update(batch, nets, cfg, sample[:n])
    actor_loss = actor_update(batch, nets, cfg, sample[n:])
    soft_update(nets.target_critic, nets.critic, cfg.tau)
    return critic_loss, actor_loss


# -- checkpoint serialization -------------------------------------------------
#
# Layout: magic "CEPN1", u32 network count, then per network a u32 width count,
# the widths as u32, and the parameters as little-endian float64 in layer
# order (each layer's weight matrix row-major, then its bias vector).
# Networks are written actor, critic, target critic.


def save_checkpoint(path, bundle: PolicyBundle) -> None:
    blobs = [CHECKPOINT_MAGIC,
             struct.pack("<I", 3)]
    for net in (bundle.actor, bundle.critic, bundle.target_critic):
        blobs.append(struct.pack("<I", len(net.widths)))
        blobs.append(struct.pack(f"<{len(net.widths)}I", *net.widths))
        blobs.append(net.params_flat().astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(blobs))


def _param_count(widths: list[int]) -> int:
    return sum((i + 1) * o for i, o in zip(widths[:-1], widths[1:]))


def _need(data: bytes, pos: int, size: int, what: str) -> None:
    if pos + size > len(data):
        raise ValueError(f"truncated checkpoint: {what} needs {size} bytes at "
                         f"byte offset {pos}, but the file ends at byte "
                         f"{len(data)}")


def load_checkpoint(path) -> PolicyBundle:
    """Read a bundle written by :func:`save_checkpoint`.  A file that is
    truncated, has trailing bytes, a wrong magic, a network with a non-finite
    parameter or networks that do not fit together as an actor, critic and
    target critic raises ``ValueError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    _need(data, 0, len(CHECKPOINT_MAGIC), "the magic")
    if data[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    _need(data, pos, 4, "the network count")
    (n_nets,) = struct.unpack_from("<I", data, pos)
    pos += 4
    nets = []
    for k in range(n_nets):
        _need(data, pos, 4, f"the width count of network {k}")
        (n_widths,) = struct.unpack_from("<I", data, pos)
        pos += 4
        _need(data, pos, 4 * n_widths, f"the widths of network {k}")
        widths = list(struct.unpack_from(f"<{n_widths}I", data, pos))
        pos += 4 * n_widths
        count = _param_count(widths)
        _need(data, pos, 8 * count, f"the parameters of network {k}")
        nets.append(Mlp(widths, np.frombuffer(data, dtype="<f8", count=count,
                                              offset=pos)))
        pos += 8 * count
    if pos != len(data):
        raise ValueError("trailing bytes in checkpoint")
    if len(nets) != 3:
        raise ValueError(f"expected 3 networks in checkpoint, got {len(nets)}")
    for name, net in zip(("actor", "critic", "target critic"), nets):
        if len(net.widths) < 2 or 0 in net.widths:
            raise ValueError(f"checkpoint {name} widths {net.widths}: a "
                             f"network needs at least 2 widths, each >= 1")
        if not net.is_finite():
            raise ValueError(f"checkpoint {name} parameters are not all "
                             f"finite")
    actor, critic, target = (net.widths for net in nets)
    if actor[-1] != 2 * ACTION_DIM:
        raise ValueError(f"checkpoint actor widths {actor}: the output must "
                         f"be {2 * ACTION_DIM} wide (2 x action dim)")
    if critic[0] != actor[0] + ACTION_DIM or critic[-1] != 1 or \
            target != critic:
        raise ValueError(f"checkpoint critic widths {critic} and target critic "
                         f"widths {target} must be equal, start at the "
                         f"actor's input {actor[0]} + {ACTION_DIM} and end at 1")
    return PolicyBundle(*nets)
