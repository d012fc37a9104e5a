"""Compact clipped-surrogate policy-gradient trainer (numpy, single process).

Per update: collect a fixed-length rollout (episodes sample a train context
uniformly at each reset; the policy is read from a per-rollout table that
holds every cell's value, probabilities and sampling CDF), compute GAE
advantages, then run several epochs of shuffled minibatch updates on the
clipped surrogate with value and entropy terms, optimized by Adam. Each epoch
gathers the rollout once in its shuffled order, centres and scales the
advantages of all its minibatches in one pass, and slices the minibatches out
of it; one vectorised pass per epoch finds every minibatch's distinct cells
and ``row_plan`` makes the per-row arrays that do not depend on the parameters.
A minibatch holds cell indices, not one-hot rows, and every product of the
update has one row per distinct cell: the forward is ``trunk_activations`` on
those cells, and the backward reads each cell's summed row gradients.
A rollout step records the value it bootstraps from, zero after a goal or a
hole and the successor's value otherwise, so GAE is one recurrence. A greedy
evaluation on the eval contexts runs at the end of each rollout that crosses
a multiple of the evaluation interval, and once more after the last rollout
if that one did not; the best-scoring parameters are the ones returned.

Training works on a policy of the grid's own input width: the n² rows of W0
a cell of an n x n grid reads, and every parameter after W0, copied array by
array through ``parameters()``. The other rows would get no gradient, so
their Adam moments would stay zero and their values would not move. Each
better evaluation writes the working policy back the same way into the
64-input policy that is returned, whose other rows keep their initial
values. Adam keeps its moments divided by ``1 - beta``, so its bias corrections
fold into two scalars per step.

Everything is float64 and driven by one seeded generator, so a seed pins the
run's bytes on one BLAS build. The table, the gathers and the in-place Adam
keep the arithmetic and the rng draws of a forward, an ``rng.choice`` and an
allocating Adam per step; the gradient is that of one-hot rows to about
1e-14. Training updates the policy's parameter vector in place. Gradients
are hand-derived and come back as one vector laid out like ``MlpPolicy.flat``,
so they can be checked against finite differences.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import env as env_mod
from . import gate as gate_mod
from . import metrics as metrics_mod
from . import policy as policy_mod
from .atomic import write_atomic
from .env import Action, Outcome
from .gate import GateConfig, RunMode, csv_text
from .metrics import RunSummary
from .policy import MlpPolicy

TRAINLOG_CSV_HEADER = ["timestep", "eval_reward_mean", "eval_reward_std", "eval_len_mean"]
_ACTIONS = tuple(Action)
_ONE_HOT = np.eye(policy_mod.N_ACTIONS)  # row a: the one-hot of action a
_ABSORBING = (Outcome.GOAL, Outcome.HOLE)  # no value after these
_FOLD_WIDTH = policy_mod.N_ACTIONS + 1  # a row's logit gradients, then its value's

# The standard PPO loss settings (Schulman et al., arXiv 1707.06347); the
# learning rate is ``_Adam.lr``.
CLIP = 0.2
GAMMA = 0.99
GAE_LAMBDA = 0.95
ENTROPY_COEF = 0.01
VALUE_COEF = 0.5
# The standard PPO batching.
ROLLOUT_STEPS = 2048
MINIBATCH_SIZE = 64
EPOCHS = 10


@dataclass(frozen=True)
class PpoConfig:
    total_timesteps: int = 1_000_000
    eval_interval: int = 50_000
    eval_episodes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.total_timesteps < 0:
            raise ValueError("total_timesteps must be >= 0")
        for name in ("eval_interval", "eval_episodes"):
            if not getattr(self, name) > 0:  # false for NaN too
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainLogEntry:
    timestep: int
    summary: RunSummary


@dataclass(frozen=True)
class TrainLog:
    entries: tuple[TrainLogEntry, ...]
    best_index: int          # -1 when no evaluation ran
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Loss and analytic gradients.

def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def row_plan(inverse: np.ndarray, actions: np.ndarray) -> dict[str, np.ndarray]:
    """The per-row arrays of a ``ppo_grads`` batch that do not depend on the
    parameters: each row's flat index into its cells' ``(k, 4)`` log-probs,
    its action's one-hot row, and the keys under which its five output
    gradients (four logits and the value) are summed per cell. ``train``
    makes them once per epoch and slices each minibatch's rows out of them.
    """
    return {
        "logp_index": inverse * policy_mod.N_ACTIONS + actions,
        "one_hot": _ONE_HOT[actions],
        "fold_keys": (inverse * _FOLD_WIDTH)[:, None] + np.arange(_FOLD_WIDTH),
    }


def ppo_grads(
    policy: MlpPolicy, batch: dict[str, np.ndarray], grad: MlpPolicy,
) -> tuple[float, np.ndarray]:
    """Loss plus the hand-derived gradient, one vector laid out like ``policy.flat``.

    The batch holds cell indices, not observations: ``cells`` are the
    minibatch's distinct cells and ``inverse`` gives each row's position in
    them, as ``np.unique(..., return_inverse=True)`` returns them; the keys of
    ``row_plan(inverse, actions)`` carry the rows' actions. Every matrix
    product has one row per distinct cell: the batch rows gather the cells'
    log-probabilities and values, and one ``np.bincount`` sums their loss
    gradients per cell before the backward pass. So the gradient equals that
    of the same batch as one-hot rows to rounding (about 1e-14 of each
    array's largest entry), and bit for bit when the cells are distinct and
    ascending. The gradient is written into ``grad``, a layout of the
    policy's widths whose vector is returned and overwritten by the next
    call that gets it.
    """
    cells, inverse = batch["cells"], batch["inverse"]
    adv = batch["advantages"]
    n = len(inverse)

    acts = policy_mod.trunk_activations(policy, cells)
    (wa, ba), (wv, bv) = policy.action_head, policy.value_head
    cell_logp = _log_softmax(acts[-1] @ wa + ba)
    cell_probs = np.exp(cell_logp)
    cell_entropy = -np.add.reduce(cell_probs * cell_logp, axis=1)
    # take copies the same rows as fancy indexing, faster.
    logp_all, probs = cell_logp.take(inverse, axis=0), cell_probs.take(inverse, axis=0)
    per_pass_entropy = cell_entropy.take(inverse)
    values = (acts[-1] @ wv + bv).take(inverse)
    ratio = np.exp(cell_logp.take(batch["logp_index"]) - batch["logp_old"])
    surr1 = ratio * adv
    # np.clip and np.mean give these bits too, through slower wrappers.
    surr2 = np.minimum(np.maximum(ratio, 1.0 - CLIP), 1.0 + CLIP) * adv
    policy_loss = -np.add.reduce(np.minimum(surr1, surr2)) / n
    value_loss = np.add.reduce((values - batch["returns"]) ** 2) / n
    entropy = np.add.reduce(per_pass_entropy) / n
    loss = float(policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropy)

    # Each row's output gradients, side by side: logits, then the value.
    rows = np.empty((n, _FOLD_WIDTH))
    dz, dv = rows[:, :-1], rows[:, -1]
    # d(policy_loss)/dlogits: gradient flows through the unclipped branch only.
    coeff = np.where(surr1 <= surr2, -adv * ratio, 0.0) / n
    np.multiply(coeff[:, None], batch["one_hot"] - probs, out=dz)
    # d(-entropy_coef * mean entropy)/dlogits
    dz += (ENTROPY_COEF / n) * probs * (logp_all + per_pass_entropy[:, None])
    # d(value_coef * value mse)/dvalues
    np.multiply(2.0 * VALUE_COEF / n, values - batch["returns"], out=dv)

    # The rows on one cell share its activations, so the backward pass reads
    # each cell's summed output gradients.
    sums = np.bincount(batch["fold_keys"].ravel(), rows.ravel()).reshape(-1, _FOLD_WIDTH)
    cz, cv = sums[:, :-1], sums[:, -1:]
    (gwa, gba), (gwv, gbv) = grad.action_head, grad.value_head
    gwa[...] = acts[-1].T @ cz
    gba[...] = np.add.reduce(cz, axis=0)
    gwv[...] = acts[-1].T @ cv
    gbv[...] = np.add.reduce(cv, axis=None)
    dh = cz @ wa.T + cv @ wv.T
    for i in range(len(policy.trunk) - 1, -1, -1):
        da = dh * (1.0 - acts[i + 1] ** 2)
        gw, gb = grad.trunk[i]
        gb[...] = np.add.reduce(da, axis=0)
        if i:
            gw[...] = acts[i].T @ da
            dh = da @ policy.trunk[i][0].T
        else:
            # A cell's input is one row of W0; no other row gets a gradient.
            gw[...] = 0.0
            gw[cells] = da
    return loss, grad.flat


class _Adam:
    """Adam over one parameter vector; the moments are vectors of the same size.

    The moments are kept divided by ``1 - beta1`` and ``1 - beta2``, so they
    take the gradient unscaled, and both bias corrections fold into two
    Python floats: with ``root = sqrt(bc2 / (1 - beta2))`` and
    ``c = lr * (1 - beta1) * root / bc1``, a step is ``m = beta1*m + g``,
    ``v = beta2*v + g*g`` and ``flat -= c*m / (sqrt(v) + eps*root)``. That is
    the textbook update with its ``eps`` added to ``sqrt(v / bc2)``, in 10
    in-place passes over the vector through two scratch vectors, with the
    bits of the allocating form of the same expressions. It keeps no
    reference to the gradient, so the caller may reuse its buffer.
    """

    lr = 3e-4
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, flat: np.ndarray):
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._num = np.empty_like(flat)
        self._den = np.empty_like(flat)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        root = math.sqrt(bc2 / (1.0 - self.beta2))
        c = self.lr * (1.0 - self.beta1) * root / bc1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        m += grad
        v *= self.beta2
        np.multiply(grad, grad, out=den)
        v += den
        np.sqrt(v, out=den)
        den += self.eps * root
        np.multiply(m, c, out=num)
        num /= den
        flat -= num


# ---------------------------------------------------------------------------
# Rollouts and GAE.

def _gae(rewards, values, next_values, ends, gamma: float, lam: float):
    """Advantages and returns; step t bootstraps from ``next_values[t]``, and an
    episode's end stops the advantage carried back from the step after it.
    ``train`` passes tuples of Python numbers: NumPy's double arithmetic, faster."""
    out = [0.0] * len(rewards)
    last = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * next_values[t] - values[t]
        last = out[t] = delta + gamma * lam * (0.0 if ends[t] else last)
    adv = np.array(out, dtype=np.float64)
    return adv, adv + values


def _normalise_rows(block: np.ndarray) -> None:
    """``(row - row.mean()) / (row.std() + 1e-8)`` for each row, in place.

    A row's sum has the bits of the same values' 1-D sum, so each row gets the
    bits of the reductions ``np.mean`` and ``np.std`` make on it alone.
    """
    k = block.shape[1]
    block -= block.sum(axis=1, keepdims=True) / k
    block /= np.sqrt((block * block).sum(axis=1, keepdims=True) / k) + 1e-8


def train(train_contexts, eval_contexts, config: PpoConfig) -> tuple[MlpPolicy, TrainLog]:
    """Run the full PPO loop; returns the best-evaluated policy and its log."""
    train_contexts = list(train_contexts)
    eval_contexts = list(eval_contexts)
    if not train_contexts or not eval_contexts:
        raise ValueError("train and eval context lists must be non-empty")
    sizes = {c.grid.size for c in train_contexts} | {c.grid.size for c in eval_contexts}
    if len(sizes) != 1:
        raise ValueError(f"contexts mix grid sizes: {sorted(sizes)}")

    rng = np.random.default_rng(config.seed)
    full = policy_mod.init_policy(seed=config.seed)
    (n,) = sizes
    env_mod.check_observation_fits(n, full.input_dim)
    if config.total_timesteps == 0:
        return full, TrainLog((), -1)
    # Training runs on W0's rows 0..n²-1, the ones a cell of the grid reads:
    # the other rows get no gradient, so Adam would leave them as they are.
    # Every other array is copied whole.
    policy = policy_mod.build_policy((n * n, *full.widths[1:]))
    for dst, src in zip(policy.parameters(), full.parameters()):
        dst[...] = src[:len(dst)]
    adam = _Adam(policy.flat)
    grad = policy_mod.build_policy(policy.widths)  # reused by every update

    entries: list[TrainLogEntry] = []
    warnings: list[str] = []
    best_index = -1
    best_mean = -math.inf

    def run_eval(timestep: int) -> None:
        nonlocal best_index, best_mean
        summary = evaluate_policy(policy, eval_contexts, episodes=config.eval_episodes)
        entries.append(TrainLogEntry(timestep, summary))
        if summary.reward_mean > best_mean:
            best_mean = summary.reward_mean
            best_index = len(entries) - 1
            for dst, src in zip(full.parameters(), policy.parameters()):
                dst[:len(src)] = src
        if (timestep >= config.total_timesteps // 2 and best_mean <= 0.0
                and not warnings):
            warnings.append(
                f"eval reward still 0 at timestep {timestep} "
                f"({config.total_timesteps} budget)"
            )

    state = env_mod.reset(train_contexts[rng.integers(len(train_contexts))])
    timestep = 0
    next_eval = config.eval_interval
    # Each row's key in an epoch is minibatch * n*n + cell.
    cell_count = n * n
    row_block = np.arange(ROLLOUT_STEPS) // MINIBATCH_SIZE
    row_key = row_block * cell_count
    seen = np.zeros((row_block[-1] + 1) * cell_count, dtype=bool)

    while timestep < config.total_timesteps:
        # The parameters are fixed until the update phase, so one single-row
        # forward per cell serves every step; a batched forward would not be
        # bit-equal to it. Each cell keeps its sampling CDF and its
        # probabilities as lists, so a step samples and logs in plain Python.
        table = []
        for cell in range(n * n):
            dist, value = policy_mod.forward(policy, cell)
            table.append((policy_mod.sampling_cdf(dist), dist.tolist(), value))
        rollout = []
        for _ in range(ROLLOUT_STEPS):
            cell = state.cell
            cdf, probs, value = table[cell]
            a = bisect_right(cdf, rng.random())
            state, reward, done = env_mod.step(state, _ACTIONS[a])
            # A truncated or running step bootstraps from its successor.
            next_value = 0.0 if state.outcome in _ABSORBING else table[state.cell][2]
            rollout.append((cell, a, math.log(probs[a]), value, reward, next_value, done))
            if done:
                state = env_mod.reset(train_contexts[rng.integers(len(train_contexts))])
        cells, actions, logps, values, rewards, next_values, ends = zip(*rollout)
        advantages, returns = _gae(rewards, values, next_values, ends, GAMMA, GAE_LAMBDA)
        cells, actions, logps = np.array(cells), np.array(actions), np.array(logps)
        for _ in range(EPOCHS):
            # One gather per epoch; each minibatch is then a slice of it.
            order = rng.permutation(ROLLOUT_STEPS)
            epoch_cells = cells[order]
            epoch_actions, epoch_logps = actions[order], logps[order]
            epoch_adv, epoch_returns = advantages[order], returns[order]
            # Each minibatch's advantages are centred and scaled on their own;
            # ROLLOUT_STEPS is a multiple of MINIBATCH_SIZE, so each row is one.
            _normalise_rows(epoch_adv.reshape(-1, MINIBATCH_SIZE))
            # The distinct cells of every minibatch in one pass, ascending as
            # np.unique gives them; a call to np.unique per minibatch would
            # cost as much as the per-cell forward saves.
            key = row_key + epoch_cells
            seen[...] = False
            seen[key] = True
            rank = np.cumsum(seen)
            distinct = np.flatnonzero(seen) % cell_count
            bounds = np.concatenate(([0], rank[cell_count - 1::cell_count]))
            epoch_inverse = rank[key] - bounds[row_block] - 1
            bounds = bounds.tolist()
            epoch_rows = dict(row_plan(epoch_inverse, epoch_actions), inverse=epoch_inverse,
                              logp_old=epoch_logps, advantages=epoch_adv, returns=epoch_returns)
            for m, start in enumerate(range(0, ROLLOUT_STEPS, MINIBATCH_SIZE)):
                mb = slice(start, start + MINIBATCH_SIZE)
                batch = {name: rows[mb] for name, rows in epoch_rows.items()}
                batch["cells"] = distinct[bounds[m]:bounds[m + 1]]
                adam.step(policy.flat, ppo_grads(policy, batch, grad)[1])

        timestep += ROLLOUT_STEPS
        # One evaluation however many interval boundaries the rollout
        # crossed: the parameters are the same at all of them.
        if timestep >= next_eval:
            run_eval(timestep)
            next_eval = (timestep // config.eval_interval + 1) * config.eval_interval

    if not entries or entries[-1].timestep < timestep:
        run_eval(timestep)
    return full, TrainLog(tuple(entries), best_index, tuple(warnings))


def evaluate_policy(policy: MlpPolicy, contexts, episodes: int = 100) -> RunSummary:
    """Greedy episodes, contexts cycled round-robin: ``run_batch`` in ``ppo``
    mode with no uncertainty source, aggregated via metrics."""
    cfg = GateConfig(mode=RunMode.PPO_ONLY)
    return metrics_mod.aggregate(
        gate_mod.run_batch(policy, None, contexts, cfg, episodes, uncertainty=None))


def write_trainlog_csv(log: TrainLog, path: str, config: dict | None = None) -> None:
    write_atomic(path, csv_text(TRAINLOG_CSV_HEADER, (
        [e.timestep, e.summary.reward_mean, e.summary.reward_std, e.summary.length_mean]
        for e in log.entries
    ), config))
