"""PPO trainer: gradients, GAE, Adam, the training loop, and evaluation."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gradcheck import finite_difference_errors, onehot_rows, ppo_loss, synthetic_batch

from askgate import metrics as metrics_mod
from askgate.env import (
    Action,
    Context,
    GridMap,
    Outcome,
    Split,
    encode_observation,
    generate_context_set,
    reset,
    step,
)
from askgate.gate import EpisodeRecord, StepRecord
from askgate.metrics import aggregate
from askgate.policy import (
    build_policy,
    forward,
    init_policy,
    load_weights,
    save_weights,
    select_action,
    trunk_activations,
)
from askgate.trainer import (
    CLIP,
    ENTROPY_COEF,
    EPOCHS,
    GAE_LAMBDA,
    GAMMA,
    MINIBATCH_SIZE,
    ROLLOUT_STEPS,
    TRAINLOG_CSV_HEADER,
    VALUE_COEF,
    PpoConfig,
    TrainLog,
    TrainLogEntry,
    _Adam,
    _gae,
    _log_softmax,
    evaluate_policy,
    ppo_grads,
    train,
    write_trainlog_csv,
)


@pytest.fixture(scope="module")
def contexts():
    return generate_context_set(4, 30, 2)


def tiny_config(**overrides):
    base = dict(total_timesteps=4096, eval_interval=2048, eval_episodes=6, seed=3)
    base.update(overrides)
    return PpoConfig(**base)


# ---------------------------------------------------------------------------
# Config and parameter plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(total_timesteps=-1)
    for name in ("eval_interval", "eval_episodes"):
        for bad in (0, -1, float("nan")):
            with pytest.raises(ValueError, match=name):
                PpoConfig(**{name: bad})
    with pytest.raises(ValueError, match="seed"):
        PpoConfig(seed=-1)


def test_the_loss_and_optimizer_settings_are_constants():
    # The protocol trains with one set of PPO settings, so the config holds
    # only the budget, the evaluation cadence and the seed.
    assert [f.name for f in dataclasses.fields(PpoConfig)] == [
        "total_timesteps", "eval_interval", "eval_episodes", "seed"]
    for name in ("clip", "rollout_steps", "minibatch_size", "epochs", "max_steps"):
        with pytest.raises(TypeError):
            PpoConfig(**{name: 1})
    assert (CLIP, GAMMA, GAE_LAMBDA, ENTROPY_COEF, VALUE_COEF) == (0.2, 0.99, 0.95, 0.01, 0.5)
    assert (ROLLOUT_STEPS, MINIBATCH_SIZE, EPOCHS) == (2048, 64, 10)
    assert ROLLOUT_STEPS % MINIBATCH_SIZE == 0  # no short last minibatch
    assert _Adam.lr == 3e-4


def test_params_round_trip_and_isolation(tmp_path):
    policy = init_policy(seed=0)
    path = str(tmp_path / "w.bin")
    save_weights(policy, path)
    saved = open(path, "rb").read()
    loaded = load_weights(path)
    save_weights(loaded, path)
    assert open(path, "rb").read() == saved

    before = forward(policy, 5)
    policy.flat[:] = 0.0  # a write to the vector reaches every layer view
    probs, value = forward(policy, 5)
    assert np.array_equal(probs, np.full(4, 0.25)) and value == 0.0
    assert not np.array_equal(probs, before[0])
    assert np.array_equal(forward(loaded, 5)[0], before[0])  # loading copies the vector


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    policy = init_policy(input_dim=8, hidden=(6, 5), seed=10)
    batch = synthetic_batch(policy, rng)
    coord_err, norm_err = finite_difference_errors(policy, batch)
    assert coord_err < 1e-4, f"worst per-coordinate relative error {coord_err:.3e}"
    assert norm_err < 1e-6, f"worst per-array norm relative error {norm_err:.3e}"


def test_gradients_cover_every_parameter():
    rng = np.random.default_rng(1)
    policy = init_policy(input_dim=8, hidden=(6, 5), seed=11)
    batch = synthetic_batch(policy, rng)
    loss, grad = ppo_grads(policy, batch, build_policy(policy.widths))
    assert loss == pytest.approx(ppo_loss(policy, batch))
    assert grad.shape == policy.flat.shape
    assert np.isfinite(grad).all()
    names = ["w0", "b0", "w1", "b1", "wa", "ba", "wv", "bv"]
    for name, g in zip(names, build_policy(policy.widths, grad).parameters(), strict=True):
        assert np.any(g != 0.0), f"gradient for {name} is identically zero"


def reference_ppo_grads(policy, batch):
    """``ppo_grads`` as first written: ``np.clip``, ``.mean()`` and a scattered
    one-hot, with clip 0.2, value coefficient 0.5 and entropy coefficient 0.01."""
    actions, adv = batch["actions"], batch["advantages"]
    n = len(actions)
    acts = trunk_activations(policy, batch["obs"])
    (wa, ba), (wv, bv) = policy.action_head, policy.value_head
    logp_all = _log_softmax(acts[-1] @ wa + ba)
    values = (acts[-1] @ wv + bv).reshape(-1)
    probs = np.exp(logp_all)
    idx = np.arange(n)
    ratio = np.exp(logp_all[idx, actions] - batch["logp_old"])
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - 0.2, 1.0 + 0.2) * adv
    per_pass_entropy = -(probs * logp_all).sum(axis=1)
    loss = float(-np.minimum(surr1, surr2).mean()
                 + 0.5 * ((values - batch["returns"]) ** 2).mean()
                 - 0.01 * per_pass_entropy.mean())
    coeff = np.where(surr1 <= surr2, -adv * ratio, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dz = coeff[:, None] * (onehot - probs)
    dz += (0.01 / n) * probs * (logp_all + per_pass_entropy[:, None])
    dv = (2.0 * 0.5 / n) * (values - batch["returns"])
    grad = build_policy(policy.widths, np.empty_like(policy.flat))
    (gwa, gba), (gwv, gbv) = grad.action_head, grad.value_head
    gwa[...] = acts[-1].T @ dz
    gba[...] = dz.sum(axis=0)
    gwv[...] = acts[-1].T @ dv[:, None]
    gbv[...] = dv.sum()
    dh = dz @ wa.T + dv[:, None] @ wv.T
    for i in range(len(policy.trunk) - 1, -1, -1):
        da = dh * (1.0 - acts[i + 1] ** 2)
        gw, gb = grad.trunk[i]
        gw[...] = acts[i].T @ da
        gb[...] = da.sum(axis=0)
        dh = da @ policy.trunk[i][0].T
    return loss, grad.flat


def test_ppo_grads_match_the_first_implementation():
    # ppo_grads reads cell indices and sums each cell's row gradients before
    # the backward pass; the reference reads the matching one-hot rows. On
    # distinct ascending cells the fold is the identity and the bits are the
    # reference's. Elsewhere the sums run in another order: the worst measured
    # difference was 6.2e-14 of an array's largest entry, and 3.7e-16 of the loss.
    rng = np.random.default_rng(8)
    policies = [init_policy(input_dim=8, hidden=(6, 5), seed=11), init_policy(seed=4),
                init_policy(input_dim=8, hidden=(7, 6, 5), seed=12)]
    for policy in policies:
        layout = build_policy(policy.widths)
        dim = policy.input_dim
        ascending = np.sort(rng.choice(dim, dim // 2 + 1, replace=False))
        # One row; every cell once; some cells once, ascending; 64 rows on one
        # cell; random cells.
        for n, index in ((1, None), (dim, np.arange(dim)), (len(ascending), ascending),
                         (64, np.full(64, 3)), (17, None), (64, None)):
            batch = synthetic_batch(policy, rng, n, index)
            exact = np.array_equal(batch["inverse"], np.arange(n))
            for spread in (0.0, 0.6):  # 0.6 puts some ratios past the clip
                batch["logp_old"] = batch["logp_old"] + rng.uniform(-spread, spread, n)
                want_loss, want_grad = reference_ppo_grads(
                    policy, {**batch, "obs": onehot_rows(policy, batch)})
                got_loss, got_grad = ppo_grads(policy, batch, layout)
                if exact:
                    assert got_loss == want_loss
                    assert got_grad.tobytes() == want_grad.tobytes()
                    continue
                assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
                arrays = zip(build_policy(policy.widths, got_grad).parameters(),
                             build_policy(policy.widths, want_grad).parameters())
                for got, want in arrays:
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_a_reused_gradient_layout_gives_fresh_bits_and_adam_keeps_no_view_of_it():
    rng = np.random.default_rng(2)
    policy = init_policy(input_dim=8, hidden=(6, 5), seed=11)
    batches = [synthetic_batch(policy, rng) for _ in range(3)]
    layout = build_policy(policy.widths)
    layout.flat[:] = np.nan  # every entry must be written
    adam = _Adam(policy.flat)
    for batch in batches:
        fresh = ppo_grads(policy, batch, build_policy(policy.widths))
        loss, grad = ppo_grads(policy, batch, layout)
        assert grad is layout.flat
        assert loss == fresh[0] and grad.tobytes() == fresh[1].tobytes()
        adam.step(policy.flat, grad)
        moments = adam.m.copy(), adam.v.copy()
        layout.flat[:] = np.nan  # the next update overwrites the buffer
        assert not np.shares_memory(adam.m, layout.flat)
        assert not np.shares_memory(adam.v, layout.flat)
        assert np.array_equal(adam.m, moments[0]) and np.array_equal(adam.v, moments[1])


def test_adam_first_step_matches_hand_update():
    flat = np.array([1.0])
    adam = _Adam(flat)
    adam.step(flat, np.array([0.5]))
    # Bias-corrected first step: mhat = g, vhat = g^2, so the update is
    # lr * g / (|g| + eps) regardless of the gradient's magnitude.
    expected = 1.0 - 3e-4 * (0.5 / (0.5 + 1e-8))
    assert flat[0] == pytest.approx(expected, abs=1e-15)
    assert adam.t == 1


def test_adam_is_stateful_per_parameter():
    flat = np.array([1.0, 2.0])
    adam = _Adam(flat)
    adam.step(flat, np.array([1.0, 0.0]))
    assert flat[0] != 1.0
    assert flat[1] == 2.0  # zero gradient leaves the value in place


# ---------------------------------------------------------------------------
# GAE


def reference_gae(rewards, values, ends, boot, gamma, lam):
    """GAE as first written: an episode's end bootstraps from ``boot``, a
    running step from the next step's value, the rollout's last from ``boot``."""
    n = len(rewards)
    adv = np.zeros(n)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        if ends[t]:
            nxt, carry = boot[t], 0.0
        else:
            nxt = values[t + 1] if t + 1 < n else boot[t]
        delta = rewards[t] + gamma * nxt - values[t]
        carry = adv[t] = delta + gamma * lam * carry
    return adv, adv + values


def test_gae_hand_example():
    rewards = np.array([0.0, 0.0, 1.0])
    values = np.array([0.5, 0.4, 0.3])
    next_values = np.array([0.4, 0.3, 0.0])
    ends = np.array([False, False, True])
    adv, ret = _gae(rewards, values, next_values, ends, gamma=0.5, lam=0.5)
    d2 = 1.0 + 0.5 * 0.0 - 0.3
    d1 = 0.0 + 0.5 * 0.3 - 0.4
    d0 = 0.0 + 0.5 * 0.4 - 0.5
    a2 = d2
    a1 = d1 + 0.25 * a2
    a0 = d0 + 0.25 * a1
    assert adv == pytest.approx([a0, a1, a2])
    assert ret == pytest.approx(adv + values)


def test_gae_resets_across_episode_boundaries():
    rewards = np.array([1.0, 0.0])
    values = np.array([0.2, 0.7])
    # Step 0 reaches the goal, so it records no successor value, although
    # the step after it, the next episode's first, has a value.
    next_values = np.array([0.0, 0.0])
    ends = np.array([True, False])
    adv, _ = _gae(rewards, values, next_values, ends, gamma=0.9, lam=0.8)
    # No bootstrap from step 1's value and no advantage carried back across
    # the boundary.
    assert adv[0] == pytest.approx(1.0 - 0.2)


def test_gae_truncation_bootstraps_through_next_values():
    rewards = np.array([0.0])
    values = np.array([0.1])
    next_values = np.array([0.6])
    ends = np.array([True])
    adv, ret = _gae(rewards, values, next_values, ends, gamma=0.9, lam=0.8)
    assert adv[0] == pytest.approx(0.0 + 0.9 * 0.6 - 0.1)
    assert ret[0] == pytest.approx(adv[0] + 0.1)


def test_gae_matches_reference_recursion_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        ends = rng.random(n) < 0.3
        boot = np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0)
        gamma, lam = 0.99, 0.95
        # The successor values a rollout records for the same steps.
        next_values = np.array([boot[t] if ends[t] or t == n - 1 else values[t + 1]
                                for t in range(n)])
        adv, ret = _gae(rewards, values, next_values, ends, gamma, lam)
        expected, expected_ret = reference_gae(rewards, values, ends, boot, gamma, lam)
        # Same double arithmetic in the same order: equal bits, not just close.
        assert adv.tobytes() == expected.tobytes()
        assert ret.tobytes() == expected_ret.tobytes()


# ---------------------------------------------------------------------------
# Training loop


class ReferenceAdam:
    """Adam with a fresh array for every term, as the optimizer was first written."""

    def __init__(self, flat, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0

    def step(self, flat, grad):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        flat -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


def test_adam_matches_the_allocating_reference_bit_for_bit():
    # 402 steps: from t = 356 on, the first bias correction rounds to 1.0 and
    # the step skips its division.
    rng = np.random.default_rng(4)
    ours = rng.normal(size=500)
    theirs = ours.copy()
    adam, reference = _Adam(ours), ReferenceAdam(theirs, lr=3e-4)
    assert 1.0 - _Adam.beta1 ** 355 < 1.0 == 1.0 - _Adam.beta1 ** 356
    for scale in (1e-6, 1.0, 1e3) * 134:
        grad = rng.normal(size=500) * scale
        adam.step(ours, grad)
        reference.step(theirs, grad)
        assert ours.tobytes() == theirs.tobytes()
        assert adam.m.tobytes() == reference.m.tobytes()
        assert adam.v.tobytes() == reference.v.tobytes()


def observed_cell(state):
    """The cell whose one-hot the policy observes at ``state``."""
    return int(np.argmax(encode_observation(state)))


def reference_train(train_contexts, cfg):
    """The training loop with one forward and one ``rng.choice`` per step.

    It has no evaluation, so it matches ``train`` when the only evaluation
    is the one after the last rollout. Its gradient is ``ppo_grads`` on the
    ``np.unique`` of each minibatch's one-hot rows' cells, whose accuracy
    :func:`test_ppo_grads_match_the_first_implementation` and the
    finite-difference check own; its optimizer is :class:`ReferenceAdam`, its
    advantages come from :func:`reference_gae`, and its minibatches are
    gathered and centred one by one. Returns the policy and the count of
    truncated episodes.
    """
    rng = np.random.default_rng(cfg.seed)
    policy = init_policy(seed=cfg.seed)
    adam = ReferenceAdam(policy.flat, 3e-4)
    grad = build_policy(policy.widths)
    t_steps = 2048
    truncations = 0
    state = reset(train_contexts[rng.integers(len(train_contexts))])
    for _ in range(cfg.total_timesteps // t_steps):
        obs, actions, logps, values, rewards, ends, boot = [], [], [], [], [], [], []
        for _ in range(t_steps):
            x = encode_observation(state)
            dist, value = forward(policy, int(np.argmax(x)))
            action = int(rng.choice(4, p=dist))
            next_state, reward, done = step(state, Action(action), 100)
            obs.append(x)
            actions.append(action)
            logps.append(math.log(dist[action]))
            values.append(value)
            rewards.append(float(reward))
            ends.append(done)
            truncated = next_state.outcome is Outcome.TRUNCATED
            truncations += truncated
            boot.append(forward(policy, observed_cell(next_state))[1] if truncated else 0.0)
            if done:
                state = reset(train_contexts[rng.integers(len(train_contexts))])
            else:
                state = next_state
        if not ends[-1]:
            boot[-1] = forward(policy, observed_cell(state))[1]
        advantages, returns = reference_gae(np.array(rewards), np.array(values), ends, boot,
                                            0.99, 0.95)
        obs, actions, logps = np.array(obs), np.array(actions), np.array(logps)
        for _ in range(10):
            order = rng.permutation(t_steps)
            for start in range(0, t_steps, 64):
                mb = order[start:start + 64]
                mb_adv = advantages[mb]
                cells, inverse = np.unique(obs[mb].argmax(axis=1), return_inverse=True)
                batch = {
                    "cells": cells,
                    "inverse": inverse,
                    "actions": actions[mb],
                    "logp_old": logps[mb],
                    "advantages": (mb_adv - mb_adv.mean()) / (mb_adv.std() + 1e-8),
                    "returns": returns[mb],
                }
                adam.step(policy.flat, ppo_grads(policy, batch, grad)[1])
    return policy, truncations


@pytest.mark.parametrize("size", [3, 4, 6, 8])
def test_training_matches_the_per_step_reference_bit_for_bit(size):
    # A 3x3 grid with the safe corridor has fewer than 20 distinct maps. On a
    # hole-free map some episodes last the 100-step cap, so the bootstrap
    # values of truncated episodes are read too; a 3x3 one is too small for
    # an untrained policy to stay away from G that long.
    contexts = generate_context_set(size, 12 if size == 3 else 20, 1)
    rows = ["F" * size] * size
    rows[0], rows[-1] = "S" + rows[0][1:], rows[-1][:-1] + "G"
    hole_free = Context(id=contexts.count, grid=GridMap(tuple(rows)), split=Split.TRAIN)
    train_contexts = [*contexts.split(Split.TRAIN), hole_free]
    cfg = tiny_config(eval_interval=4096)
    policy, log = train(train_contexts, contexts.split(Split.EVAL), cfg)
    assert [e.timestep for e in log.entries] == [4096]
    expected, truncations = reference_train(train_contexts, cfg)
    assert policy.flat.tobytes() == expected.flat.tobytes()
    if size > 3:
        assert truncations > 0


@pytest.mark.parametrize("size", [4, 6])
def test_the_rows_of_w0_no_cell_reads_keep_their_initial_values(size):
    # Training works on a policy of the grid's n² inputs and returns the
    # 64-input one, whose W0 rows past the grid's cells are the initial ones.
    contexts = generate_context_set(size, 20, 1)
    cfg = tiny_config(total_timesteps=2048)
    policy, _ = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), cfg)
    w0, init_w0 = policy.trunk[0][0], init_policy(seed=cfg.seed).trunk[0][0]
    assert policy.input_dim == 64
    assert w0[size * size:].tobytes() == init_w0[size * size:].tobytes()
    assert (w0[:size * size] != init_w0[:size * size]).any(axis=1).sum() > 1


@pytest.mark.parametrize("size, weights_digest, trainlog_digest", [
    (4, "40750106da81a8304da51336d15f4af7565e6c7f905c70664043f945743a6f17",
     "f44f3fa9554d5ddab501f8e941b2e9d573a207ae739803e9bc8fd844c7511e05"),
    (6, "64394764a4776241c5ee6e09c3fcf9e7b6e0422a9e6cacb916033723893d353f",
     "a6b0ad461be34c20885d069846336b542fb83ec085efe40585a35c42758c7dd9"),
])
def test_training_bytes_are_pinned(tmp_path, size, weights_digest, trainlog_digest):
    # Recorded with ppo_grads on the minibatch's distinct cells, under NumPy
    # 2.4.6 and OpenBLAS 0.3.31 on x86-64. A kernel change that moves a low bit
    # changes these digests; another BLAS build may too. The trainlogs are
    # those of the one-hot update: these evaluations did not move.
    contexts = generate_context_set(size, 300, 7)
    policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL),
                        PpoConfig(total_timesteps=4096, eval_interval=2048, seed=0))
    save_weights(policy, str(tmp_path / "w.bin"))
    write_trainlog_csv(log, str(tmp_path / "trainlog.csv"))
    assert hashlib.sha256((tmp_path / "w.bin").read_bytes()).hexdigest() == weights_digest
    assert hashlib.sha256((tmp_path / "trainlog.csv").read_bytes()).hexdigest() == trainlog_digest


def test_zero_budget_returns_the_initial_policy(contexts):
    cfg = tiny_config(total_timesteps=0)
    policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), cfg)
    init = init_policy(seed=cfg.seed)
    for a, b in zip(policy.parameters(), init.parameters()):
        assert np.array_equal(a, b)
    assert log.entries == () and log.best_index == -1


def test_training_is_seed_deterministic(contexts):
    runs = []
    for _ in range(2):
        policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL),
                            tiny_config())
        runs.append((policy, log))
    for a, b in zip(runs[0][0].parameters(), runs[1][0].parameters()):
        assert np.array_equal(a, b)
    assert runs[0][1] == runs[1][1]


def test_training_seed_changes_the_outcome(contexts):
    a, _ = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), tiny_config(seed=3))
    b, _ = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), tiny_config(seed=4))
    assert any(not np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters()))


def test_eval_cadence_and_log_shape(contexts):
    _, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), tiny_config())
    assert [e.timestep for e in log.entries] == [2048, 4096]
    assert 0 <= log.best_index < len(log.entries)
    best = max(e.reward_mean for e in log.entries)
    assert log.entries[log.best_index].reward_mean == best
    # A rollout that crosses boundaries runs one evaluation, at the timestep
    # it reached; the last rollout's evaluation is not repeated.
    for interval, timesteps in ((800, [2048, 4096]), (2400, [4096])):
        cfg = tiny_config(eval_interval=interval)
        _, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), cfg)
        assert [e.timestep for e in log.entries] == timesteps


def test_learning_solves_small_grids(contexts):
    cfg = PpoConfig(total_timesteps=100_000, eval_interval=25_000, seed=0)
    policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), cfg)
    summary = evaluate_policy(policy, contexts.split(Split.TEST), episodes=50)
    assert summary.reward_mean >= 0.8, f"4x4 test reward {summary.reward_mean}"
    assert log.entries[log.best_index].reward_mean >= 0.8
    assert not log.warnings


def test_hopeless_maps_trigger_the_divergence_warning():
    # The start tile is walled in by holes, so no action sequence can score.
    grid = GridMap(("SHFF", "HHFF", "FFFF", "FFFG"))
    train_ctx = [Context(id=i, grid=grid, split=Split.TRAIN) for i in range(3)]
    eval_ctx = [Context(id=3 + i, grid=grid, split=Split.EVAL) for i in range(3)]
    _, log = train(train_ctx, eval_ctx, tiny_config())
    assert log.warnings and "still 0" in log.warnings[0]
    assert all(e.reward_mean == 0.0 for e in log.entries)


def test_train_validates_inputs(contexts):
    with pytest.raises(ValueError):
        train([], contexts.split(Split.EVAL), tiny_config())
    other = generate_context_set(6, 3, 0)
    with pytest.raises(ValueError):
        train(list(contexts.split(Split.TRAIN)), list(other.contexts), tiny_config())


def test_train_rejects_grids_larger_than_the_input_before_any_rollout(monkeypatch):
    big = generate_context_set(9, 20, 0)

    def no_rollout(*args, **kwargs):
        raise AssertionError("a rollout started")

    monkeypatch.setattr("askgate.env.step", no_rollout)
    with pytest.raises(ValueError, match="observation index 80 does not fit dim 64"):
        train(big.split(Split.TRAIN), big.split(Split.EVAL), tiny_config())


# ---------------------------------------------------------------------------
# Evaluation helpers


def test_untrained_policy_scores_near_zero_on_hole_dense_maps():
    dense = generate_context_set(8, 30, 1, hole_probability=0.5)
    summary = evaluate_policy(init_policy(seed=0), dense.contexts, episodes=60)
    assert summary.reward_mean <= 0.05


def reference_greedy_rollout(policy, context):
    """A greedy episode written out step by step, with no gate in the way."""
    state = reset(context)
    n = context.grid.size
    steps = []
    while not state.done:
        index = state.row * n + state.col
        dist, _ = forward(policy, index)
        action = select_action(dist)
        state, reward, done = step(state, action)
        steps.append(StepRecord(
            obs_index=index, policy_action=action, uncertainty=None,
            consulted=False, lm_status="", lm_action=None,
            final_action=action, overwritten=False, reward=reward, done=done,
        ))
    return EpisodeRecord(
        context_id=context.id, steps=tuple(steps),
        reward=1 if state.outcome is Outcome.GOAL else 0,
        length=len(steps), outcome=state.outcome,
    )


@pytest.mark.parametrize("size", [4, 6, 8])
def test_evaluate_policy_matches_a_step_by_step_greedy_loop(size, monkeypatch):
    ctx = generate_context_set(size, 30, 2)
    trained, _ = train(ctx.split(Split.TRAIN), ctx.split(Split.EVAL),
                       tiny_config(total_timesteps=2048))
    seen = []

    def recording_aggregate(eps):
        seen.append(list(eps))
        return aggregate(seen[-1])

    monkeypatch.setattr(metrics_mod, "aggregate", recording_aggregate)
    pool = ctx.split(Split.TEST)
    for policy in (init_policy(seed=0), trained):
        summary = evaluate_policy(policy, pool, episodes=len(pool) + 3)
        expected = [reference_greedy_rollout(policy, pool[i % len(pool)])
                    for i in range(len(pool) + 3)]
        assert seen[-1] == expected
        assert summary == aggregate(expected)


def test_evaluate_policy_round_robins(contexts):
    pool = contexts.split(Split.TEST)
    summary = evaluate_policy(init_policy(seed=0), pool, episodes=25)
    assert summary.episode_count == 25
    with pytest.raises(ValueError):
        evaluate_policy(init_policy(seed=0), [], episodes=5)


def test_trainlog_csv_layout(tmp_path):
    log = TrainLog(
        entries=(TrainLogEntry(512, 0.5, 0.1, 20.0), TrainLogEntry(1024, 0.75, 0.2, 12.5)),
        best_index=1,
    )
    path = tmp_path / "log.csv"
    write_trainlog_csv(log, str(path), {"seed": 3})
    lines = path.read_text().splitlines()
    assert lines[0] == '# config {"seed":3}'
    assert lines[1] == ",".join(TRAINLOG_CSV_HEADER)
    assert lines[2] == "512,0.5,0.1,20.0"
    assert lines[3] == "1024,0.75,0.2,12.5"
