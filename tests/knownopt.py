"""Constructed tuning objective with a known optimum, shared across test files.

The policy below has an all-zero trunk, so every dropout pass produces the
same hidden vector and the gate's total uncertainty equals the action
distribution's entropy — pinned to exactly 0.5 nats through the action-head
bias. Consultation therefore happens iff tau <= 0.5. A scripted client walks
the shared corridor, so consulting episodes score 1 and silent episodes
truncate at 0: reward as a function of tau is a step with its edge at 0.5.
"""

from askgate.env import Split, corridor_cells
from askgate.gate import GateConfig
from askgate.lm import ScriptedClient
from askgate.policy import build_policy
from askgate.tuner import tune_threshold

# softmax([b, 0, 0, 0]) has entropy exactly 0.5 nats at this bias.
HALF_NAT_BIAS = 3.087242048777425

WINNING_TAU = 0.5


def half_nat_policy():
    policy = build_policy((64, 64, 64))  # the default architecture, all zeros
    policy.action_head[1][0] = HALF_NAT_BIAS
    return policy


def corridor_answers(n, episodes):
    """Scripted corridor walk: a consulting episode reaches the goal in 2(n-1) steps."""
    cells = corridor_cells(n)
    names = ["DOWN" if r1 > r0 else "RIGHT"
             for (r0, c0), (r1, c1) in zip(cells, cells[1:])]
    return ScriptedClient(['{"action":"%s"}' % name for name in names] * episodes)


def known_optimum_study(study_seed, context_set, trials=10):
    """Run one tuning study against the constructed objective."""
    eval_contexts = context_set.split(Split.EVAL)[:2]
    episodes_per_trial = 2
    client = corridor_answers(context_set.size, episodes_per_trial * trials)
    gate = GateConfig(passes=5, dropout_rate=0.2, seed=100)
    return tune_threshold(
        half_nat_policy(), client, eval_contexts,
        trials=trials, seed=study_seed,
        episodes_per_trial=episodes_per_trial, gate=gate,
    )
