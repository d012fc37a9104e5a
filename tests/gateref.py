"""Reference gate loop shared across test files: one forward, one MC-Dropout
estimate and one plain ``default_rng([seed, i])`` per episode, with no
greedy-action table and no estimate table."""

import numpy as np

from askgate import uncertainty as unc_mod
from askgate.env import Outcome, encode_observation, local_view, reset, step
from askgate.gate import EpisodeRecord, RunMode, StepRecord
from askgate.lm import PromptContext, build_prompt, parse_decision
from askgate.policy import forward, select_action


def per_step_forward_batch(policy, client, contexts, cfg, total_episodes):
    """The gate loop written out step by step; ``run_batch`` must give these records."""
    records = []
    for i in range(total_episodes):
        context = contexts[i % len(contexts)]
        rng = np.random.default_rng([cfg.seed, i])
        state = reset(context)
        steps = []
        while not state.done:
            index = int(np.argmax(encode_observation(state, dim=policy.input_dim)))
            action = select_action(forward(policy, index)[0])
            estimate = unc_mod.mc_estimate(policy, index, cfg.passes, cfg.dropout_rate, rng)
            if cfg.mode is RunMode.ASK:
                consulted = estimate.total >= cfg.tau
            else:
                consulted = cfg.mode is RunMode.LM_ONLY
            status, lm_action, final = "", None, action
            if consulted:
                prompt = build_prompt(PromptContext(**local_view(state), autopilot=action))
                decision = parse_decision(client.query(prompt))
                status = decision.status
                if decision.action is not None:
                    lm_action = final = decision.action
            state, reward, done = step(state, final, cfg.max_steps)
            steps.append(StepRecord(
                obs_index=index, policy_action=action, uncertainty=estimate,
                consulted=consulted, lm_status=status, lm_action=lm_action,
                final_action=final, overwritten=lm_action is not None and lm_action != action,
                reward=reward, done=done,
            ))
        records.append(EpisodeRecord(
            context_id=context.id, steps=tuple(steps),
            reward=1 if state.outcome is Outcome.GOAL else 0,
            length=len(steps), outcome=state.outcome,
        ))
    return records
