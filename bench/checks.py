"""Output checks for the benchmark's askgate artifacts.

Every CSV is read by header name, so added columns do not break a check.
Digests cover only the named columns below. Uncertainty and study floats are
hashed at 10 significant digits: that keeps every decision the gate makes
(and any real change in the numbers) in the digest, while a reordered sum
that moves only the last bits of a float does not count as a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict

EPISODE_COLUMNS = (
    "episode", "step", "obs", "policy_action",
    "u_epistemic", "u_aleatoric", "u_total",
    "consulted", "lm_raw_status", "lm_action", "final_action",
    "overwritten", "reward", "done",
)
EPISODE_FLOATS = frozenset({"u_epistemic", "u_aleatoric", "u_total"})
STUDY_COLUMNS = ("trial", "tau", "reward_mean", "reward_std", "ir_pct", "or_pct")
STUDY_FLOATS = frozenset(STUDY_COLUMNS[1:])
SUMMARY_COLUMNS = ("reward_mean", "len_mean", "ir_pct", "or_pct", "episodes")
TRAINLOG_COLUMNS = ("timestep", "eval_reward_mean")
FLOAT_DIGITS = 10
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An artifact does not hold what the command should have produced."""


def read_rows(path: str, columns) -> list[dict[str, str]]:
    """Rows of a CSV artifact (``#`` comment lines skipped); columns must exist."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise CheckFailed(f"{path}: missing columns {missing}")
    return list(reader)


def digest(rows, columns, floats=frozenset()) -> str:
    h = hashlib.sha256()
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            if col in floats and value != "":
                value = format(float(value), f".{FLOAT_DIGITS}g")
            cells.append(value)
        h.update((",".join(cells) + "\n").encode("utf-8"))
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def recount_episodes(rows) -> dict[str, float]:
    """Reward, length, IR and OR means recomputed from raw episode rows."""
    episodes: dict[int, list[dict]] = defaultdict(list)
    for row in rows:
        episodes[int(row["episode"])].append(row)
    rewards, lengths, irs, ors = [], [], [], []
    for steps in episodes.values():
        consulted = sum(int(s["consulted"]) for s in steps)
        overwritten = sum(int(s["overwritten"]) for s in steps)
        rewards.append(sum(float(s["reward"]) for s in steps))
        lengths.append(float(len(steps)))
        irs.append(consulted / len(steps))
        ors.append(overwritten / consulted if consulted else 0.0)
    n = len(episodes)
    return {
        "episodes": float(n),
        "reward_mean": sum(rewards) / n,
        "len_mean": sum(lengths) / n,
        "ir_pct": 100.0 * sum(irs) / n,
        "or_pct": 100.0 * sum(ors) / n,
    }


def check_gate_run(episode_csv: str, summary_csv: str, expected: dict | None = None) -> dict:
    """Check one ``askgate run`` and return its counts and digest.

    Always: every consulted step has status ``ok``, and the summary row
    matches a recount of the episode CSV. With ``expected`` (the recorded
    values of the default seed): the named-column digest and the summary's
    reward, IR and OR match the recording.
    """
    rows = read_rows(episode_csv, EPISODE_COLUMNS)
    if not rows:
        raise CheckFailed(f"{episode_csv}: no steps")
    consulted = [r for r in rows if r["consulted"] == "1"]
    bad = [r["lm_raw_status"] for r in consulted if r["lm_raw_status"] != "ok"]
    if bad:
        raise CheckFailed(f"{episode_csv}: {len(bad)} of {len(consulted)} consults not ok "
                          f"(first: {bad[0]!r})")
    summary = read_rows(summary_csv, SUMMARY_COLUMNS)
    if len(summary) != 1:
        raise CheckFailed(f"{summary_csv}: expected one summary row, found {len(summary)}")
    recount = recount_episodes(rows)
    for key, value in recount.items():
        if not _close(float(summary[0][key]), value):
            raise CheckFailed(f"{summary_csv}: {key} {summary[0][key]} but the episode CSV "
                              f"recounts to {value!r}")
    found = digest(rows, EPISODE_COLUMNS, EPISODE_FLOATS)
    if expected is not None:
        if found != expected["episode_digest"]:
            raise CheckFailed(f"{episode_csv}: named-column digest {found} differs from "
                              f"the recorded {expected['episode_digest']}")
        for key in ("reward_mean", "ir_pct", "or_pct"):
            if not _close(float(summary[0][key]), expected[key]):
                raise CheckFailed(f"{summary_csv}: {key} {summary[0][key]} differs from the "
                                  f"recorded {expected[key]!r}")
    return {
        "steps": len(rows),
        "consults": len(consulted),
        "reward": float(summary[0]["reward_mean"]),
        "ir_pct": float(summary[0]["ir_pct"]),
        "or_pct": float(summary[0]["or_pct"]),
        "digest": found,
    }


def check_study(study_csv: str, lo: float, hi: float, trials: int,
                expected: dict | None = None) -> dict:
    """Check one ``askgate tune`` study CSV; returns its best reward and digest."""
    rows = read_rows(study_csv, STUDY_COLUMNS)
    if [int(r["trial"]) for r in rows] != list(range(1, trials + 1)):
        raise CheckFailed(f"{study_csv}: trials are not 1..{trials}")
    if not _close(float(rows[0]["tau"]), (lo + hi) / 2.0):
        raise CheckFailed(f"{study_csv}: trial 1 tau {rows[0]['tau']} is not the midpoint")
    for r in rows:
        if not lo <= float(r["tau"]) <= hi:
            raise CheckFailed(f"{study_csv}: tau {r['tau']} outside [{lo}, {hi}]")
        if not 0.0 <= float(r["reward_mean"]) <= 1.0:
            raise CheckFailed(f"{study_csv}: reward_mean {r['reward_mean']} outside [0, 1]")
        for key in ("ir_pct", "or_pct"):
            if not 0.0 <= float(r[key]) <= 100.0:
                raise CheckFailed(f"{study_csv}: {key} {r[key]} outside [0, 100]")
    found = digest(rows, STUDY_COLUMNS, STUDY_FLOATS)
    if expected is not None and found != expected["study_digest"]:
        raise CheckFailed(f"{study_csv}: named-column digest {found} differs from the "
                          f"recorded {expected['study_digest']}")
    return {"reward": max(float(r["reward_mean"]) for r in rows), "digest": found}


def check_trainlog(trainlog_csv: str, min_evals: int, bar: float) -> dict:
    """At least ``min_evals`` evaluations and a best eval reward >= ``bar``."""
    rows = read_rows(trainlog_csv, TRAINLOG_COLUMNS)
    if len(rows) < min_evals:
        raise CheckFailed(f"{trainlog_csv}: {len(rows)} evaluations, expected >= {min_evals}")
    best = max(float(r["eval_reward_mean"]) for r in rows)
    if best < bar:
        raise CheckFailed(f"{trainlog_csv}: best eval reward {best!r} is below {bar}")
    return {"reward": best}
