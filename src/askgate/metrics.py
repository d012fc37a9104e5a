"""Intervention/overwrite rates, reward aggregation, and report rendering.

Conventions: std is the population standard deviation (divisor N), which
reproduces sqrt(p*(1-p)) for binary rewards; IR and OR are averaged per
episode and reported as percentages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import env as env_mod
from .atomic import write_atomic
from .env import Context, TileKind
from .gate import EpisodeRecord, csv_text, read_csv

SUMMARY_CSV_HEADER = [
    "size", "model", "mode", "split",
    "reward_mean", "reward_std", "len_mean", "len_std",
    "ir_pct", "or_pct", "episodes", "tau", "seed",
]

LM_MODE_FOOTNOTE = "note: lm mode consults every step; prompts still carry the policy autopilot line"


@dataclass(frozen=True)
class RunSummary:
    reward_mean: float
    reward_std: float
    length_mean: float
    length_std: float
    ir_percent: float
    or_percent: float
    episode_count: int


@dataclass(frozen=True)
class SummaryRow:
    """A RunSummary plus the run metadata that names it in reports."""

    size: int
    model: str
    mode: str
    split: str
    tau: float
    seed: int
    summary: RunSummary


def intervention_rate(ep: EpisodeRecord) -> float:
    """Fraction of steps on which the LM was consulted."""
    if ep.length < 1:
        raise ValueError("empty episode has no intervention rate")
    return sum(1 for s in ep.steps if s.consulted) / ep.length


def overwrite_rate(ep: EpisodeRecord) -> float:
    """Fraction of consulted steps whose action was overwritten; 0 if none."""
    consulted = sum(1 for s in ep.steps if s.consulted)
    if consulted == 0:
        return 0.0
    return sum(1 for s in ep.steps if s.overwritten) / consulted


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def aggregate(eps) -> RunSummary:
    """Means/population-stds of per-episode reward and length, plus IR/OR."""
    eps = list(eps)
    if not eps:
        raise ValueError("aggregate requires at least one episode")
    # Only the terminal GOAL step pays, so ``ep.reward`` is the undiscounted
    # sum of the step rewards.
    rewards = [float(ep.reward) for ep in eps]
    lengths = [float(ep.length) for ep in eps]
    r_mean, r_std = _mean_std(rewards)
    l_mean, l_std = _mean_std(lengths)
    ir = sum(intervention_rate(ep) for ep in eps) / len(eps)
    orate = sum(overwrite_rate(ep) for ep in eps) / len(eps)
    return RunSummary(
        reward_mean=r_mean,
        reward_std=r_std,
        length_mean=l_mean,
        length_std=l_std,
        ir_percent=100.0 * ir,
        or_percent=100.0 * orate,
        episode_count=len(eps),
    )


def format_mean_std(mean: float, std: float) -> str:
    """Two-decimal rendering used throughout reports, e.g. '0.93 ± 0.26'."""
    return f"{mean:.2f} ± {std:.2f}"


def summary_csv_row(row: SummaryRow) -> list:
    s = row.summary
    return [
        row.size, row.model, row.mode, row.split,
        s.reward_mean, s.reward_std, s.length_mean, s.length_std,
        s.ir_percent, s.or_percent, s.episode_count, row.tau, row.seed,
    ]


def render_summary_table(rows) -> str:
    """Fixed-width table mirroring the Reward | Length | IR (%) | OR (%) layout."""
    rows = list(rows)
    header = ["Size", "Model", "Mode", "Split", "Reward", "Length", "IR (%)", "OR (%)"]
    body = []
    for row in rows:
        s = row.summary
        body.append([
            str(row.size), row.model, row.mode.lower(), row.split.lower(),
            format_mean_std(s.reward_mean, s.reward_std),
            format_mean_std(s.length_mean, s.length_std),
            f"{s.ir_percent:.2f}",
            f"{s.or_percent:.2f}",
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in body)
    if any(row.mode.lower() == "lm" for row in rows):
        lines.append("")
        lines.append(LM_MODE_FOOTNOTE)
    return "\n".join(lines) + "\n"


def render_trajectory(context: Context, actions, cap: int) -> str:
    """Grid overlay of the episode that ``actions`` play on ``context`` under step
    cap ``cap``: S start, G goal, * visited, H holes, then the outcome line.
    Raises ``ValueError`` unless the episode ends exactly at the last action."""
    state = env_mod.reset(context)
    visited = set()
    for action in actions:
        if state.done:
            break
        state, reward, _ = env_mod.step(state, action, cap)
        visited.add((state.row, state.col))
    if not state.done or state.step_count != len(actions):
        raise ValueError(f"{len(actions)} logged actions do not fit context {context.id}: "
                         f"after {state.step_count} the outcome is {state.outcome.value}")
    rows = []
    for r, line in enumerate(context.grid.rows):
        chars = []
        for c, tile in enumerate(line):
            if tile == TileKind.START.value or tile == TileKind.GOAL.value:
                chars.append(tile)
            elif (r, c) in visited:
                chars.append("*")
            elif tile == TileKind.HOLE.value:
                chars.append(tile)
            else:
                chars.append(".")
        rows.append("".join(chars))
    rows.append(f"context {context.id}: outcome {state.outcome.value}, "
                f"reward {reward}, length {len(actions)}")
    return "\n".join(rows) + "\n"


def render_report(data, fmt: str) -> str:
    """Render summary rows as ``csv`` or ``table``; unknown formats raise."""
    if fmt == "csv":
        return csv_text(SUMMARY_CSV_HEADER, map(summary_csv_row, data))
    if fmt == "table":
        return render_summary_table(data)
    raise ValueError(f"unknown report format: {fmt!r}")


def write_summary_csv(rows, path: str, config: dict | None = None) -> None:
    write_atomic(path, csv_text(SUMMARY_CSV_HEADER, map(summary_csv_row, rows), config))


def read_summary_csv(path: str) -> list[SummaryRow]:
    return summary_rows(path, *read_csv(path)[1:])


def summary_rows(path: str, header: list[str], records) -> list[SummaryRow]:
    """The rows of a summary CSV, from the header and records that ``read_csv``
    read at ``path``; a wrong header or a cell that is not a number raises
    ``ValueError`` naming ``path``."""
    if header != SUMMARY_CSV_HEADER:
        raise ValueError(f"unexpected summary header in {path}: {header}")
    rows: list[SummaryRow] = []
    for values in records:
        rec = dict(zip(header, values))

        def number(column: str, kind=float):
            try:
                return kind(rec[column])
            except ValueError:
                raise ValueError(
                    f"{path}: column {column!r} holds {rec[column]!r}, not a number") from None

        summary = RunSummary(
            reward_mean=number("reward_mean"),
            reward_std=number("reward_std"),
            length_mean=number("len_mean"),
            length_std=number("len_std"),
            ir_percent=number("ir_pct"),
            or_percent=number("or_pct"),
            episode_count=number("episodes", int),
        )
        rows.append(SummaryRow(
            size=number("size", int), model=rec["model"], mode=rec["mode"],
            split=rec["split"], tau=number("tau"), seed=number("seed", int),
            summary=summary,
        ))
    return rows
