"""The LM consult (:func:`consult`): prompt construction, the query, response
parsing, and pluggable deciders.

Three interchangeable clients answer prompts:

* :class:`EndpointClient` — POSTs a chat-completions request to a server
  configured via ``ASK_LM_URL`` / ``ASK_LM_TOKEN``.
* :class:`ScriptedClient` — replays queued literal responses (tests/offline).
* :class:`RuleClient` — deterministically applies the prompt's own RULES
  section; it reads the same prompt text a model would.

Every transport-level failure (a timeout, a failed connection, a non-2xx
status, a malformed body, a scripted client run dry) raises one type,
:class:`LmTransportError`, whose message says which; :func:`consult` reports
any of them as the status ``transport_error``, which keeps the policy's action.
"""

from __future__ import annotations

import os
import re
import string
from collections import deque
from typing import NamedTuple

from . import env as env_mod
from .env import Action, EDGE_LABEL

DEFAULT_TIMEOUT = 10.0
DEFAULT_COMPLETIONS_PATH = "/v1/chat/completions"
TEMPERATURE = 0.0    # greedy decoding: the same prompt gets the same reply
MAX_TOKENS = 16      # enough for one {"action":"..."} object
URL_ENV_VAR = "ASK_LM_URL"
TOKEN_ENV_VAR = "ASK_LM_TOKEN"

PROMPT_TEMPLATE = """You are a robot navigation policy.
Your task is to choose exactly ONE action.

VALID ACTIONS:
UP
DOWN
LEFT
RIGHT

RULES:
- Do NOT explain.
- Do NOT add text.
- Do NOT add markdown.
- Do NOT add JSON keys other than "action".
- EDGE tiles are unsafe and must not be chosen.
- If the suggested action is unsafe, choose a safe alternative.
- If multiple safe actions exist, choose the one that moves closer to the goal.

STATE:
Agent position: row {agent_row}, col {agent_col}
Goal position: row {goal_row}, col {goal_col}

IMMEDIATE NEIGHBORS:
UP: {up_tile}
DOWN: {down_tile}
LEFT: {left_tile}
RIGHT: {right_tile}

LOOK AHEAD:
UP->UP: {up_up_tile}
DOWN->DOWN: {down_down_tile}
LEFT->LEFT: {left_left_tile}
RIGHT->RIGHT: {right_right_tile}
AUTOPILOT SUGGESTION: {autopilot}

OUTPUT FORMAT (MANDATORY):
{{"action":"UP"}} OR {{"action":"DOWN"}} OR {{"action":"LEFT"}} OR {{"action":"RIGHT"}}"""

UNSAFE_TILES = frozenset({"HOLE", EDGE_LABEL})

_ACTION_OBJECT = re.compile(r"\{\s*\"action\"\s*:\s*\"([^\"]*)\"\s*\}")


class LmTransportError(RuntimeError):
    """Request never produced a usable response body."""


class PromptContext(NamedTuple):
    """Everything substituted into the prompt template. Every consult builds
    one, so it is a NamedTuple, as is :class:`LmDecision`."""

    agent_row: int
    agent_col: int
    goal_row: int
    goal_col: int
    up_tile: str
    down_tile: str
    left_tile: str
    right_tile: str
    up_up_tile: str
    down_down_tile: str
    left_left_tile: str
    right_right_tile: str
    autopilot: Action

    def tile(self, action: Action) -> str:
        return getattr(self, _TILE_FIELDS[action])


# The PromptContext field that holds each action's adjacent tile.
_TILE_FIELDS = {a: f"{a.name.lower()}_tile" for a in Action}


class LmDecision(NamedTuple):
    """Consult outcome: ok (with an action), parse_failure, invalid_action or transport_error."""

    status: str
    action: Action | None = None


def build_prompt(ctx: PromptContext) -> str:
    return PROMPT_TEMPLATE.format(**{**ctx._asdict(), "autopilot": ctx.autopilot.name})


def parse_decision(raw: str) -> LmDecision:
    """First {"action":"X"} object decides; anything around it is ignored."""
    match = _ACTION_OBJECT.search(raw)
    if match is None:
        return LmDecision(status="parse_failure")
    try:
        return LmDecision(status="ok", action=Action[match.group(1)])
    except KeyError:
        return LmDecision(status="invalid_action")


def render_action(action: Action) -> str:
    """The mandated output format for a chosen action."""
    return f'{{"action":"{action.name}"}}'


def rule_decide(ctx: PromptContext) -> Action:
    """Deterministic realization of the prompt's RULES section.

    An action is safe iff its immediate tile is neither HOLE nor EDGE. A safe
    autopilot suggestion is kept; otherwise the safe action closest to the
    goal wins (Manhattan distance, ties in UP, DOWN, LEFT, RIGHT order). With
    no safe action the autopilot suggestion is returned unchanged.
    """
    safe = {a: ctx.tile(a) not in UNSAFE_TILES for a in Action}
    if safe[ctx.autopilot]:
        return ctx.autopilot
    best: Action | None = None
    best_dist = None
    for action in Action:
        if not safe[action]:
            continue
        dr, dc = action.delta
        dist = abs(ctx.agent_row + dr - ctx.goal_row) + abs(ctx.agent_col + dc - ctx.goal_col)
        if best_dist is None or dist < best_dist:
            best, best_dist = action, dist
    return best if best is not None else ctx.autopilot


def query(client, prompt: str) -> str:
    """Ask a client for a raw response; transport problems raise."""
    return client.query(prompt)


def consult(client, state: env_mod.EnvState, autopilot: Action) -> LmDecision:
    """Ask ``client`` for an action at ``state``, suggesting ``autopilot``; a
    transport error is the status ``transport_error``, with no action. Each
    step is called through its module, so a wrapper set there sees it."""
    prompt = build_prompt(PromptContext(**env_mod.local_view(state), autopilot=autopilot))
    try:
        raw = query(client, prompt)
    except LmTransportError:
        return LmDecision("transport_error")
    return parse_decision(raw)


class EndpointClient:
    """Chat-completions HTTP client (temperature 0 for determinism); each
    request gives up after ``timeout`` seconds."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "default",
        token: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        # Imported here, not at module level: the HTTP stack is most of an
        # askgate import, and only a process that builds this client needs it.
        import requests

        self._requests = requests
        self.base_url = base_url if base_url is not None else os.environ.get(URL_ENV_VAR, "")
        if not self.base_url:
            raise ValueError(f"no endpoint URL: pass base_url or set {URL_ENV_VAR}")
        self.model = model
        self.token = token if token is not None else os.environ.get(TOKEN_ENV_VAR)
        self.timeout = timeout

    def query(self, prompt: str) -> str:
        url = self.base_url.rstrip("/") + DEFAULT_COMPLETIONS_PATH
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        requests = self._requests
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=self.timeout)
        except requests.Timeout as exc:
            raise LmTransportError(f"request timed out after {self.timeout}s") from exc
        except requests.RequestException as exc:
            raise LmTransportError(f"request failed: {exc}") from exc
        if not 200 <= resp.status_code < 300:
            raise LmTransportError(f"endpoint returned status {resp.status_code}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LmTransportError(f"malformed response body: {exc}") from exc
        if not isinstance(content, str):
            raise LmTransportError(f"malformed response body: content is {type(content).__name__}")
        return content


class ScriptedClient:
    """Replays queued responses in order; an empty queue is a transport error."""

    def __init__(self, responses):
        self._queue = deque(responses)

    def query(self, prompt: str) -> str:
        if not self._queue:
            raise LmTransportError("scripted client has no responses left")
        return self._queue.popleft()


_INT_FIELDS = ("agent_row", "agent_col", "goal_row", "goal_col")
# PROMPT_TEMPLATE with a named group at each field: digits for the positions,
# a word for the tiles and the suggestion.
_PROMPT_FIELDS = re.compile("".join(
    re.escape(literal) + ("" if name is None else
                          "(?P<%s>%s)" % (name, r"\d+" if name in _INT_FIELDS else r"\w+"))
    for literal, name, _, _ in string.Formatter().parse(PROMPT_TEMPLATE)
))


def _context_from_prompt(prompt: str) -> PromptContext:
    match = _PROMPT_FIELDS.fullmatch(prompt)
    if match is None:
        raise ValueError("prompt does not follow the expected template")
    fields = match.groupdict()
    for name in _INT_FIELDS:
        fields[name] = int(fields[name])
    fields["autopilot"] = Action[fields["autopilot"]]
    return PromptContext(**fields)


class RuleClient:
    """Follows the prompt's RULES section exactly, reading the prompt itself."""

    def query(self, prompt: str) -> str:
        ctx = _context_from_prompt(prompt)
        return render_action(rule_decide(ctx))
