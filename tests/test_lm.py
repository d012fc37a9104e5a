"""Prompt text, response parsing, the rule decider, and all three clients."""

import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgate.env import Action, generate_context_set
from askgate.gate import GateConfig, RunMode, run_episode
from askgate.lm import (
    EndpointClient,
    LmDecision,
    LmTransportError,
    PromptContext,
    RuleClient,
    ScriptedClient,
    _context_from_prompt,
    build_prompt,
    parse_decision,
    query,
    render_action,
    rule_decide,
)
from askgate.policy import init_policy

TILES = ("START", "FROZEN", "HOLE", "GOAL", "EDGE")


def make_context(**overrides):
    fields = dict(
        agent_row=2, agent_col=1, goal_row=3, goal_col=3,
        up_tile="FROZEN", down_tile="HOLE", left_tile="FROZEN", right_tile="FROZEN",
        up_up_tile="EDGE", down_down_tile="EDGE", left_left_tile="EDGE",
        right_right_tile="GOAL", autopilot=Action.DOWN,
    )
    fields.update(overrides)
    return PromptContext(**fields)


def random_context(rng):
    return PromptContext(
        agent_row=int(rng.integers(0, 8)), agent_col=int(rng.integers(0, 8)),
        goal_row=7, goal_col=7,
        up_tile=TILES[rng.integers(5)], down_tile=TILES[rng.integers(5)],
        left_tile=TILES[rng.integers(5)], right_tile=TILES[rng.integers(5)],
        up_up_tile=TILES[rng.integers(5)], down_down_tile=TILES[rng.integers(5)],
        left_left_tile=TILES[rng.integers(5)], right_right_tile=TILES[rng.integers(5)],
        autopilot=Action(int(rng.integers(4))),
    )


# ---------------------------------------------------------------------------
# Prompt text


GOLDEN_PROMPT = """You are a robot navigation policy.
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
Agent position: row 2, col 1
Goal position: row 3, col 3

IMMEDIATE NEIGHBORS:
UP: FROZEN
DOWN: HOLE
LEFT: FROZEN
RIGHT: FROZEN

LOOK AHEAD:
UP->UP: EDGE
DOWN->DOWN: EDGE
LEFT->LEFT: EDGE
RIGHT->RIGHT: GOAL
AUTOPILOT SUGGESTION: DOWN

OUTPUT FORMAT (MANDATORY):
{"action":"UP"} OR {"action":"DOWN"} OR {"action":"LEFT"} OR {"action":"RIGHT"}"""


def test_prompt_matches_golden_text():
    assert build_prompt(make_context()) == GOLDEN_PROMPT


def test_prompt_substitutes_every_field():
    rng = np.random.default_rng(0)
    ctx = random_context(rng)
    prompt = build_prompt(ctx)
    assert "{" not in prompt.replace('{"action"', "").replace('"}', "")
    assert f"Agent position: row {ctx.agent_row}, col {ctx.agent_col}" in prompt
    assert f"AUTOPILOT SUGGESTION: {ctx.autopilot.name}" in prompt


@given(st.tuples(*[st.integers(0, 10**6)] * 4, *[st.sampled_from(TILES)] * 8,
                 st.sampled_from(Action)))
def test_the_rule_client_reads_back_every_prompt_it_is_given(fields):
    ctx = PromptContext(*fields)
    assert _context_from_prompt(build_prompt(ctx)) == ctx


# ---------------------------------------------------------------------------
# Parsing


def test_parse_valid_object():
    decision = parse_decision('{"action":"LEFT"}')
    assert decision == LmDecision(status="ok", action=Action.LEFT)
    assert decision.is_action


def test_parse_embedded_object():
    decision = parse_decision('Sure! {"action":"LEFT"} done')
    assert decision.is_action and decision.action is Action.LEFT


def test_parse_garbage_fails():
    decision = parse_decision("I think you should go left")
    assert decision.status == "parse_failure"
    assert not decision.is_action and decision.action is None


def test_parse_invalid_token():
    decision = parse_decision('{"action":"NORTHWEST"}')
    assert decision.status == "invalid_action"
    assert not decision.is_action and decision.action is None


def test_parse_tolerates_whitespace():
    decision = parse_decision('{ "action" : "UP" }')
    assert decision.is_action and decision.action is Action.UP


def test_parse_takes_the_first_object():
    decision = parse_decision('{"action":"UP"} {"action":"DOWN"}')
    assert decision.action is Action.UP


def assert_well_formed(decision):
    assert isinstance(decision, LmDecision)
    assert decision.status in ("ok", "parse_failure", "invalid_action")
    assert decision.is_action == (decision.status == "ok")
    assert isinstance(decision.action, Action) if decision.is_action else decision.action is None


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_decision_is_total_on_any_text(raw):
    assert_well_formed(parse_decision(raw))


NAMES = [a.name for a in Action]
NEAR_MISSES = [variant for name in NAMES for variant in (name.lower(), name.title(), f" {name}", f"{name} ")]


@settings(max_examples=300, deadline=None)
@given(st.text(), st.one_of(st.sampled_from(NAMES), st.sampled_from(NEAR_MISSES), st.text()), st.text())
def test_parse_decision_is_total_around_an_embedded_object(before, token, after):
    decision = parse_decision(before + '{"action":"%s"}' % token + after)
    assert_well_formed(decision)
    if "{" not in before and '"' not in token:  # the embedded object is the first match
        assert decision.status == ("ok" if token in Action.__members__ else "invalid_action")
        assert decision.action is Action.__members__.get(token)


def test_rendered_actions_round_trip():
    for action in Action:
        assert render_action(action) == '{"action":"%s"}' % action.name
        assert parse_decision(render_action(action)).action is action


# ---------------------------------------------------------------------------
# Rule decider


def test_rule_keeps_a_safe_suggestion():
    ctx = make_context(autopilot=Action.RIGHT, right_tile="FROZEN")
    assert rule_decide(ctx) is Action.RIGHT


def test_rule_replaces_an_unsafe_suggestion_with_progress():
    # DOWN is a hole; RIGHT moves from (2,1) to (2,2), distance 2 to the goal,
    # strictly closer than UP (4) or LEFT (4).
    ctx = make_context(autopilot=Action.DOWN)
    assert rule_decide(ctx) is Action.RIGHT


def test_rule_treats_edges_as_unsafe():
    ctx = make_context(autopilot=Action.UP, up_tile="EDGE", right_tile="HOLE",
                       left_tile="FROZEN", down_tile="HOLE")
    assert rule_decide(ctx) is Action.LEFT


def test_rule_breaks_distance_ties_in_action_order():
    # Agent (1,1), goal (3,3): DOWN and RIGHT both reach distance 3; DOWN
    # comes first in the fixed UP, DOWN, LEFT, RIGHT order.
    ctx = make_context(agent_row=1, agent_col=1, autopilot=Action.UP,
                       up_tile="HOLE", down_tile="FROZEN", right_tile="FROZEN",
                       left_tile="FROZEN")
    assert rule_decide(ctx) is Action.DOWN


def test_rule_returns_suggestion_when_nothing_is_safe():
    ctx = make_context(autopilot=Action.LEFT, up_tile="HOLE", down_tile="EDGE",
                       left_tile="HOLE", right_tile="EDGE")
    assert rule_decide(ctx) is Action.LEFT


def test_rule_walks_onto_the_goal():
    ctx = make_context(agent_row=3, agent_col=2, autopilot=Action.UP,
                       up_tile="HOLE", right_tile="GOAL", down_tile="EDGE")
    assert rule_decide(ctx) is Action.RIGHT


def test_rule_client_always_answers_parseable():
    client = RuleClient()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        ctx = random_context(rng)
        raw = client.query(build_prompt(ctx))
        decision = parse_decision(raw)
        assert decision.is_action, f"unparseable rule output {raw!r} for {ctx}"
        assert decision.action is rule_decide(ctx)


def test_rule_client_rejects_unknown_prompt_shapes():
    prompt = build_prompt(make_context())
    for text in ("tell me a story", prompt + "\n", prompt.replace("VALID", "ALLOWED")):
        with pytest.raises(ValueError, match="does not follow the expected template"):
            RuleClient().query(text)


# ---------------------------------------------------------------------------
# Scripted client


def test_scripted_client_replays_in_order():
    client = ScriptedClient(['{"action":"UP"}', "gibberish"])
    assert query(client, "first prompt") == '{"action":"UP"}'
    assert query(client, "second prompt") == "gibberish"
    with pytest.raises(LmTransportError):
        query(client, "third prompt")


# ---------------------------------------------------------------------------
# Endpoint client against a real local server


@contextmanager
def serve(handler_fn):
    """Spin up a one-endpoint HTTP server; handler_fn(request_json) -> (status, body)."""
    captured = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length) or b"{}")
            captured.append({"path": self.path, "json": request,
                             "auth": self.headers.get("Authorization")})
            status, body = handler_fn(request)
            payload = body.encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client gave up first (the timeout test)

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        daemon_threads = False  # so server_close() joins the handler threads

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", captured
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def chat_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]})


def test_endpoint_round_trip_and_request_shape():
    def handler(request):
        return 200, chat_body('{"action":"DOWN"}')

    with serve(handler) as (url, captured):
        client = EndpointClient(base_url=url, model="tiny", token="sekrit", timeout=5.0)
        raw = client.query("PROMPT TEXT")
    assert raw == '{"action":"DOWN"}'
    sent = captured[0]
    assert sent["path"] == "/v1/chat/completions"
    assert sent["auth"] == "Bearer sekrit"
    assert sent["json"] == {
        "model": "tiny",
        "messages": [{"role": "user", "content": "PROMPT TEXT"}],
        "temperature": 0.0,
        "max_tokens": 16,
    }


def test_endpoint_reads_url_and_token_from_env(monkeypatch):
    def handler(request):
        return 200, chat_body("ok")

    with serve(handler) as (url, captured):
        monkeypatch.setenv("ASK_LM_URL", url)
        monkeypatch.setenv("ASK_LM_TOKEN", "envtok")
        client = EndpointClient(timeout=5.0)
        assert client.query("hi") == "ok"
    assert captured[0]["auth"] == "Bearer envtok"


def test_endpoint_requires_a_url(monkeypatch):
    monkeypatch.delenv("ASK_LM_URL", raising=False)
    with pytest.raises(ValueError):
        EndpointClient()


def test_endpoint_http_error_carries_status():
    def handler(request):
        return 503, "busy"

    with serve(handler) as (url, _):
        client = EndpointClient(base_url=url, timeout=5.0)
        with pytest.raises(LmTransportError, match="endpoint returned status 503"):
            client.query("hi")


@pytest.mark.parametrize("body", ["not json at all", json.dumps({"unexpected": 1}),
                                  chat_body(None), chat_body(3)])
def test_endpoint_malformed_body_is_transport_error(body):
    def handler(request):
        return 200, body

    with serve(handler) as (url, _):
        client = EndpointClient(base_url=url, timeout=5.0)
        with pytest.raises(LmTransportError, match="malformed response body"):
            client.query("hi")


def test_null_content_falls_back_to_the_policy():
    contexts = generate_context_set(4, 9, 2).contexts
    cfg = GateConfig(mode=RunMode.LM_ONLY, passes=3, max_steps=5)
    with serve(lambda request: (200, chat_body(None))) as (url, _):
        ep = run_episode(init_policy(seed=0), EndpointClient(base_url=url), contexts[0], cfg)
    assert ep.steps and all(s.lm_status == "transport_error" for s in ep.steps)
    assert all(s.final_action == s.policy_action for s in ep.steps)


def test_endpoint_timeout_raises_timeout_error(capfd):
    released = threading.Event()

    def handler(request):
        released.wait(5.0)
        return 200, chat_body("late")

    with serve(handler) as (url, _):
        client = EndpointClient(base_url=url, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(LmTransportError, match=r"request timed out after 0\.2s"):
            client.query("hi")
        assert time.monotonic() - start < 0.9
        released.set()  # the late reply now goes to a closed connection
    assert "Exception occurred during processing of request" not in capfd.readouterr().err


def test_endpoint_connection_refused_is_transport_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = EndpointClient(base_url=f"http://127.0.0.1:{port}", timeout=1.0)
    with pytest.raises(LmTransportError, match="request failed: "):
        client.query("hi")
