"""Loopback chat-completions stub for the gate-endpoint-4x4 workload.

Run as a child process (``python3 bench/stub_server.py <src-dir>``): it binds
127.0.0.1 on an ephemeral port, prints ``READY <port>`` on stdout, and then
serves one request at a time on one thread. Each POST to
``/v1/chat/completions`` is answered with ``lm.rule_decide`` applied to the
prompt, so the endpoint client sees the same decisions as the rule client.
``GET /stats`` returns the number of completions served. The stub exits when
its parent goes away, so a killed benchmark leaves nothing behind.

:class:`StubProcess` starts the child, waits for the ready line, and stops it
on every exit path of its ``with`` block.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 5.0
POLL_INTERVAL_S = 0.25


class StubError(RuntimeError):
    """The stub could not be started or did not answer as expected."""


def _serve(src_dir: str) -> int:
    sys.path.insert(0, src_dir)
    from askgate import lm

    served = 0
    parent = os.getppid()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            nonlocal served
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][-1]["content"]
            answer = lm.render_action(lm.rule_decide(lm._context_from_prompt(prompt)))
            served += 1
            self._reply({"choices": [{"message": {"role": "assistant", "content": answer}}]})

        def do_GET(self):
            if self.path != "/stats":
                self.send_error(404)
                return
            self._reply({"requests": served})

        def _reply(self, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.timeout = POLL_INTERVAL_S
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        while os.getppid() == parent:
            server.handle_request()
    finally:
        server.server_close()
    return 0


class StubProcess:
    """Context manager owning one stub child process."""

    def __init__(self, src_dir: str):
        self.src_dir = src_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "StubProcess":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.src_dir],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise StubError(f"stub did not become ready (got {line!r})")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise
        return self

    def request_count(self) -> int:
        import requests

        resp = requests.get(self.url + "/stats", timeout=STOP_TIMEOUT_S)
        resp.raise_for_status()
        return int(resp.json()["requests"])

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "StubProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: stub_server.py <askgate-src-dir>", file=sys.stderr)
        sys.exit(1)
    sys.exit(_serve(sys.argv[1]))
