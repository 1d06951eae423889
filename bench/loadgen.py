"""Open-loop HTTP load generator for the serving workload.

Requests are sent on their schedule whatever the server does: each of at
most ``connections`` keep-alive connections takes the next request that is
due, so a slow server builds a backlog here rather than slowing the
offered load.  Each request is timed from its due time, which counts the
wait a stall imposes on the requests behind it.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .inputs import Request

#: Seconds a sender waits for its threads and replies before giving up.
REPLY_TIMEOUT = 60.0


@dataclass
class Outcome:
    """What happened to one scheduled request (times are perf_counter)."""

    request: Request
    due: float
    sent: float
    done: float
    status: int
    rows: Optional[List[dict]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.rows is not None


def request_body(request: Request) -> bytes:
    if len(request.pairs) == 1:
        pattern, text = request.pairs[0]
        payload = {"pattern": pattern, "text": text}
    else:
        payload = {"pairs": [list(pair) for pair in request.pairs]}
    return json.dumps(payload).encode()


def run_phase(
    host: str,
    port: int,
    requests: Sequence[Request],
    *,
    connections: int = 2,
    stop_after: Optional[float] = None,
) -> List[Outcome]:
    """Play one phase's schedule; returns outcomes of the requests sent.

    With ``stop_after`` (seconds), requests due after that point of the
    phase are not sent; replies still in flight are awaited.
    """
    start = time.perf_counter()
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Outcome] = []

    def take() -> Optional[Request]:
        with lock:
            if cursor[0] >= len(requests):
                return None
            request = requests[cursor[0]]
            if stop_after is not None and (
                request.due >= stop_after
                or time.perf_counter() - start >= stop_after
            ):
                return None
            cursor[0] += 1
            return request

    def sender() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REPLY_TIMEOUT)
        try:
            while True:
                request = take()
                if request is None:
                    return
                due = start + request.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                body = request_body(request)
                sent = time.perf_counter()
                status, payload, error = 0, b"", None
                try:
                    conn.request("POST", "/align", body=body, headers={
                        "Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REPLY_TIMEOUT)
                done = time.perf_counter()
                outcome = Outcome(request, due, sent, done, status,
                                  error=error)
                if status == 200:
                    outcome.rows = json.loads(payload)["results"]
                elif error is None:
                    outcome.error = payload[:200].decode(errors="replace")
                with lock:
                    outcomes.append(outcome)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, name=f"bench-client-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
