"""Closed-loop load generator: analysts that wait for each reply.

One :class:`Client` per thread, one keep-alive ``http.client``
connection each, no reconnects between requests and no batching — the
latency an analyst's browser would see, Nagle/delayed-ACK floor
included.  A client plays seeded session scripts
(:class:`workloads.ScriptSource`) back to back until its phase
deadline, finishing the session it is in.

Every request is logged twice: a flat sample ``(kind, latency_ms, ok,
start, end, request_id, click)`` for the metrics (``click`` names what
was expanded: table, rule, column), and — per session — the
concrete op with its reply for the oracle, which runs after the window
so it never competes with the tier for a core.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from workloads import ScriptSource, Workload, append_batch

REQUEST_TIMEOUT = 60.0
_OK = (200, 201)


class _SessionAborted(Exception):
    """A request of the session failed; the rest of the script is skipped."""


class Client:
    """One closed-loop analyst on one keep-alive connection."""

    def __init__(self, index: int, port: int, workload: Workload, seed: int,
                 bases: dict, n_clients: int, append_every: int):
        self.index = index
        self.workload = workload
        self.seed = seed
        self.bases = bases  # table name -> base Table (version 1)
        self.append_every = append_every
        self.scripts = ScriptSource(random.Random(f"{seed}/client/{index}"), workload)
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        self.samples: list[tuple] = []
        self.sessions: list[dict] = []
        self.appends: list[dict] = []
        self.failures: list[str] = []
        self.elapsed = 0.0
        #: Set by the driver on the way out of a failed run: finish the
        #: request in flight, start nothing new.
        self.stopped = False
        self._request_no = 0
        self._session_no = 0
        # One appending client per table keeps each table's versions in
        # batch order, which is what lets the oracle rebuild version v.
        owned = [name for i, name in enumerate(workload.append_tables)
                 if i % n_clients == index]
        self._owned = owned
        self._batch_no = {name: 0 for name in owned}
        self._append_turn = 0

    # -- one request --------------------------------------------------------------

    def request(self, kind: str, method: str, path: str, body: dict | None = None,
                click: tuple | None = None) -> dict:
        self._request_no += 1
        request_id = f"c{self.index}-{self._request_no}"
        headers = {"X-Request-Id": request_id}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            end = time.perf_counter()
            self.conn.close()  # http.client reconnects on the next request
            self.samples.append((kind, (end - start) * 1e3, False, start, end, request_id, click))
            self.failures.append(f"{request_id} {method} {path}: {exc!r}")
            raise _SessionAborted from exc
        end = time.perf_counter()
        ok = status in _OK
        self.samples.append((kind, (end - start) * 1e3, ok, start, end, request_id, click))
        reply = json.loads(raw)
        if not ok:
            self.failures.append(f"{request_id} {method} {path}: HTTP {status} {reply}")
            raise _SessionAborted
        return reply

    # -- one session --------------------------------------------------------------

    def _append(self) -> None:
        name = self._owned[self._append_turn % len(self._owned)]
        self._append_turn += 1
        self._batch_no[name] += 1
        batch_no = self._batch_no[name]
        rows = append_batch(self.bases[name], name, self.seed, batch_no)
        try:
            reply = self.request("append", "POST", f"/tables/{name}/rows", {"rows": rows})
        except _SessionAborted:
            return
        self.appends.append({"table": name, "batch_no": batch_no, "reply": reply})

    def run_session(self) -> None:
        self._session_no += 1
        if self._owned and self._session_no % self.append_every == 0:
            self._append()
        script = self.scripts.next()
        table = script["table"]
        categorical = set(self.bases[table].schema.categorical_indexes)
        ops: list[dict] = []
        log = {"table": table, "ops": ops}
        self.sessions.append(log)
        session_id = None
        try:
            created = self.request(
                "create", "POST", "/sessions", {"table": table, **self.workload.session}
            )
            session_id = created["session_id"]
            log["root"] = created["root"]
            base = f"/sessions/{session_id}"
            root = tuple(created["root"]["rule"])
            leaves, expanded, children_of = [root], [], {}

            def expand(kind: str, rule: tuple, column: int | None) -> None:
                body = {"rule": list(rule), **self.workload.expand_extra}
                op = "expand"
                if column is not None:
                    body["column"] = column
                    op = "expand_star"
                reply = self.request(kind, "POST", f"{base}/{op}", body,
                                     click=(table, rule, column))
                ops.append({"op": op, "rule": list(rule), "column": column, "reply": reply})
                kids = [tuple(child["rule"]) for child in reply["children"]]
                leaves.remove(rule)
                if kids:  # a childless node stays unexpanded server-side: retire it
                    expanded.append(rule)
                    children_of[rule] = kids
                    leaves.extend(kids)

            def forget(rule: tuple) -> None:
                for kid in children_of.pop(rule, ()):
                    forget(kid)
                    if kid in leaves:
                        leaves.remove(kid)
                    if kid in expanded:
                        expanded.remove(kid)

            expand("first_expand", root, None)
            for step in script["steps"]:
                kind = step[0]
                if kind in ("expand", "star") and leaves:
                    rule = leaves[int(step[1] * len(leaves))]
                    column = None
                    if kind == "star":
                        free = [i for i, v in enumerate(rule) if v is None and i in categorical]
                        if free:
                            column = free[int(step[2] * len(free))]
                    expand("expand", rule, column)
                elif kind == "child" and children_of.get(root):
                    kids = children_of[root]
                    rule = kids[step[1] % len(kids)]
                    if rule in leaves:  # fewer children than k: the pair may collide
                        expand("expand", rule, None)
                elif kind == "collapse" and expanded:
                    rule = expanded[int(step[1] * len(expanded))]
                    reply = self.request("collapse", "POST", f"{base}/collapse",
                                         {"rule": list(rule)})
                    ops.append({"op": "collapse", "rule": list(rule), "reply": reply})
                    forget(rule)
                    expanded.remove(rule)
                    leaves.append(rule)
                elif kind == "tree":
                    reply = self.request("tree", "GET", base)
                    ops.append({"op": "tree", "reply": reply})
                else:  # render, or a step with nothing left to act on
                    reply = self.request("render", "GET", f"{base}/render")
                    ops.append({"op": "render", "reply": reply})
        except _SessionAborted:
            log["aborted"] = True
        finally:
            if session_id is not None:
                try:
                    self.request("delete", "DELETE", f"/sessions/{session_id}")
                except _SessionAborted:
                    pass

    # -- one phase ----------------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Play sessions until ``deadline`` (``perf_counter`` time)."""
        start = time.perf_counter()
        while not self.stopped and time.perf_counter() < deadline:
            self.run_session()
        self.elapsed = time.perf_counter() - start

    def take(self) -> dict:
        """Hand over and reset what this client logged during a phase."""
        out = {"samples": self.samples, "sessions": self.sessions,
               "appends": self.appends, "failures": self.failures,
               "elapsed": self.elapsed}
        self.samples, self.sessions, self.appends, self.failures = [], [], [], []
        return out


def run_phase(clients: list[Client], seconds: float, *, grace: float = 90.0) -> list[dict]:
    """Run every client for ``seconds``; one dict of logs per client.

    The join timeout is the watchdog: a wedged tier leaves a client
    blocked in a socket read, and the caller must then tear the tier
    down (which unblocks the read) instead of waiting forever.
    """
    deadline = time.perf_counter() + seconds
    threads = [
        threading.Thread(target=client.run_until, args=(deadline,), daemon=True,
                         name=f"e2e-client-{client.index}")
        for client in clients
    ]
    for thread in threads:
        thread.start()
    give_up = time.monotonic() + seconds + grace
    for thread in threads:
        thread.join(max(0.0, give_up - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError(f"load generator wedged: no progress {grace:g}s past the window")
    return [client.take() for client in clients]
