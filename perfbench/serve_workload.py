"""Request-path workloads over one served graph (unet_small, TeMCO).

`serve_open` drives an `InferenceServer` in process on a seeded Poisson
schedule (open loop: independent users, latency counted from the time a
request was *due*), which exercises admission, the queue and the
micro-batcher's coalescing, padding and splitting with no HTTP in the
way.  `fleet_http` drives `serve_http(Router(ReplicaPool(K=2)))` with
two blocking HTTP clients (closed loop: callers that wait for a reply),
the only path through the JSON frontend and the fleet router.

A traced run ends, with the servers idle, on a tenth of its time in
direct `InferenceSession.run` rounds of the served graph (the graph
workloads' own `measure`), to tell execution from queueing.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import InferenceSession
from repro.fleet import PoolConfig, ReplicaPool, Router
from repro.serve import InferenceServer, ServerConfig, serve_http

import graph_workload
from common import (SpanLog, Tally, Yardstick, awake_core, geomean, now, p50,
                    p90, pct, rss_peak_mb, yardstick_metrics)

MODEL, METHOD, BATCH = "unet_small", "tucker", 4
#: request sizes in samples and how many payloads of each size the pool
#: holds: 70 / 20 / 10 %; 6 > BATCH forces a split.  The mix is exact, not
#: drawn, so that the offered load is the same at every seed
POOL_MIX = ((1, 14), (2, 4), (6, 2))
POOL_SIZE = sum(count for _size, count in POOL_MIX)
#: `serve_open`'s steps: (offered rate in requests/s, share of the load
#: phase).  Steps hold about the same number of requests.  The first is
#: the base rate the end-to-end latencies are read at: the single worker
#: is ~25 % busy there, so queueing adds little to a slowdown of the
#: machine; at 60 req/s it turns a 25 % slowdown into an 80 % one, which
#: on a shared box is noise, not signal
STEPS = ((20, 0.5), (40, 0.25), (60, 0.25))
#: an answer later than this counts as a miss in `goodput_share`
LIMIT_MS = 100.0
#: the generator takes its yardstick sample this long before a request
#: is due, so that the sample does not make the request late
TICK_LEAD_S = 0.001
WARMUP_REQUESTS = 8
RESULT_TIMEOUT_S = 20.0
#: share of a traced run spent on direct runs of the served graph
DIRECT_SHARE = 0.1


def make_payloads(seed: int, mixed: bool) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    sizes = ([size for size, count in POOL_MIX for _ in range(count)]
             if mixed else [1] * POOL_SIZE)
    return [rng.normal(size=(n, 3, graph_workload.HW, graph_workload.HW)
                       ).astype(np.float32) for n in sizes]


def direct_outputs(session: InferenceSession, payload: np.ndarray
                   ) -> np.ndarray:
    """What a direct `InferenceSession.run` answers for `payload`:
    shards of BATCH samples, the tail zero-padded."""
    parts = []
    for lo in range(0, len(payload), BATCH):
        shard = np.zeros((BATCH,) + payload.shape[1:], dtype=payload.dtype)
        chunk = payload[lo:lo + BATCH]
        shard[:len(chunk)] = chunk
        parts.append(session.run(shard).output()[:len(chunk)])
    return np.concatenate(parts)


# -- set-up and teardown -----------------------------------------------------

@dataclass
class Stack:
    """Everything one set-up started, and how long each part took."""

    served: graph_workload.Compiled
    times: dict[str, float]
    server: InferenceServer | None = None
    router: Router | None = None
    httpd: object = None

    def servers(self) -> list[InferenceServer]:
        if self.server is not None:
            return [self.server]
        return [r.server for r in self.router.pool.replicas]

    def close(self, yard: Yardstick) -> dict[str, float]:
        """Close httpd, then router and pool, then server; time each."""
        times = {}
        for key, part in (("httpd", self.httpd), ("fleet", self.router),
                          ("serve", self.server)):
            with yard.timed(times, key):
                if part is not None:
                    part.close()
        return times


def start_server(served, payloads, yard: Yardstick) -> Stack:
    stack = Stack(served, dict(served.times))
    with yard.timed(stack.times, "serve_start"):
        stack.server = InferenceServer(
            served.temco, ServerConfig(num_workers=1, max_queue=256)).start()
    with yard.timed(stack.times, "warmup"):
        for i in range(WARMUP_REQUESTS):
            stack.server.infer(payloads[i % len(payloads)],
                               timeout=RESULT_TIMEOUT_S)
    return stack


def start_fleet(served, bodies: list[bytes], replicas: int, yard: Yardstick
                ) -> Stack:
    stack = Stack(served, dict(served.times))
    with yard.timed(stack.times, "pool_start"):
        pool = ReplicaPool(served.temco, PoolConfig(
            replicas=replicas, server=ServerConfig(num_workers=1)))
        stack.router = Router(pool).start()
    with yard.timed(stack.times, "httpd_start"):
        stack.httpd = serve_http(stack.router)
    with yard.timed(stack.times, "warmup"):
        conn = http.client.HTTPConnection(*stack.httpd.address,
                                          timeout=RESULT_TIMEOUT_S)
        for i in range(WARMUP_REQUESTS):
            post(conn, bodies[i % len(bodies)])
        conn.close()
    return stack


# -- load generation ---------------------------------------------------------------

@dataclass
class Request:
    """One offered request and what became of it."""

    payload: int
    step: int = 0
    due: float | None = None  #: when it was due to be sent (open loop)
    tick: int = 0           #: the yardstick sample taken just before it
    slow: float = 1.0       #: the machine's slowness around that sample
    sent: float = 0.0       #: when the client actually sent it
    done: float = 0.0       #: when the client had the answer
    backend_s: float = 0.0  #: latency the program reported for it
    answer: object = None   #: future, or (status, body bytes)
    correct: bool = False

    @property
    def start(self) -> float:
        """Open loop: when the request was due; closed loop: when sent."""
        return self.sent if self.due is None else self.due

    @property
    def latency_ms(self) -> float:
        """Yardstick-scaled, as every reported time is."""
        return (self.done - self.start) * 1e3 / self.slow

    @property
    def backend_ms(self) -> float:
        return self.backend_s * 1e3 / self.slow


def poisson_schedule(trace: int, seconds: float) -> list[Request]:
    """Poisson arrivals through STEPS, conditioned on their count: a
    step holds exactly rate x duration arrivals at independent uniform
    times, which is how a Poisson process falls given that count.
    Payloads are dealt from shuffled decks of the pool, so every
    POOL_SIZE requests carry the exact mix.

    The schedule is a fixed trace, one per phase of a run, not drawn
    from the run's seed (which draws the payloads): which arrivals fall
    close together decides the tail, and over the ~240 requests of a
    step that alone moved the p90 by 15 % from seed to seed, twice what
    the machine does."""
    rng = np.random.default_rng([trace, 2])
    schedule: list[Request] = []
    deck: list[int] = []
    start = 0.0
    for step, (rate, share) in enumerate(STEPS):
        end = start + share * seconds
        dues = rng.uniform(start, end, size=round(rate * (end - start)))
        for due in np.sort(dues):
            deck = deck or rng.permutation(POOL_SIZE).tolist()
            schedule.append(Request(payload=deck.pop(), step=step,
                                    due=float(due)))
        start = end
    return schedule


@dataclass
class Load:
    """One measured load phase."""

    requests: list[Request]
    samples_ok: int = 0
    throughput_sps: float = 0.0
    backlog: list[int] = field(default_factory=list)  #: per step, open loop
    stats_delta: dict[str, float] = field(default_factory=dict)
    #: the phase's yardstick samples, seconds
    yard: np.ndarray | None = None

    def scale(self, yard: Yardstick) -> None:
        """Give every request the machine's slowness around it."""
        slow = yard.slowness()
        for request in self.requests:
            request.slow = float(slow[request.tick])
        self.yard = np.asarray(yard.samples[self.requests[0].tick:])

    def latencies(self, step: int | None = None) -> list[float]:
        return [r.latency_ms for r in self.requests
                if r.correct and (step is None or r.step == step)]


def sleep_until(due: float) -> None:
    delay = due - now()
    if delay > 0:
        time.sleep(delay)


def drive_open(server: InferenceServer, payloads, references,
               schedule: list[Request], tally: Tally, yard: Yardstick
               ) -> Load:
    """Submit on the schedule from this thread; sleeping, not spinning,
    so the wait does not take the interpreter lock from the worker."""
    def open_requests(upto: int) -> int:
        return sum(1 for r in schedule[:upto]
                   if r.answer is not None and not r.answer.done())

    base = now()
    backlog = []
    for i, request in enumerate(schedule):
        if i and request.step != schedule[i - 1].step:
            backlog.append(open_requests(i))
        request.due += base
        sleep_until(request.due - TICK_LEAD_S)
        request.tick = yard.tick()
        sleep_until(request.due)
        request.sent = now()
        try:
            request.answer = server.submit(payloads[request.payload])
        except Exception as exc:  # Overloaded / closed: a miss, not a crash
            tally.fail(f"submit refused: {exc!r}")
    backlog.append(open_requests(len(schedule)))
    load = Load(schedule, backlog=backlog)
    for request in schedule:
        future = request.answer
        if future is None:
            continue
        try:
            outputs = future.result(RESULT_TIMEOUT_S)
        except Exception as exc:  # shed, failed or timed out: a miss
            tally.fail(f"request failed: {exc!r}")
            continue
        request.backend_s = future.latency_s
        # due -> sent is the generator's lateness, sent -> answer the
        # latency the server stamped on the future at resolution
        request.done = request.sent + future.latency_s
        request.correct = tally.check(
            np.array_equal(next(iter(outputs.values())),
                           references[request.payload]),
            "served output not bitwise equal to a direct run")
        if request.correct:
            load.samples_ok += len(payloads[request.payload])
    # open loop: what was offered and answered, over the time it took
    wall_s = max((r.done for r in schedule), default=now()) - base
    load.throughput_sps = load.samples_ok / wall_s
    load.scale(yard)
    return load


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/infer", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def drive_http(address, bodies: list[bytes], references, output_name: str,
               seconds: float, seed: int, tally: Tally, yard: Yardstick
               ) -> Load:
    """One blocking client, sending its next request when the previous
    reply is in: with the server's threads that is as much as the two
    cores carry without measuring the scheduler.  Replies are parsed and
    checked afterwards, so the check does not compete with the server
    for the interpreter."""
    rng = np.random.default_rng([seed, 3])
    conn = http.client.HTTPConnection(*address, timeout=RESULT_TIMEOUT_S)
    load = Load([])
    end = now() + seconds
    while now() < end:
        request = Request(payload=int(rng.integers(len(bodies))),
                          tick=yard.tick())
        request.sent = now()
        try:
            request.answer = post(conn, bodies[request.payload])
        except (OSError, http.client.HTTPException) as exc:
            request.answer = (-1, repr(exc).encode())
            conn.close()
        request.done = now()
        load.requests.append(request)
    conn.close()
    load.scale(yard)
    for request in load.requests:
        status, body = request.answer
        if status != 200:
            tally.fail(f"HTTP {status}: {body[:120]!r}")
            continue
        doc = json.loads(body)
        request.backend_s = float(doc["latency_ms"]) / 1e3
        got = np.asarray(doc["outputs"][output_name], dtype=np.float32)
        request.correct = tally.check(
            np.array_equal(got, references[request.payload]),
            "HTTP output differs from a direct run after the JSON round trip")
        load.samples_ok += int(request.correct)
    # closed loop: answers (1 sample each) over the time spent waiting
    # for any answer, which leaves out the yardstick between requests
    load.throughput_sps = load.samples_ok / sum(
        r.latency_ms / 1e3 for r in load.requests)
    return load


# -- metrics -------------------------------------------------------------------------

def counters(stack: Stack) -> dict[str, float]:
    """Sum of the servers' counters (and the router's, for a fleet)."""
    total: dict[str, float] = {}
    stats = [server.stats() for server in stack.servers()]
    if stack.router is not None:
        stats.append(stack.router.stats())
    for snapshot in stats:
        for key, value in snapshot.items():
            total[key] = total.get(key, 0.0) + value
    return total


def end_to_end(load: Load, setup_s: float, served, tally: Tally) -> dict:
    # open loop: latency at the base rate; closed loop has one step
    base = load.latencies(step=0)
    good = sum(1 for ms in load.latencies() if ms <= LIMIT_MS)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": p50(base),
        "latency_ms_p90": p90(base),
        "throughput_sps": load.throughput_sps,
        # no (decomposed, temco) session pair or budget row runs here
        "overhead_vs_decomposed": geomean([]),
        "budget_overhead": geomean([]),
        "peak_bytes": float(served.peaks["temco"]),
        "peak_ratio_vs_decomposed": (served.peaks["temco"]
                                     / served.peaks["decomposed"]),
        "goodput_share": good / max(len(load.requests), 1),
        "ok_share": tally.ok_share,
    }


def max_rate_ok(load: Load) -> float:
    """Highest step whose p90 met LIMIT_MS with no growing backlog: at
    most as many requests still open at the step's end as the limit
    itself explains at that rate (Little's law)."""
    best = 0.0
    for step, (rate, _share) in enumerate(STEPS):
        latencies = load.latencies(step)
        offered = sum(1 for r in load.requests if r.step == step)
        if (latencies and len(latencies) == offered
                and p90(latencies) <= LIMIT_MS
                and load.backlog[step] <= max(2.0, rate * LIMIT_MS / 1e3)):
            best = float(rate)
    return best


@dataclass
class Traced:
    """What the traced run of a serve workload collected."""

    setup_times: list[dict]
    close_times: list[dict]
    reference: Load
    load: Load
    direct: graph_workload.Phase
    body_bytes: list[int] = field(default_factory=list)
    #: cumulative p50s of the router's and the replicas' own latency clocks
    router_ms_p50: float = 0.0
    replica_ms_p50: float = 0.0
    k1_sps: float = 0.0


def per_layer(name: str, t: Traced) -> dict:
    def med(times: list[dict], key: str) -> float:
        return p50([one.get(key, 0.0) for one in times])

    load, d = t.load, t.load.stats_delta
    ok = [r for r in load.requests if r.correct]
    batches = d.get("serve.batches", 0.0)
    useful = d.get("serve.batch_samples.sum", 0.0)
    padded = d.get("serve.padded_samples", 0.0)
    m = {
        "models.build_s": med(t.setup_times, "build"),
        "decompose.tucker_s": med(t.setup_times, METHOD),
        "core.optimize_s": med(t.setup_times, "optimize"),
        "serve.backend_latency_ms_p50": p50([r.backend_ms for r in ok]),
        "serve.backend_latency_ms_p90": p90([r.backend_ms for r in ok]),
        "serve.direct_run_ms_p50": t.direct.p(MODEL, "temco"),
        "serve.batch_fill": useful / max(useful + padded, 1.0),
        "serve.batches": batches,
        "serve.samples_per_batch": useful / max(batches, 1.0),
        "serve.rejected": d.get("serve.rejected", 0.0),
        "serve.shed": d.get("serve.shed", 0.0),
        "serve.start_s": med(t.setup_times, "serve_start"),
        "serve.close_s": med(t.close_times, "serve"),
        "loadgen.offered": float(len(load.requests)),
        "loadgen.completed": float(len(ok)),
        "loadgen.latency_ms_p99": pct(load.latencies(), 99),
        "bench.trace_overhead": (p50(load.latencies())
                                 / p50(t.reference.latencies())),
        # every child span is cut from its request span by subtraction,
        # so nothing is left unaccounted on this path
        "bench.layer_sum_err": 0.0,
        "bench.rss_peak_mb": rss_peak_mb(),
        "bench.teardown_s": p50([sum(one.values()) for one in t.close_times]),
        **yardstick_metrics(load.yard),
    }
    m["serve.queue_and_batch_ms_p50"] = (m["serve.backend_latency_ms_p50"]
                                         - m["serve.direct_run_ms_p50"])
    if name == "serve_open":
        m["loadgen.lag_ms_p90"] = p90([(r.sent - r.due) * 1e3
                                       for r in load.requests])
        m["loadgen.backlog_end"] = float(load.backlog[-1])
        for step, (rate, _share) in enumerate(STEPS):
            m[f"loadgen.step{rate}.latency_ms_p90"] = p90(load.latencies(step))
        m["loadgen.max_rate_ok"] = max_rate_ok(load)
        m["bench.samples_min"] = float(min(
            len(load.latencies(step)) for step in range(len(STEPS))))
    else:
        m["serve.httpd.overhead_ms_p50"] = p50(
            [r.latency_ms - r.backend_ms for r in ok])
        m["serve.httpd.request_bytes"] = float(np.mean(
            [t.body_bytes[r.payload] for r in ok]))
        m["serve.httpd.response_bytes"] = float(np.mean(
            [len(r.answer[1]) for r in ok]))
        m["serve.httpd.close_s"] = med(t.close_times, "httpd")
        m["fleet.pool_start_s"] = med(t.setup_times, "pool_start")
        m["fleet.close_s"] = med(t.close_times, "fleet")
        routed = [v for k, v in d.items()
                  if k.startswith("fleet.routed.replica.")]
        m["fleet.routed_balance"] = min(routed) / max(max(routed), 1.0)
        m["fleet.retries"] = sum(v for k, v in d.items()
                                 if k.startswith("fleet.retries.reason."))
        m["fleet.hedges"] = d.get("fleet.hedges", 0.0)
        # the program's own cumulative clocks, scaled by the phase's median
        m["fleet.router_overhead_ms_p50"] = (
            (t.router_ms_p50 - t.replica_ms_p50) / p50([r.slow for r in ok]))
        m["fleet.scale_k2_over_k1"] = load.throughput_sps / t.k1_sps
        m["bench.samples_min"] = float(len(ok))
    return m


def add_request_spans(spans: SpanLog, load: Load, outer: str) -> None:
    """A client span per request with the backend-reported latency as
    its child; what is left of the client span is the `outer` layer."""
    for rid, r in enumerate(load.requests):
        if not r.correct:
            continue
        root = spans.add("loadgen.request", r.start, r.done, None, rid)
        backend_start = r.done - r.backend_s
        spans.add(outer, r.start, backend_start, root, rid)
        spans.add("serve.backend", backend_start, r.done, root, rid)


# -- the two workloads ---------------------------------------------------------------

def run(name: str, *args) -> dict:
    # an open loop leaves the machine idle between arrivals; one blocking
    # client always has a thread at work somewhere
    with awake_core() if name == "serve_open" else contextlib.nullcontext():
        return measure(name, *args)


def measure(name: str, seed: int, seconds: float, traced: bool, setups: int,
            tally: Tally, spans: SpanLog | None, check_reference) -> dict:
    fleet = name == "fleet_http"
    payloads = make_payloads(seed, mixed=not fleet)
    bodies: list[bytes] = []
    setup_times, close_times = [], []
    yard = Yardstick()
    stack = None
    for _ in range(setups):
        if stack is not None:
            close_times.append(stack.close(yard))
        served = graph_workload.compile_model(MODEL, METHOD, BATCH, seed, 0,
                                              None, yard)
        if fleet:
            # encoding request bodies is the client's work, not set-up
            bodies = bodies or [json.dumps(
                {"inputs": {served.temco.inputs[0].name: p.tolist()}}
            ).encode() for p in payloads]
            stack = start_fleet(served, bodies, 2, yard)
        else:
            stack = start_server(served, payloads, yard)
        setup_times.append(stack.times)
    check_reference(*graph_workload.reference_data([served]))

    # the benchmark's own reference: direct runs of the same payloads
    references = [direct_outputs(served.sessions["temco"], p)
                  for p in payloads]

    def drive(target: Stack, duration: float, phase: int) -> Load:
        before = counters(target)
        if fleet:
            load = drive_http(target.httpd.address, bodies, references,
                              served.temco.outputs[0].name, duration,
                              seed + phase, tally, yard)
        else:
            load = drive_open(target.server, payloads, references,
                              poisson_schedule(phase, duration), tally,
                              yard)
        after = counters(target)
        load.stats_delta = {k: v - before.get(k, 0.0)
                            for k, v in after.items()}
        return load

    if not traced:
        load = drive(stack, seconds, 0)
        stack.close(yard)
        metrics = end_to_end(
            load, p50([sum(one.values()) for one in setup_times]), served,
            tally)
    else:
        # a short untraced phase first, as the reference for the tracing
        # overhead; a fleet also keeps time for the one-replica run
        load_s = seconds * (1.0 - DIRECT_SHARE)
        reference = drive(stack, load_s * 0.25, 1)
        load = drive(stack, load_s * (0.45 if fleet else 0.75), 0)
        add_request_spans(spans, load,
                          "serve.httpd" if fleet else "loadgen.lag")
        t = Traced(setup_times, close_times, reference, load,
                   graph_workload.measure([served], seconds * DIRECT_SHARE,
                                          seed, tally, yard))
        if fleet:
            t.body_bytes = [len(b) for b in bodies]
            t.router_ms_p50 = stack.router.stats()["fleet.latency_ms.p50"]
            # with one caller the router never needs the second replica
            replicas = [stats for stats in (s.stats() for s in stack.servers())
                        if stats.get("serve.latency_ms.count")]
            t.replica_ms_p50 = float(np.average(
                [s["serve.latency_ms.p50"] for s in replicas],
                weights=[s["serve.latency_ms.count"] for s in replicas]))
        close_times.append(stack.close(yard))
        if fleet:
            single = start_fleet(served, bodies, 1, yard)
            k1 = drive(single, load_s * 0.30, 2)
            t.k1_sps = k1.throughput_sps
            single.close(yard)
        metrics = per_layer(name, t)
    latencies = load.latencies(step=0)
    row = {"model": MODEL, "method": METHOD, "variant": "temco",
           "p50_ms": p50(latencies), "p90_ms": p90(latencies),
           "peak_bytes": served.peaks["temco"], "n": len(latencies)}
    return {"metrics": metrics, "rows": [row]}
