#!/usr/bin/env python3
"""The eba benchmark: served traffic, batch simulation and exact answers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md has the full rationale):

  serve-warm   `eba serve --workers 1` fed by an open-loop generator:
               knowledge queries against 4 prefilled universes
  sim          four `eba netsim` sweeps through Spec.resolve/Spec.run
  exact        the `eba check` pipeline on the sharded Model.build, then
               an exact probcheck

Builds the program from source (dune, build directory `.bench_build`),
checks every output against a reference, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones, from a second, instrumented pass.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EBA = os.path.join(BUILD_DIR, "default", "bin", "eba_cli.exe")
HELPER = os.path.join(BUILD_DIR, "default", "perfbench", "helper.exe")

WORKLOADS = ("serve-warm", "sim", "exact")

# --- served traffic -------------------------------------------------------

RATE = 40.0  # requests per second, constant schedule
MIX = (("knowledge-query", 50), ("netsim-sweep", 30), ("status", 15), ("probcheck", 5))
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
QUEUE_CAP = 4096
REPLY_TIMEOUT_S = 10.0
# Latency counts from the due time, so a send delayed by a host stall is
# charged to its request.  A generator whose p99 send lateness passes a
# second no longer offers the schedule's rate: its late sends count as
# failed.
LATE_LIMIT_MS = 1000.0
# The served timings report this low percentile: the host's slow phases
# last about a second and only add time, so the fast tail of a request
# class is the steady estimate of what the daemon costs it.
FAST_Q = 0.05

WARM_KEYS = [
    {"protocol": "p0", "n": 4, "t": 1, "horizon": 3, "mode": "crash"},
    {"protocol": "f-lambda-2", "n": 4, "t": 1, "horizon": 3, "mode": "crash"},
    {"protocol": "chain0", "n": 3, "t": 1, "horizon": 3, "mode": "omission"},
    {"protocol": "p0", "n": 3, "t": 1, "horizon": 3, "mode": "crash"},
]
SWEEP = {"protocol": "floodset", "n": 4, "t": 1, "runs": 10}
PROBCHECK_SMALL = {"n": 4, "t": 1, "loss": "0.25"}

# --- metric declarations (must match BENCHMARK.json) ----------------------

E2E = ("m1_ms", "m2_ms", "m3_ms", "setup_s", "peak_rss_mb")

PER_LAYER = (
    "frame.decode_us", "frame.encode_us",
    "json.parse_us", "json.emit_us", "json.reply_bytes",
    "registry.prepare_kq_us", "registry.prepare_sweep_us", "registry.prepare_prob_us",
    "netsim.sweep_us",
    "pool.worker_ms", "pool.busy_ratio", "queue.wait_ms",
    "cache.hit_ratio", "cache.misses", "cache.lookup_us",
    "model.build_ms", "model.build_seq_ms", "model.views", "model.points",
    "model.tree_nodes", "model.prefix_hits", "parallel.chunks",
    "formula.env_ms", "zoo.pair_ms", "kb.decide_ms", "spec.check_ms",
    "characterize.optimal_ms", "replay.kq_ms",
    "knowledge.known_per_view_ms", "continual.closure_ms",
    "knowledge.cell_points_probed", "continual.uf_unions",
    "proto.send_us", "proto.receive_us", "proto.wire_size_us", "proto.share",
    "proto.share_floodset",
    "engine.ms_per_run", "engine.ms_per_run_uniform", "engine.seq_ms_per_run",
    "net.events_per_run", "net.retransmissions_per_run", "net.data_bytes_per_run",
    "mux.batched_share", "mux.batched_share_uniform", "mux.timer_ticks_per_run",
    "mux.arena_reuses_per_run",
    "prob.report_ms",
    "gc.minor_words_per_run", "gc.minor_collections", "gc.major_collections",
    "gc.top_heap_mb",
    "gen.late_ms", "kq.p95_ms", "status.p99_ms", "transport.tcp_extra_ms",
    "attrib.kq_mean_ms", "attrib.explained_share", "attrib.unexplained_ms",
    "trace.overhead_ratio",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- build ----------------------------------------------------------------


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "eba_cli.ml"))):
        raise BenchError("no eba source tree here: run from the root of a checkout")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./bin/eba_cli.exe", "./perfbench/helper.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed")


def clean_env(**extra):
    """The environment children run in: no inherited metrics or GC settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OCAMLRUNPARAM", "EBA_METRICS", "EBA_DOMAINS")}
    env.update(extra)
    return env


def run_helper(args, timeout=170):
    """Run the helper to completion, reaping it with wait4; returns its JSON
    output and its peak RSS in MiB."""
    proc = subprocess.Popen([HELPER] + args, stdout=subprocess.PIPE, env=clean_env())
    try:
        deadline = time.monotonic() + timeout
        chunks = []
        while True:
            r, _, _ = select.select([proc.stdout], [], [], 1.0)
            if r:
                data = os.read(proc.stdout.fileno(), 1 << 16)
                if not data:
                    break
                chunks.append(data)
            if time.monotonic() > deadline:
                raise BenchError("helper %s timed out" % args[0])
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("helper %s exited with %d" % (args[0], proc.returncode))
    return json.loads(b"".join(chunks)), usage.ru_maxrss / 1024.0


# --- the daemon -----------------------------------------------------------


def encode_frame(obj):
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return struct.pack(">I", len(payload)) + payload


def read_frame(sock):
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            raise BenchError("daemon closed the connection")
        head += chunk
    (size,) = struct.unpack(">I", head)
    body = bytearray()
    while len(body) < size:
        chunk = sock.recv(size - len(body))
        if not chunk:
            raise BenchError("daemon closed the connection mid-frame")
        body += chunk
    return bytes(body)


class Daemon:
    """One `eba serve --workers 1` child; traced ones report metrics and GC."""

    count = 0

    def __init__(self, rundir, traced=False, tcp=False):
        Daemon.count += 1
        self.err_path = os.path.join(rundir, "daemon-%d.err" % Daemon.count)
        # a queue that holds a whole run's requests: a host stall must not
        # turn into busy replies, so every run fails the same (none)
        args = [EBA, "serve", "--workers", "1", "--queue-cap", str(QUEUE_CAP)]
        if tcp:
            args += ["--port", "0"]
        else:
            self.path = os.path.join(rundir, "d%d.sock" % Daemon.count)
            args += ["--socket", self.path]
        env = clean_env()
        if traced:
            args.append("--metrics=json")
            env["OCAMLRUNPARAM"] = "v=0x400"
        self.peak_rss_mb = None
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            r, _, _ = select.select([self.proc.stdout], [], [], 30.0)
            line = self.proc.stdout.readline().decode() if r else ""
            if "listening on" not in line:
                raise BenchError("daemon did not start: %r" % line)
            if tcp:
                self.port = int(line.split("tcp:")[1].split()[0])
        except BaseException:
            self.kill()
            raise

    def connect(self):
        if hasattr(self, "port"):
            s = socket.create_connection(("127.0.0.1", self.port))
        else:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(self.path)
        return s

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self):
        """SIGTERM (graceful drain), reap with wait4; returns the stderr text."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 20.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not drain on SIGTERM")
                time.sleep(0.01)
        finally:
            self.kill()
            self.proc.stdout.close()
        with open(self.err_path) as f:
            return f.read()


def parse_daemon_report(text):
    """The --metrics=json object, then OCAMLRUNPARAM=v=0x400's `name: value` lines."""
    start = text.find("{")
    if start < 0:
        raise BenchError("traced daemon printed no metrics report")
    report, end = json.JSONDecoder().raw_decode(text[start:])
    gc = {}
    for line in text[start + end:].splitlines():
        key, sep, value = line.partition(":")
        if sep:
            try:
                gc[key.strip()] = float(value)
            except ValueError:
                pass
    return report, gc


# --- request generation ---------------------------------------------------


def make_requests(seed, count):
    """The seeded request sequence.  Verbs come in blocks of 20 holding the
    mix exactly, shuffled per block; knowledge queries take the 4 warm keys
    in seeded order, each key once per 4 queries, so every seed asks each
    key equally often."""
    rng = random.Random(seed)
    sweep_seeds = [rng.randrange(1, 1 << 30) for _ in range(4)]
    block = [verb for verb, weight in MIX for _ in range(weight // 5)]
    reqs, keys = [], []
    while len(reqs) < count:
        rng.shuffle(block)
        for verb in block:
            if verb == "knowledge-query":
                if not keys:
                    keys = list(WARM_KEYS)
                    rng.shuffle(keys)
                params = dict(keys.pop(), query="spec")
            elif verb == "netsim-sweep":
                params = dict(SWEEP, seed=rng.choice(sweep_seeds))
            elif verb == "probcheck":
                params = dict(PROBCHECK_SMALL)
            else:
                params = {}
            reqs.append({"verb": verb, "params": params})
    return reqs[:count]


def key_of(req):
    return req["verb"] + json.dumps(req["params"], sort_keys=True)


def compute_refs(rundir, reqs):
    """Reference reply bodies (everything after the id line), from the
    in-process Registry.prepare thunk of each distinct request."""
    distinct = {}
    for r in reqs:
        if r["verb"] != "status":
            distinct.setdefault(key_of(r), r)
    path = os.path.join(rundir, "refs.json")
    with open(path, "w") as f:
        json.dump(list(distinct.values()), f)
    out, _ = run_helper(["refs", path])
    return {k: body.encode().split(b"\n", 2)[2] for k, body in zip(distinct, out)}


# --- the open-loop generator ----------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    rank = max(1, int(-(-q * len(s) // 1)))
    return s[min(rank, len(s)) - 1]


class Outcome:
    """Attempted and failed operations; [wrong] counts outputs that differ
    from their reference (a subset of the failures)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def fail(self, what, wrong=True):
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 5:
            self.notes.append(what)


def absorb(outcome, out):
    """Fold a helper's checked outputs into the run's outcome."""
    outcome.attempted += out["attempted"]
    outcome.failed += out["failed"]
    outcome.wrong += out["failed"]
    outcome.notes += out["errors"][:5]


def check_reply(req, payload, refs):
    """"ok", "failed" (an error, busy or cancelled reply) or "wrong" (an ok
    reply whose bytes after the id line differ from the reference)."""
    parts = payload.split(b"\n", 2)
    if len(parts) < 3 or not parts[2].startswith(b'  "status": "ok"'):
        return "failed"
    if req["verb"] == "status":
        try:
            good = json.loads(payload)["result"]["service"] == "eba-serve/1"
        except (ValueError, KeyError, TypeError):
            good = False
    else:
        good = parts[2] == refs[key_of(req)]
    return "ok" if good else "wrong"


def drive(daemon, reqs, refs, outcome):
    """Send reqs on a constant-rate schedule over CONNECTIONS sockets from one
    thread; latency is measured from each request's due time.  A reply that
    comes more than REPLY_TIMEOUT_S after its due time counts as failed, and
    so, when the generator fell behind its schedule (p99 send lateness past
    LATE_LIMIT_MS), does every send later than that.  Returns latency
    lists (ms) per verb and per request key, lateness (ms) and send-based
    latencies."""
    conns = [daemon.connect() for _ in range(CONNECTIONS)]
    try:
        frames = [encode_frame({"id": i + 1, "verb": r["verb"], "params": r["params"]})
                  for i, r in enumerate(reqs)]
        n = len(reqs)
        start = time.perf_counter() + 0.02
        due = [start + i / RATE for i in range(n)]
        sent_at = [0.0] * n
        done = [False] * n
        lat = {verb: [] for verb, _ in MIX}
        by_key = {}
        from_send = {verb: [] for verb, _ in MIX}
        late = []
        buffers = {c: bytearray() for c in conns}
        sent = answered = 0
        give_up = due[-1] + REPLY_TIMEOUT_S
        while answered < n:
            now = time.perf_counter()
            while sent < n and due[sent] <= now:
                conn = conns[sent % len(conns)]
                sent_at[sent] = time.perf_counter()
                conn.sendall(frames[sent])
                late.append((sent_at[sent] - due[sent]) * 1e3)
                sent += 1
                now = time.perf_counter()
            if now > give_up:
                break
            wait = (due[sent] if sent < n else give_up) - now
            ready, _, _ = select.select(conns, [], [], max(0.0, wait))
            t = time.perf_counter()
            for conn in ready:
                data = conn.recv(1 << 20)
                if not data:
                    raise BenchError("daemon closed a connection")
                buf = buffers[conn]
                buf += data
                while len(buf) >= 4:
                    (size,) = struct.unpack(">I", buf[:4])
                    if len(buf) < 4 + size:
                        break
                    payload = bytes(buf[4:4 + size])
                    del buf[:4 + size]
                    idx = int(payload.split(b"\n", 2)[1].split(b":")[1].strip(b" ,")) - 1
                    if done[idx]:
                        outcome.fail("duplicate reply to request %d" % (idx + 1), wrong=False)
                        continue
                    done[idx] = True
                    answered += 1
                    req = reqs[idx]
                    verdict = check_reply(req, payload, refs)
                    if verdict == "ok" and t - due[idx] > REPLY_TIMEOUT_S:
                        outcome.fail("request %d (%s) timed out" % (idx + 1, req["verb"]),
                                     wrong=False)
                    elif verdict == "ok":
                        lat[req["verb"]].append((t - due[idx]) * 1e3)
                        by_key.setdefault(key_of(req), []).append((t - due[idx]) * 1e3)
                        from_send[req["verb"]].append((t - sent_at[idx]) * 1e3)
                    else:
                        outcome.fail("request %d (%s): %s reply" % (idx + 1, req["verb"], verdict),
                                     wrong=verdict == "wrong")
        outcome.attempted += n
        for i in range(n):
            if not done[i]:
                outcome.fail("request %d (%s) unanswered" % (i + 1, reqs[i]["verb"]), wrong=False)
        if percentile(late, 0.99) > LATE_LIMIT_MS:
            for i, x in enumerate(late):
                if x > LATE_LIMIT_MS:
                    outcome.fail("request %d sent %.1f ms late" % (i + 1, x), wrong=False)
        return lat, by_key, late, from_send
    finally:
        for c in conns:
            c.close()


def roundtrip(sock, obj):
    sock.sendall(encode_frame(obj))
    return read_frame(sock)


def start_daemon(rundir, prefill, refs, outcome, traced=False):
    """Spawn, wait for it to listen, prefill the cache: the served set-up."""
    t0 = time.perf_counter()
    daemon = Daemon(rundir, traced=traced)
    try:
        with daemon.connect() as s:
            for params in prefill:
                req = {"verb": "knowledge-query", "params": params}
                payload = roundtrip(s, {"id": 1, "verb": req["verb"], "params": params})
                outcome.attempted += 1
                verdict = check_reply(req, payload, refs)
                if verdict != "ok":
                    outcome.fail("prefill: %s reply" % verdict, wrong=verdict == "wrong")
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - t0


def tcp_diagnostic(rundir, rounds=100):
    """status round trips over loopback TCP vs the Unix socket, interleaved."""
    unix_d = Daemon(rundir)
    try:
        tcp_d = Daemon(rundir, tcp=True)
        try:
            times = {"unix": [], "tcp": []}
            with unix_d.connect() as us, tcp_d.connect() as ts:
                for i in range(rounds):
                    for name, s in (("unix", us), ("tcp", ts)):
                        t0 = time.perf_counter()
                        roundtrip(s, {"id": i, "verb": "status"})
                        times[name].append((time.perf_counter() - t0) * 1e3)
        finally:
            tcp_d.stop()
    finally:
        unix_d.stop()
    return statistics.median(times["tcp"]) - statistics.median(times["unix"])


def kq_fast(by_key, queries):
    """The knowledge-query timing: each query key's FAST_Q latency, averaged
    over the keys so that every key weighs the same."""
    return statistics.mean(
        percentile(by_key[key_of({"verb": "knowledge-query", "params": q})], FAST_Q)
        for q in queries)


def serve(seed, seconds, trace, rundir):
    prefill = [dict(k, query="spec") for k in WARM_KEYS]
    phase = seconds / 2.0 if trace else seconds
    reqs = make_requests(seed, int(RATE * phase))
    refs = compute_refs(rundir, reqs + [{"verb": "knowledge-query", "params": p} for p in prefill])
    outcome = Outcome()

    # set-up eleven times; the last daemon serves the run
    setups, daemon = [], None
    for _ in range(11):
        if daemon is not None:
            daemon.stop()
        daemon, setup_s = start_daemon(rundir, prefill, refs, outcome)
        setups.append(setup_s)
    try:
        t0 = time.perf_counter()
        lat, by_key, late, _ = drive(daemon, reqs, refs, outcome)
        wall = time.perf_counter() - t0
    finally:
        daemon.stop()

    kq, sweeps, status = lat["knowledge-query"], lat["netsim-sweep"], lat["status"]
    if not (kq and sweeps and status):
        raise BenchError("a request class got no answered samples")
    e2e = {
        "m1_ms": kq_fast(by_key, prefill),
        "m2_ms": percentile(sweeps, FAST_Q),
        "m3_ms": statistics.median(status),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": daemon.peak_rss_mb,
    }
    detail = {
        "kq.p50_ms": statistics.median(kq), "kq.p95_ms": percentile(kq, 0.95),
        "sweep.p50_ms": statistics.median(sweeps), "status.p50_ms": e2e["m3_ms"],
        "kq.fast_ms": e2e["m1_ms"], "sweep.p5_ms": e2e["m2_ms"],
        "samples.kq": len(kq), "samples.sweep": len(sweeps), "samples.status": len(status),
        "gen.late_p99_ms": percentile(late, 0.99), "offered_rps": len(reqs) / wall,
    }
    if not trace:
        return outcome, e2e, {}, detail

    # traced pass: same sequence against a daemon reporting metrics and GC
    daemon, _ = start_daemon(rundir, prefill, refs, outcome, traced=True)
    try:
        t0 = time.perf_counter()
        t_lat, t_by_key, _, t_from_send = drive(daemon, reqs, refs, outcome)
        t_wall = time.perf_counter() - t0
    finally:
        text = daemon.stop()
    report, gc = parse_daemon_report(text)

    def cnt(name):
        return float(report.get(name, {}).get("count", 0))

    def secs(name):
        return float(report.get(name, {}).get("seconds", 0.0))

    def per(a, b):
        return a / b if b else 0.0

    # in-process replay of (a prefix of) the same sequence, layer by layer
    path = os.path.join(rundir, "replay.json")
    with open(path, "w") as f:
        json.dump({"prefill": prefill, "requests": reqs[:240]}, f)
    replay, _ = run_helper(["replay", path])
    absorb(outcome, replay)

    tcp_extra = tcp_diagnostic(rundir)

    layers = dict(replay["layers"])
    kq_served = len(t_lat["knowledge-query"]) + len(prefill)
    builds = cnt("model.build")
    worker_ms = per(secs("serve.request") * 1e3, cnt("serve.request"))
    # a queued request waits = its latency from send minus its service time
    # minus the loop+transport floor that a status request also pays
    worker_lat = [x for v in ("knowledge-query", "netsim-sweep", "probcheck") for x in t_from_send[v]]
    floor = statistics.mean(t_from_send["status"])
    queue_wait = max(0.0, statistics.mean(worker_lat) - worker_ms - floor)
    # the prefill names 4 keys over 3 universes: 3 misses and 1 hit
    prefill_misses = len({(p["n"], p["t"], p["horizon"], p["mode"]) for p in prefill})
    misses = cnt("serve.model_cache.misses") - prefill_misses
    hits = cnt("serve.model_cache.hits") - (len(prefill) - prefill_misses)
    layers.update({
        "pool.worker_ms": worker_ms,
        "pool.busy_ratio": per(secs("serve.request"), t_wall),
        "queue.wait_ms": queue_wait,
        "cache.hit_ratio": per(hits, hits + misses),
        "cache.misses": misses,
        "model.build_ms": per(secs("model.build") * 1e3, builds),
        "model.views": per(cnt("model.views"), builds),
        "model.points": per(cnt("model.points"), builds),
        "model.tree_nodes": per(cnt("model.tree_nodes"), builds),
        "model.prefix_hits": per(cnt("model.prefix_hits"), builds),
        "parallel.chunks": per(cnt("parallel.chunks"), builds),
        "knowledge.known_per_view_ms": per(secs("knowledge.known_per_view") * 1e3, kq_served),
        "continual.closure_ms": per(secs("continual.closure") * 1e3, kq_served),
        "knowledge.cell_points_probed": per(cnt("knowledge.cell_points_probed"), kq_served),
        "continual.uf_unions": per(cnt("continual.uf_unions"), kq_served),
        "net.events_per_run": per(cnt("net.events_processed"), cnt("net.runs_simulated")),
        "net.retransmissions_per_run": per(cnt("net.retransmissions"), cnt("net.runs_simulated")),
        "net.data_bytes_per_run": per(cnt("net.data_bytes"), cnt("net.runs_simulated")),
        "mux.batched_share": per(cnt("mux.batched_deliveries"), cnt("net.messages_delivered")),
        "mux.timer_ticks_per_run": per(cnt("mux.timer_ticks"), cnt("net.runs_simulated")),
        "mux.arena_reuses_per_run": per(cnt("mux.arena_reuses"), cnt("net.runs_simulated")),
        "gc.minor_words_per_run": per(gc.get("minor_words", 0.0), cnt("serve.requests")),
        "gc.minor_collections": gc.get("minor_collections", 0.0),
        "gc.major_collections": gc.get("major_collections", 0.0),
        "gc.top_heap_mb": gc.get("top_heap_words", 0.0) * 8 / 2**20,
        "gen.late_ms": percentile(late, 0.99),
        "kq.p95_ms": detail["kq.p95_ms"],
        "status.p99_ms": percentile(status, 0.99),
        "transport.tcp_extra_ms": tcp_extra,
        "trace.overhead_ratio": per(kq_fast(t_by_key, prefill), e2e["m1_ms"]),
    })

    # attribution of the untraced pass's mean knowledge-query latency
    parts = [
        ("transport floor (status mean)", statistics.mean(status)),
        ("frame decode+encode", (layers["frame.decode_us"] + layers["frame.encode_us"]) / 1e3),
        ("json parse+emit", (layers["json.parse_us"] + layers["json.emit_us"]) / 1e3),
        ("registry.prepare", layers["registry.prepare_kq_us"] / 1e3),
        ("cache lookup", layers["cache.lookup_us"] / 1e3),
        ("model build (misses)", layers["replay.kq_ms"] - sum(layers[k] for k in (
            "formula.env_ms", "zoo.pair_ms", "kb.decide_ms", "spec.check_ms",
            "characterize.optimal_ms")) - layers["cache.lookup_us"] / 1e3),
        ("Formula.env", layers["formula.env_ms"]),
        ("Zoo pair", layers["zoo.pair_ms"]),
        ("Kb_protocol.decide", layers["kb.decide_ms"]),
        ("Spec.check", layers["spec.check_ms"]),
        ("Characterize.is_optimal", layers["characterize.optimal_ms"]),
        ("queue wait", queue_wait),
    ]
    kq_mean = statistics.mean(kq)
    explained = sum(v for _, v in parts)
    layers["attrib.kq_mean_ms"] = kq_mean
    layers["attrib.explained_share"] = per(explained, kq_mean)
    layers["attrib.unexplained_ms"] = kq_mean - explained
    log("attribution of serve-warm mean knowledge-query latency %.3f ms (p50 %.3f ms):"
        % (kq_mean, detail["kq.p50_ms"]))
    for name, v in parts:
        log("  %-30s %9.3f ms  %5.1f%%" % (name, v, 100 * per(v, kq_mean)))
    log("  %-30s %9.3f ms  %5.1f%%" % ("unexplained", kq_mean - explained,
                                      100 * per(kq_mean - explained, kq_mean)))
    log("status tail: p99 %.3f ms, p50 %.3f ms; queue wait %.3f ms; daemon GC: %d minor, %d major"
        % (layers["status.p99_ms"], e2e["m3_ms"], queue_wait,
           layers["gc.minor_collections"], layers["gc.major_collections"]))
    log("transport: status over loopback TCP costs %.3f ms more than over the Unix socket"
        % tcp_extra)
    return outcome, e2e, layers, detail


# --- batch workloads ------------------------------------------------------


def batch(workload, seed, seconds, trace):
    out, rss = run_helper([workload, str(seed), str(seconds), "1" if trace else "0"])
    outcome = Outcome()
    absorb(outcome, out)
    e2e = dict(out["e2e"], peak_rss_mb=rss)
    return outcome, e2e, out["layers"], out["detail"]


# --- main -----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    trace = args.trace == 1
    try:
        units = load_units()
        build()
        rundir = os.path.join(".bench_run", str(os.getpid()))
        os.makedirs(rundir, exist_ok=True)
        try:
            if args.workload == "serve-warm":
                outcome, e2e, layers, detail = serve(args.seed, args.seconds, trace, rundir)
            else:
                outcome, e2e, layers, detail = batch(args.workload, args.seed, args.seconds, trace)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
            try:
                os.rmdir(".bench_run")
            except OSError:
                pass
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("benchmark failed: %s" % e)
        return 1

    for line in outcome.notes:
        log("check failed: %s" % line)
    for k, v in detail.items():
        print("%s %s %.6g" % (args.workload, k, v))
    names = PER_LAYER if trace else E2E
    values = layers if trace else e2e
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": units[k]} for k in names}
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
