"""The repository's benchmark: the whole request path, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 \
        --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``serve-read``  - a ``repro serve`` subprocess, closed loop of one client
  sending mostly fresh RegFO element queries;
* ``serve-write`` - the same server; the client loops update ->
  read-your-write -> retract -> read;
* ``cold-build``  - in-process: never-seen databases to their first answer;
* ``fixpoint``    - in-process: datalog reachability and the RegLFP/RegTC
  connectivity sentences over warm region extensions.

Every run sets up ``SETUP_REPEATS`` times in fresh processes with fresh
temporary stores (``setup_s`` is the median), measures on the last, then
checks every answer against the oracle (``oracle.py``).  Timings are
CPU time of the process that runs the engine (:func:`cpu_s`),
normalised by a reference computation measured beside it
(:class:`Reference`); wall latencies go to the report only.  The last
line of standard output is the result object; the line before it is a
report with the run's configuration, counters and checks.  ``--trace 1`` makes
a separate traced run that splits each op's time across the layers of
``tracer.LAYERS``.  The exit code is 0 only when every answer is right
and, when tracing, every ledger check holds.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import pathlib
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()

WORKLOADS = ("serve-read", "serve-write", "cold-build", "fixpoint")

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: CPU milliseconds of :func:`reference_cpu_s` on the reference machine
#: (a round figure within its 8-16 ms readings there); normalised CPU
#: times are scaled to a host on which the reference takes this long.
REFERENCE_MS = 10.0

#: Seconds between two reference measurements in a timed loop: the
#: host's phases last seconds, and each measurement costs about 10 ms.
REFERENCE_EVERY_S = 0.25

#: The percentile of the raw per-op CPU times shown in the report (not
#: a metric: the host's state moves it), per workload: the highest that
#: keeps at least ten samples beyond it in a 15 s run.
TAIL_QUANTILE = {
    "serve-read": 0.95,
    "serve-write": 0.75,
    "cold-build": 0.75,
    "fixpoint": 0.75,
}

#: Ops after which the engine process's VmHWM is read (about half of a
#: 10 s run); the in-process workloads read it after their first round.
RSS_AFTER_OPS = {"serve-read": 100, "serve-write": 10}

#: Processes that check the serve workloads' answers (one per core).
ORACLE_WORKERS = 2

#: Quota flags no closed loop can exhaust (the default 50 req/s would
#: refuse serve-read's repeats, which come back in a few ms).
QUOTA_FLAGS = ("--quota-rate", "1000000", "--quota-burst", "1000000")

#: Registry counters reported as layer counts.
COUNTERS = (
    "server.requests", "server.rejected.quota", "server.rejected.overload",
    "engine.cache.extension.hits", "engine.cache.extension.misses",
    "engine.cache.arrangement.hits", "engine.cache.arrangement.misses",
    "optimizer.rewrites", "evaluator.evaluations", "evaluator.memo_hits",
    "evaluator.fixpoint_stages", "datalog.stages", "datalog.runs",
    "ir.feasibility_calls", "ir.feasibility_memo_hits",
    "ir.reduce_memo_hits", "ir.subsume_memo_hits",
    "fm.generated_constraints", "fm.eliminated_variables",
    "lp.solves", "lp.cache_hits", "lp.filter_hits", "lp.filter_fallbacks",
    "arrangement.builds", "arrangement.dfs_nodes", "arrangement.faces",
    "incremental.planes_inserted", "incremental.planes_retracted",
    "store.hits", "store.misses", "store.writes",
)


# ----------------------------------------------------------------------
# Environment and processes
# ----------------------------------------------------------------------
def scrubbed_env() -> dict:
    """This process's environment without ``REPRO_*``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Processes:
    """Every child this run started; :meth:`stop_all` ends them all."""

    def __init__(self) -> None:
        self.live: list[subprocess.Popen] = []

    def start(self, argv, **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, env=scrubbed_env(), cwd=ROOT,
                                   **kwargs)
        self.live.append(process)
        return process

    def stop(self, process: subprocess.Popen, timeout: float = 60.0) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()
        if process in self.live:
            self.live.remove(process)

    def stop_all(self) -> None:
        for process in list(self.live):
            self.stop(process, timeout=10.0)


def read_line(process: subprocess.Popen, timeout: float,
              log: pathlib.Path) -> str:
    """The child's next stdout line, or an error after ``timeout``."""
    ready, __, __ = select.select([process.stdout], [], [], timeout)
    line = process.stdout.readline() if ready else b""
    if not line:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(
            f"{process.args[1]} gave no line within {timeout}s:\n{tail}"
        )
    return line.decode().strip()


def cpu_s(pid: int) -> float:
    """CPU seconds process ``pid`` has used so far, all threads, to the ns.

    Read from the process's CPU-time clock (``clock_getcpuclockid``).
    Unlike wall time it leaves out the time the host takes back from
    this VM, 0-50% of a vCPU for seconds at a time on the reference
    machine (``steal`` in ``/proc/stat``).
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def vm_hwm_mb(pid: "int | str") -> float:
    """Peak resident set of a process (``"self"`` for this one), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def reference_cpu_s() -> float:
    """CPU seconds of one fixed pure-Python computation, run now.

    Rational arithmetic and dict and list churn, as in the engine, but
    no code of the program: a change to the program cannot change it.
    The collector is off while it runs, so the size of the program's
    heap cannot either.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.process_time()
    rng = random.Random(7)
    table: dict = {}
    total = Fraction(0)
    for index in range(1000):
        value = Fraction(rng.randint(1, 1000), rng.randint(1, 97))
        table.setdefault((index % 71, value.denominator), []).append(value)
        total += value * value / (value + 1)
    sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    elapsed = time.process_time() - started
    if collecting:
        gc.enable()
    return elapsed


class Reference:
    """The host's current speed, for normalising CPU times.

    The reference machine's host alternates, in phases of seconds to
    minutes, between a fast state and states in which the same code
    takes up to 2x the CPU time.  :func:`reference_cpu_s` slows with
    it, in this process as in the engine's (the two run one after the
    other, never at once), so ``cpu * scale()`` is the CPU time the
    work would take on a host on which the reference takes
    ``REFERENCE_MS``.  The reference is re-measured at most every
    ``REFERENCE_EVERY_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._at = float("-inf")

    def scale(self) -> float:
        if time.perf_counter() - self._at >= REFERENCE_EVERY_S:
            self.samples.append(reference_cpu_s())
            self._at = time.perf_counter()
        return REFERENCE_MS / 1000 / self.samples[-1]

    def settled_scale(self) -> float:
        """A scale from the median of three fresh measurements."""
        self.samples += [reference_cpu_s() for __ in range(3)]
        self._at = time.perf_counter()
        return REFERENCE_MS / 1000 / statistics.median(self.samples[-3:])

    def describe(self) -> dict:
        values = sorted(self.samples)
        return {
            "count": len(values),
            "min_ms": values[0] * 1000,
            "median_ms": statistics.median(values) * 1000,
            "max_ms": values[-1] * 1000,
        }


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Client:
    """One keep-alive connection to the server process ``pid``.

    Every call returns its status, body, wall latency and the server's
    CPU time over the call.  The loop has one client, so the server is
    idle between calls and that CPU time is the request's own.
    """

    def __init__(self, port: int, pid: int) -> None:
        self.pid = pid
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"}
        cpu_started = cpu_s(self.pid)
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.connection.close()
            return 0, None, time.perf_counter() - started, 0.0
        latency = time.perf_counter() - started
        cpu = cpu_s(self.pid) - cpu_started
        return status, json.loads(raw) if raw else {}, latency, cpu

    def post(self, path: str, payload):
        return self.call("POST", path, payload)

    def close(self) -> None:
        self.connection.close()


def scrape_counters(port: int) -> dict:
    """Every sample line of ``GET /metrics``, keyed by metric name."""
    from repro.server.loadgen import get_text

    status, text = get_text(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, __, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def counter_deltas(before: dict, after: dict) -> dict:
    """Registry deltas of :data:`COUNTERS` (dotted names)."""
    from repro.obs.telemetry import _metric_name

    out = {}
    for name in COUNTERS:
        key = _metric_name(name, "repro_") + "_total"
        out[name] = int(after.get(key, 0) - before.get(key, 0))
    return out


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess with its own store and databases."""

    def __init__(self, processes: Processes, workdir: pathlib.Path,
                 databases: dict, trace: bool) -> None:
        from repro.constraints.io import save_database

        import inputs

        workdir.mkdir(parents=True)
        specs = []
        self.databases = {}
        for name, spec in databases.items():
            database = inputs.make_database(spec)
            path = workdir / f"{name}.cdb"
            save_database(database, path)
            self.databases[name] = database
            specs.append(f"{name}={path.relative_to(ROOT)}")
        self.trace_path = workdir / "trace.json" if trace else None
        argv = [sys.executable, str(HERE / "launcher.py")]
        if self.trace_path is not None:
            argv += ["--trace-out", str(self.trace_path)]
        store = (workdir / "store").relative_to(ROOT)
        argv += ["--", *specs, "--host", "127.0.0.1", "--port", "0",
                 "--cache-dir", str(store), *QUOTA_FLAGS]
        self.flags = argv[argv.index("--") + 1:]
        self.processes = processes
        log_path = workdir / "server.log"
        with open(log_path, "wb") as log:
            self.process = processes.start(argv, stdout=subprocess.PIPE,
                                           stderr=log)
        line = read_line(self.process, 120, log_path)
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> dict | None:
        self.processes.stop(self.process)
        if self.trace_path is None:
            return None
        with open(self.trace_path, encoding="utf-8") as handle:
            return json.load(handle)


def warm_up(server: Server, sentence_dbs=()) -> None:
    """Build every extension, and answer the sentences once (untimed)."""
    import inputs

    client = Client(server.port, server.process.pid)
    try:
        for name, database in server.databases.items():
            arity = database.relation("S").arity
            query = "S(x0)" if arity == 1 else "S(x0, x1)"
            status, __, __, __ = client.post(
                "/v1/query", {"database": name, "query": query}
            )
            if status != 200:
                raise RuntimeError(f"warm-up on {name} answered {status}")
        for name in sentence_dbs:
            arity = server.databases[name].relation("S").arity
            for kind in ("lfp", "tc"):
                status, __, __, __ = client.post("/v1/query", {
                    "database": name,
                    "query": inputs.connectivity_sentence(kind, arity),
                })
                if status != 200:
                    raise RuntimeError(f"warm-up sentence answered {status}")
    finally:
        client.close()


def start_server(processes, tmp, index, databases, trace, sentence_dbs,
                 reference):
    """A warm server, and the normalised CPU seconds its set-up took.

    Set-up CPU is this process's (database generation, warm-up client)
    plus the whole of the server process's, from its start.
    """
    scale = reference.settled_scale()
    started = time.process_time()
    server = Server(processes, tmp / f"server{index}", databases, trace)
    warm_up(server, sentence_dbs)
    own = time.process_time() - started
    return server, (own + cpu_s(server.process.pid)) * scale


class RssProbe:
    """Samples the engine process's VmHWM once, after a fixed op count.

    The server's memory grows with the number of distinct queries it
    has answered, so a peak read at the end of the loop would track the
    op rate; reading it after ``at`` ops measures the same work on
    every run.
    """

    def __init__(self, pid: int, at: int) -> None:
        self.pid = pid
        self.at = at
        self.ops = 0
        self.value = None

    def tick(self) -> None:
        self.ops += 1
        if self.ops == self.at:
            self.value = vm_hwm_mb(self.pid)

    def read(self) -> float:
        return self.value if self.value is not None else vm_hwm_mb(self.pid)


def read_loop(client: Client, requests, deadline: float,
              probe: RssProbe, reference: Reference) -> list:
    records = []
    for request in requests:
        if time.perf_counter() >= deadline:
            break
        scale = reference.scale()
        status, body, latency, cpu = client.post("/v1/query", {
            "database": request["database"], "query": request["query"],
        })
        records.append({"request": request, "status": status,
                        "body": body, "latency_s": latency, "cpu_s": cpu,
                        "norm_s": cpu * scale})
        probe.tick()
    return records


def write_loop(client: Client, cycles, deadline: float,
               probe: RssProbe, reference: Reference) -> list:
    import inputs

    write_db = inputs.WRITE_DB
    records = []
    for cycle in cycles:
        if time.perf_counter() >= deadline:
            break
        steps = []
        for action, payload in (
            ("insert", {"database": write_db, "delta": [
                ["insert", "S", cycle["segment"]]]}),
            ("fresh", {"database": write_db,
                       "query": cycle["fresh_query"]}),
            ("retract", {"database": write_db, "delta": [
                ["retract", "S", cycle["segment"]]]}),
            ("after", {"database": write_db,
                       "query": cycle["after_query"]}),
        ):
            path = "/v1/query" if "query" in payload else "/v1/update"
            scale = reference.scale()
            status, body, latency, cpu = client.post(path, payload)
            steps.append({"step": action, "status": status, "body": body,
                          "latency_s": latency, "cpu_s": cpu,
                          "norm_s": cpu * scale})
        records.append({"cycle": cycle, "steps": steps})
        probe.tick()
    return records


def run_serve(workload, seed, seconds, trace, tmp, processes) -> dict:
    import inputs

    if workload == "serve-read":
        databases = inputs.SERVE_READ_DBS
        sentence_dbs = inputs.SENTENCE_DBS
    else:
        databases = inputs.SERVE_WRITE_DBS
        sentence_dbs = ()
    setup_times = []
    server = None
    reference = Reference()
    for index in range(SETUP_REPEATS):
        last = index == SETUP_REPEATS - 1
        server, setup_cpu = start_server(
            processes, tmp, index, databases, trace and last, sentence_dbs,
            reference,
        )
        setup_times.append(setup_cpu)
        if not last:
            server.stop()

    pid = server.process.pid
    rss = RssProbe(pid, RSS_AFTER_OPS[workload])
    if workload == "serve-read":
        items = inputs.read_requests(seed, 0, 3000, databases,
                                     inputs.ELEMENT_DBS, inputs.SENTENCE_DBS)
        loop = read_loop
    else:
        items = inputs.write_cycles(seed, 600)
        loop = write_loop

    client = Client(server.port, pid)
    try:
        status, stats, __, __ = client.call("GET", "/v1/stats")
        config = stats.get("config") if status == 200 else None
        counters_before = scrape_counters(server.port)
        started = time.perf_counter()
        records = loop(client, items, started + seconds, rss, reference)
        elapsed = time.perf_counter() - started
        counters_after = scrape_counters(server.port)
        status, stats, __, __ = client.call("GET", "/v1/stats")
        store_bytes = (stats.get("store") or {}).get("bytes", 0)
    finally:
        client.close()
    peak = rss.read()
    trace_record = server.stop()

    outcome = {
        "setup_times": setup_times,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak,
        "config": config,
        "server_flags": server.flags,
        "request_digest": inputs.request_digest(items),
        "counts": counter_deltas(counters_before, counters_after),
        "store_bytes": store_bytes,
        "reference": reference.describe(),
    }
    score = score_reads if workload == "serve-read" else score_writes
    outcome.update(score(records, tmp, processes))
    timed = outcome.pop("timed_requests")
    if trace_record is not None:
        outcome["trace"] = http_ledger(timed, trace_record)
    return outcome


def expected_answers(jobs, tmp, processes) -> dict:
    """Oracle answers of ``jobs``, computed in ``ORACLE_WORKERS`` children."""
    from oracle import shard_jobs

    children = []
    for index, shard in enumerate(shard_jobs(jobs, ORACLE_WORKERS)):
        jobs_path = tmp / f"oracle{index}.jobs.json"
        out_path = tmp / f"oracle{index}.out.json"
        log_path = tmp / f"oracle{index}.log"
        jobs_path.write_text(json.dumps(shard))
        with open(log_path, "wb") as log:
            child = processes.start(
                [sys.executable, str(HERE / "oracle.py"),
                 "--jobs", str(jobs_path), "--out", str(out_path)],
                stdout=subprocess.DEVNULL, stderr=log,
            )
        children.append((child, out_path, log_path))
    answers: dict = {}
    for child, out_path, log_path in children:
        code = child.wait(timeout=170)
        processes.stop(child)
        if code != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"oracle worker exited with {code}:\n{tail}")
        answers.update(json.loads(out_path.read_text()))
    return answers


def read_jobs(records) -> list:
    """Oracle jobs of the 200 answers among read records."""
    import inputs

    specs = {**inputs.SERVE_READ_DBS, **inputs.SERVE_WRITE_DBS}
    return [
        (record["request"]["database"],
         specs[record["request"]["database"]], None,
         record["request"]["query"])
        for record in records
        if record["status"] == 200
    ]


def wrong_reads(records, expected) -> int:
    """How many 200 answers disagree with the oracle."""
    from oracle import check

    wrong = 0
    for record in records:
        if record["status"] != 200:
            continue
        request = record["request"]
        value = expected[f"{request['database']}|{request['query']}"]
        answer = record["body"]["answer"]
        if isinstance(value, bool):
            answer = answer.get("truth")
        if not check(answer, value):
            wrong += 1
    return wrong


def read_kind(request: dict) -> str:
    """A read's op kind: fresh per database and template, repeat, or
    the sentence and its database."""
    if request["kind"] == "fresh":
        return f"fresh:{request['database']}:{request['template']}"
    if request["kind"] == "repeat":
        return "repeat"
    return f"{request['kind']}:{request['database']}"


def score_reads(records, tmp, processes) -> dict:
    import inputs

    ok = [r for r in records if r["status"] == 200]
    expected = expected_answers(read_jobs(records), tmp, processes)
    kinds = {}
    for record in records:
        kind = record["request"]["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong": wrong_reads(records, expected),
        "op_kinds": [(read_kind(r["request"]), r["norm_s"]) for r in ok],
        "op_cpu_s": [r["cpu_s"] for r in ok],
        "round_size": inputs.READ_BLOCK,
        "latencies": [r["latency_s"] for r in ok],
        "answers": len(ok),
        "mix": kinds,
        "oracle_answers": len(expected),
        "timed_requests": [
            [[r["body"].get("request_id"), r["latency_s"]]] for r in ok
        ],
    }


def score_writes(cycles, tmp, processes) -> dict:
    import inputs
    from oracle import check

    from repro.obs.telemetry import quantile

    spec = inputs.SERVE_WRITE_DBS[inputs.WRITE_DB]
    complete = [
        (record, {step["step"]: step for step in record["steps"]})
        for record in cycles
        if all(step["status"] == 200 for step in record["steps"])
    ]
    jobs = []
    for record, steps in complete:
        cycle = record["cycle"]
        jobs.append((f"{inputs.WRITE_DB}+{cycle['segment']}", spec,
                     cycle["segment"], cycle["fresh_query"]))
        jobs.append((inputs.WRITE_DB, spec, None, cycle["after_query"]))
    expected = expected_answers(jobs, tmp, processes)

    attempted = sum(len(record["steps"]) for record in cycles)
    failed = attempted - 4 * len(complete)
    wrong = 0
    base = complete[0][1]["insert"]["body"]["parent"] if complete else None
    op_norm, op_cpu, latencies, step_norm, timed = [], [], [], {}, []
    for record, steps in complete:
        cycle = record["cycle"]
        insert, fresh = steps["insert"], steps["fresh"]
        retract, after = steps["retract"], steps["after"]
        fresh_key = f"{inputs.WRITE_DB}+{cycle['segment']}|" \
            f"{cycle['fresh_query']}"
        after_key = f"{inputs.WRITE_DB}|{cycle['after_query']}"
        checks = (
            # Read-your-write: the read saw the version just written.
            fresh["body"]["fingerprint"] == insert["body"]["fingerprint"],
            # Retracting the appended segment restores the exact version.
            insert["body"]["parent"] == base,
            retract["body"]["fingerprint"] == base,
            after["body"]["fingerprint"] == base,
            check(fresh["body"]["answer"], expected[fresh_key]),
            check(after["body"]["answer"], expected[after_key]),
        )
        if not all(checks):
            wrong += 1
        op_norm.append(sum(step["norm_s"] for step in steps.values()))
        op_cpu.append(sum(step["cpu_s"] for step in steps.values()))
        latencies.append(sum(step["latency_s"] for step in steps.values()))
        for name, step in steps.items():
            step_norm.setdefault(name, []).append(step["norm_s"])
        timed.append([
            [step["body"].get("request_id"), step["latency_s"]]
            for step in record["steps"]
        ])
    write_side = {}
    for name, values in step_norm.items():
        write_side[f"{name}_norm_p50_ms"] = statistics.median(values) * 1000
        write_side[f"{name}_norm_tail_ms"] = (
            quantile(values, TAIL_QUANTILE["serve-write"]) * 1000
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "op_kinds": [("cycle", norm) for norm in op_norm],
        "op_cpu_s": op_cpu,
        "round_size": 1,
        "latencies": latencies,
        "answers": len(op_cpu),
        "write_side": write_side,
        "oracle_answers": len(expected),
        "timed_requests": timed,
    }


def http_ledger(timed_requests, record: dict) -> dict:
    """Join client latencies with the server's per-request ledgers.

    ``http`` is client latency minus ``ConstraintService.handle``; the
    rest is the server's own span ledger of that request.
    """
    ledger = record["ledger"]
    walls = record["op_wall_s"]
    layers: dict = {}
    extra: dict = {}
    sum_mismatches = []
    op_walls = []
    for op in timed_requests:
        op_total = 0.0
        op_wall = 0.0
        for request_id, latency in op:
            server_layers = ledger.get(request_id)
            handle = walls.get(request_id)
            for key, amount in record["op_extra"].get(request_id, {}).items():
                extra[key] = extra.get(key, 0) + amount
            if server_layers is None or handle is None:
                sum_mismatches.append(f"{request_id}: no server ledger")
                continue
            server_total = sum(slot[1] for slot in server_layers.values())
            if abs(server_total - handle) > 1e-6:
                sum_mismatches.append(request_id)
            slots = dict(server_layers)
            slots["http"] = [1, latency - handle]
            for layer, (calls, self_s) in slots.items():
                slot = layers.setdefault(layer, [0, 0.0])
                slot[0] += calls
                slot[1] += self_s
                op_total += self_s
            op_wall += latency
        if abs(op_total - op_wall) > 1e-6:
            sum_mismatches.append(str(op))
        op_walls.append(op_wall)
    return {
        "layers": layers,
        "extra": extra,
        "op_wall_s": op_walls,
        "sum_mismatches": sum_mismatches,
        "coverage_problems": record["coverage_problems"],
        "restored": record["restored"],
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def run_inproc(workload, seed, seconds, trace, tmp, processes) -> dict:
    from oracle import oracle_digest

    cache_dir = ROOT / ".perfbench_cache"
    cache_dir.mkdir(exist_ok=True)
    oracle_cache = cache_dir / (
        f"oracle-{workload}-{oracle_digest(ROOT)[:16]}.json"
    )
    result_path = tmp / "result.json"
    setup_times = []
    process = None
    reference = Reference()
    for index in range(SETUP_REPEATS):
        # Set-up CPU: starting the worker here, and the whole of the
        # worker's until it is ready.
        scale = reference.settled_scale()
        started = time.process_time()
        argv = [sys.executable, str(HERE / "inproc.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--result", str(result_path),
                "--oracle-cache", str(oracle_cache)]
        log_path = tmp / f"inproc{index}.log"
        with open(log_path, "wb") as log:
            process = processes.start(argv, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, stderr=log)
        line = read_line(process, 120, log_path)
        if line != "ready":
            raise RuntimeError(f"unexpected worker line {line!r}")
        setup_times.append(
            (time.process_time() - started + cpu_s(process.pid)) * scale
        )
        if index < SETUP_REPEATS - 1:
            process.stdin.write(b"quit\n")
            process.stdin.flush()
            process.wait(timeout=60)
            processes.stop(process)
    process.stdin.write(b"go\n")
    process.stdin.flush()
    code = process.wait(timeout=170)
    processes.stop(process)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}; see its log")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    return {
        "setup_times": setup_times,
        "elapsed_s": result["elapsed_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "config": result["config"],
        "request_digest": result["request_digest"],
        "counts": result["counts"],
        "attempted": len(result["ops"]),
        "failed": 0,
        "wrong": len(result["wrong"]),
        "op_kinds": [
            (f"{op['kind']}:{op['spec'][0]}({op['spec'][1]})", op["norm_s"])
            for op in result["ops"]
        ],
        "op_cpu_s": [op["cpu_s"] for op in result["ops"]],
        "reference": result["reference"],
        "round_size": result["round_size"],
        "latencies": [op["latency_s"] for op in result["ops"]],
        "answers": len(result["ops"]),
        "rounds": result["rounds"],
        "oracle_answers": result["oracle_computed"],
        **({"trace": result["trace"]} if "trace" in result else {}),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def kind_medians(op_kinds) -> dict:
    """Each op kind's median normalised CPU seconds and sample count."""
    samples: dict = {}
    for kind, norm in op_kinds:
        samples.setdefault(kind, []).append(norm)
    return {
        kind: (statistics.median(values), len(values))
        for kind, values in sorted(samples.items())
    }


def end_to_end(workload: str, outcome: dict) -> dict:
    """The mean normalised CPU time of the ops of the run's whole rounds
    (every round has the same mix of op kinds).

    No median: op kinds cost discrete levels (a database size, a
    template), and the median op falls between two kinds whose levels
    move with the constants the seed drew, so it spreads twice as much
    as the mean from run to run.  Each kind's median is in the report.
    """
    ops = outcome["op_kinds"]
    if not ops:
        raise RuntimeError("no op completed in the timed loop")
    whole = len(ops) - len(ops) % outcome["round_size"] or len(ops)
    return {
        "setup_s": (statistics.median(outcome["setup_times"]), "s"),
        "norm_cpu_ms_per_op": (
            statistics.fmean(norm for __, norm in ops[:whole]) * 1000, "ms"
        ),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
    }


def raw_figures(workload: str, outcome: dict) -> dict:
    """Per-op CPU median and tail and wall median and rate, as read."""
    from repro.obs.telemetry import quantile

    cpu = outcome["op_cpu_s"]
    return {
        "cpu_p50_ms": statistics.median(cpu) * 1000,
        "cpu_tail_ms": quantile(cpu, TAIL_QUANTILE[workload]) * 1000,
        "tail_quantile": TAIL_QUANTILE[workload],
        "wall_p50_ms": statistics.median(outcome["latencies"]) * 1000,
        "wall_ops_per_s": outcome["answers"] / outcome["elapsed_s"],
    }


def per_layer(workload: str, outcome: dict) -> dict:
    from tracer import LAYERS

    trace = outcome["trace"]
    layers = trace["layers"]
    extra = trace["extra"]
    counts = outcome["counts"]
    if "total" in counts:  # in-process: registry deltas over the loop
        counts = counts["total"]

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    metrics = {}
    for layer in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    e2e = end_to_end(workload, outcome)
    metrics.update({
        "trace.norm_cpu_ms_per_op": e2e["norm_cpu_ms_per_op"],
        "trace.ops": (len(trace["op_wall_s"]), "count"),
        "admission.wait_s": (layers.get("admission", (0, 0.0))[1], "s"),
        "server.rejected.quota": (count("server.rejected.quota"), "count"),
        "server.rejected.overload": (
            count("server.rejected.overload"), "count"),
        "engine.extension_hit_ratio": (ratio(
            count("engine.cache.extension.hits"),
            count("engine.cache.extension.hits")
            + count("engine.cache.extension.misses")), "ratio"),
        "optimizer.rewrites": (count("optimizer.rewrites"), "count"),
        "evaluator.memo_hit_ratio": (ratio(
            count("evaluator.memo_hits"), count("evaluator.evaluations")),
            "ratio"),
        "evaluator.fixpoint_stages": (
            count("evaluator.fixpoint_stages"), "count"),
        "datalog.stages": (count("datalog.stages"), "count"),
        "ir.memo_hit_ratio": (ratio(
            count("ir.feasibility_memo_hits"),
            count("ir.feasibility_calls")), "ratio"),
        "fm.generated_constraints": (
            count("fm.generated_constraints"), "count"),
        "lp.solves": (count("lp.solves"), "count"),
        "lp.filter_hit_ratio": (ratio(
            count("lp.filter_hits"),
            count("lp.filter_hits") + count("lp.filter_fallbacks")),
            "ratio"),
        "arrangement.dfs_nodes": (count("arrangement.dfs_nodes"), "count"),
        "arrangement.faces": (count("arrangement.faces"), "count"),
        "arrangement.faces_per_dfs_node": (ratio(
            count("arrangement.faces"), count("arrangement.dfs_nodes")),
            "ratio"),
        "regions.count": (extra.get("regions.count", 0), "count"),
        "incremental.planes_inserted": (
            count("incremental.planes_inserted"), "count"),
        "incremental.planes_retracted": (
            count("incremental.planes_retracted"), "count"),
        "store.hit_ratio": (ratio(
            count("store.hits"), count("store.hits") + count("store.misses")),
            "ratio"),
        "store.writes": (count("store.writes"), "count"),
        "store.bytes": (float(outcome.get("store_bytes", 0)), "bytes"),
    })
    return metrics


def layer_shares(trace: dict) -> dict:
    total = sum(slot[1] for slot in trace["layers"].values())
    return {
        layer: round(slot[1] / total, 4)
        for layer, slot in sorted(trace["layers"].items(),
                                  key=lambda item: -item[1][1])
        if total
    }


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    processes = Processes()
    try:
        runner = run_serve if args.workload.startswith("serve") \
            else run_inproc
        outcome = runner(args.workload, args.seed, args.seconds,
                         bool(args.trace), tmp, processes)
    finally:
        processes.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    trace = outcome.get("trace")
    problems = []
    if trace is not None:
        problems += [f"sum: {op}" for op in trace["sum_mismatches"]]
        problems += trace["coverage_problems"]
        if not trace["restored"]:
            problems.append("uninstall did not restore every function")
    errors = outcome["failed"] + outcome["wrong"]
    correct = outcome["wrong"] == 0 and outcome["failed"] == 0 \
        and not problems
    metrics = (per_layer if args.trace else end_to_end)(args.workload,
                                                       outcome)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "engine_config": outcome["config"],
        "server_flags": outcome.get("server_flags"),
        "request_digest": outcome["request_digest"],
        "setup_cpu_s": outcome["setup_times"],
        "samples": len(outcome["op_kinds"]),
        "kind_norm_p50_ms": {
            kind: [count, median * 1000]
            for kind, (median, count)
            in kind_medians(outcome["op_kinds"]).items()
        },
        "reference": outcome["reference"],
        # Raw figures, for reading only: the host's state moves them far
        # more than the program does.
        "raw": raw_figures(args.workload, outcome),
        "error_ratio": errors / max(1, outcome["attempted"]),
        "wrong": outcome["wrong"],
        "oracle_answers": outcome["oracle_answers"],
        "counts": outcome["counts"],
        "checks": problems,
    }
    for key in ("mix", "write_side", "rounds"):
        if key in outcome:
            report[key] = outcome[key]
    if trace is not None:
        report["layer_shares"] = layer_shares(trace)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": errors,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
