"""The ``live-gateway`` workload: ``repro.service`` under an open-loop load.

The gateway runs as its own process (started through
``gateway_launch.py``).  The load generator here uses two keep-alive
connections from one asyncio loop:

* the *submit* connection follows a fixed open-loop schedule: a reference
  phase at ``REF_RATE`` tasks/s long enough for at least 1000 submits, then
  steps at ``STEP_RATES``.  Each submit is timed from its due time, so a
  stall also delays every submit queued behind it;
* the *worker* connection serves ``WORKERS`` simulated workers: every
  ``TICK`` seconds it posts the answers whose work time has passed and
  heartbeats each idle worker at most every ``HEARTBEAT_EVERY`` seconds.

Work times and task deadlines are drawn from the seed; arrival times are
the fixed schedule.  The run checks that every admitted task ends
completed, stale or unfinished, that no response is a 5xx, and that the
gateway's own drained totals match what the clients saw.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "gateway_launch.py"

#: Gateway clock seconds per wall second.
TIME_SCALE = 10.0
WORKERS = 100
#: Worker-connection round period and per-worker idle heartbeat spacing
#: (wall seconds).  The liveness timeout (30 clock s = 3 wall s) is far
#: above the heartbeat spacing.
TICK = 0.05
HEARTBEAT_EVERY = 0.5
WORK_S = (0.05, 0.15)
#: Task deadlines, clock seconds (the paper's U[60, 120] band).
DEADLINE_S = (60.0, 120.0)
#: Reference phase: the end-to-end submit and turnaround figures.
REF_RATE = 100.0
MIN_REF_SUBMITS = 1050
#: Knee steps after the reference phase (tasks/s).
STEP_RATES = (150.0, 200.0, 300.0)
#: A step passes when its submit p99 is under this limit, nothing failed or
#: was refused, and the backlog at its end is at most rate * BACKLOG_SLACK_S.
P99_LIMIT_MS = 50.0
BACKLOG_SLACK_S = 1.0
#: Wall seconds granted to in-flight tasks after the schedule.
DRAIN_S = 3.0
BOOTS = 5
#: Admission is set above every step rate, so the knee measures the
#: middleware rather than the token bucket's configuration.
GATEWAY_ARGS = (
    "--port", "0",
    "--time-scale", str(TIME_SCALE),
    "--admission-rate", "1000",
    "--admission-burst", "200",
    "--max-in-flight", "5000",
    "--drain-timeout", "2",
)
BOOT_TIMEOUT_S = 60.0
#: Wall seconds the schedule may overrun before the run gives up on it;
#: submits never sent count as failed.
OVERRUN_S = 5.0


@dataclass
class Phase:
    rate: float
    start: float
    end: float


@dataclass
class Submit:
    due: float
    phase: int
    status: int = 0
    #: Wall ms from the due time to the response.
    latency_ms: float = 0.0
    task_id: Optional[int] = None


@dataclass
class LoadResult:
    submits: List[Submit]
    phases: List[Phase]
    completed_at: Dict[int, float] = field(default_factory=dict)
    on_time: int = 0
    stale: Set[int] = field(default_factory=set)
    answers: int = 0
    server_errors: int = 0
    errors: List[str] = field(default_factory=list)
    rtt_ms: Dict[str, List[float]] = field(default_factory=dict)
    lateness_ms: List[float] = field(default_factory=list)
    reregistered: int = 0
    backlog_at_phase_end: List[int] = field(default_factory=list)
    wall_s: float = 0.0


# ------------------------------------------------------------------ process
class Gateway:
    """One gateway process: boot, readiness, resource readings, shutdown."""

    def __init__(self, seed: int, layers_out: Optional[Path] = None) -> None:
        args = [sys.executable, str(LAUNCHER)]
        if layers_out is not None:
            args += ["--layers-out", str(layers_out)]
        args += ["--", *GATEWAY_ARGS, "--seed", str(seed)]
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(started + BOOT_TIMEOUT_S)
            self._await_ready(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - started

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next_line(self, deadline: float) -> Optional[str]:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("gateway output timed out")
        try:
            line = self._lines.get(timeout=remaining)
        except queue.Empty as exc:
            raise TimeoutError("gateway output timed out") from exc
        if line is not None:
            self.output.append(line)
        return line

    def _await_port(self, deadline: float) -> int:
        while True:
            line = self._next_line(deadline)
            if line is None:
                raise RuntimeError("gateway exited during boot: " + " | ".join(self.output[-5:]))
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _await_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise TimeoutError("gateway never became ready")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> Dict[str, int]:
        """SIGTERM, wait for the drain, return the gateway's drained totals."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        self._reader.join(timeout=5)
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.output.append(line)
        if self.proc.returncode != 0:
            raise RuntimeError(f"gateway exited with {self.proc.returncode}")
        for line in self.output:
            if "drained:" in line:
                return {
                    key: int(value)
                    for key, value in (part.split("=") for part in line.split("drained:")[1].split())
                }
        raise RuntimeError("gateway printed no drained totals")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# --------------------------------------------------------------------- load
class _Client:
    """Keep-alive HTTP/1.1 JSON client on one connection."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass

    async def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        self._writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self._writer.drain()
        status = int((await self._reader.readuntil(b"\r\n")).split(b" ", 2)[1])
        length = 0
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else None)


def schedule(seconds: float) -> Tuple[List[Phase], List[Submit]]:
    """The open-loop plan: reference phase, then the knee steps."""
    ref_s = max(MIN_REF_SUBMITS / REF_RATE, 0.55 * seconds)
    step_s = max(2.0, (seconds - ref_s) / len(STEP_RATES))
    phases = [Phase(REF_RATE, 0.0, ref_s)]
    for rate in STEP_RATES:
        start = phases[-1].end
        phases.append(Phase(rate, start, start + step_s))
    submits = []
    for index, phase in enumerate(phases):
        count = int(round((phase.end - phase.start) * phase.rate))
        submits += [Submit(due=phase.start + k / phase.rate, phase=index) for k in range(count)]
    return phases, submits


async def drive(port: int, seed: int, seconds: float) -> LoadResult:
    rng = np.random.default_rng(seed)
    phases, submits = schedule(seconds)
    deadlines = rng.uniform(*DEADLINE_S, size=len(submits))
    result = LoadResult(submits=submits, phases=phases)
    loop = asyncio.get_running_loop()
    submit_conn, worker_conn = _Client(port), _Client(port)
    await submit_conn.open()
    await worker_conn.open()
    due_of: Dict[int, float] = {}
    finished = asyncio.Event()

    async def timed(conn: _Client, route: str, method: str, path: str, payload: Optional[dict] = None):
        start = loop.time()
        status, body = await conn.request(method, path, payload)
        result.rtt_ms.setdefault(route, []).append((loop.time() - start) * 1e3)
        if status >= 500:
            result.server_errors += 1
        return status, body

    async def submitter() -> None:
        origin = loop.time()
        for index, item in enumerate(submits):
            due = origin + item.due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness_ms.append((loop.time() - due) * 1e3)
            status, body = await timed(
                submit_conn, "POST /tasks", "POST", "/tasks", {"deadline": float(deadlines[index])}
            )
            item.latency_ms = (loop.time() - due) * 1e3
            item.status = status
            if status == 201:
                item.task_id = int(body["task_id"])
                due_of[item.task_id] = due
            if index + 1 < len(submits) and submits[index + 1].phase != item.phase:
                result.backlog_at_phase_end.append(len(due_of) - len(result.completed_at))
        result.backlog_at_phase_end.append(len(due_of) - len(result.completed_at))

    async def workers() -> None:
        work_rng = np.random.default_rng(seed + 1)
        ids: List[int] = []
        for _ in range(WORKERS):
            status, body = await timed(worker_conn, "POST /workers", "POST", "/workers", {})
            if status != 201:
                raise RuntimeError(f"worker registration failed: {status}")
            ids.append(int(body["worker_id"]))
        now = loop.time()
        next_beat = {w: now + HEARTBEAT_EVERY * i / WORKERS for i, w in enumerate(ids)}
        busy: Dict[int, Tuple[int, float]] = {}
        while not finished.is_set():
            tick_end = loop.time() + TICK
            for worker in ids:
                now = loop.time()
                if worker in busy:
                    task_id, done_at = busy[worker]
                    if done_at > now:
                        continue
                    del busy[worker]
                    status, body = await timed(
                        worker_conn, "POST answer", "POST",
                        f"/workers/{worker}/answer", {"task_id": task_id},
                    )
                    result.answers += 1
                    if status == 200:
                        if task_id in result.completed_at:
                            result.errors.append(f"task {task_id} completed twice")
                        result.completed_at[task_id] = loop.time()
                        result.on_time += bool(body.get("met_deadline"))
                    elif status == 409:
                        result.stale.add(task_id)
                    elif status < 500:
                        result.errors.append(f"answer for task {task_id} -> {status}")
                    next_beat[worker] = loop.time()
                    continue
                if next_beat[worker] > now:
                    continue
                status, body = await timed(
                    worker_conn, "POST heartbeat", "POST", f"/workers/{worker}/heartbeat"
                )
                next_beat[worker] = loop.time() + HEARTBEAT_EVERY
                if status == 404:
                    # Culled for silence (the gateway stalled past the
                    # liveness timeout): register again under the same id.
                    result.reregistered += 1
                    await timed(worker_conn, "POST /workers", "POST", "/workers", {"worker_id": worker})
                    continue
                assignment = body.get("assignment") if isinstance(body, dict) else None
                if assignment:
                    busy[worker] = (
                        int(assignment["task_id"]),
                        loop.time() + float(work_rng.uniform(*WORK_S)),
                    )
            delay = tick_end - loop.time()
            await asyncio.sleep(delay if delay > 0 else 0)

    worker_task = asyncio.ensure_future(workers())
    started = loop.time()
    try:
        try:
            await asyncio.wait_for(submitter(), timeout=phases[-1].end + OVERRUN_S)
        except asyncio.TimeoutError:
            result.errors.append(f"schedule overran by {OVERRUN_S} s: the gateway stalled")
        drain_end = loop.time() + DRAIN_S
        while loop.time() < drain_end and len(result.completed_at) < len(due_of):
            if worker_task.done():
                break
            await asyncio.sleep(0.02)
        result.wall_s = loop.time() - started
    finally:
        finished.set()
        try:
            await asyncio.wait_for(worker_task, timeout=OVERRUN_S)
        except asyncio.TimeoutError:
            result.errors.append("worker connection hung")
        await submit_conn.close()
        await worker_conn.close()
    for task_id in list(result.completed_at) + list(result.stale):
        if task_id not in due_of:
            result.errors.append(f"answer for task {task_id} that was never admitted")
    result.completed_at = {t: at - due_of[t] for t, at in result.completed_at.items() if t in due_of}
    return result


# ------------------------------------------------------------------ metrics
def _pct(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def _knee(load: LoadResult, latencies: List[List[float]]) -> float:
    knee = 0.0
    for index, phase in enumerate(load.phases):
        if index >= len(load.backlog_at_phase_end):
            break  # the schedule never finished this phase
        items = [s for s in load.submits if s.phase == index]
        refused = sum(1 for s in items if s.status != 201)
        backlog = load.backlog_at_phase_end[index]
        if (
            refused == 0
            and _pct(latencies[index], 0.99) <= P99_LIMIT_MS
            and backlog <= phase.rate * BACKLOG_SLACK_S
        ):
            knee = max(knee, phase.rate)
    return knee


def run_gateway(seed: int, seconds: float, layers_out: Optional[Path]) -> Dict[str, Any]:
    """Boot, load, check; returns metrics, checks and raw figures."""
    boots: List[float] = []
    gateway = Gateway(seed, layers_out=layers_out)
    try:
        boots.append(gateway.boot_s)
        cpu_before = gateway.cpu_s()
        load = asyncio.run(drive(gateway.port, seed, seconds))
        cpu_s = gateway.cpu_s() - cpu_before
        rss = gateway.peak_rss_mb()
        totals = gateway.stop()
    except BaseException:
        gateway.kill()
        raise
    if layers_out is None:
        for _ in range(BOOTS - 1):
            extra = Gateway(seed)
            boots.append(extra.boot_s)
            extra.stop()
    return _summarise(load, totals, boots, cpu_s, rss)


def _summarise(
    load: LoadResult, totals: Dict[str, int], boots: List[float], cpu_s: float, rss: float
) -> Dict[str, Any]:
    admitted = [s for s in load.submits if s.status == 201]
    errors = list(load.errors)
    if load.server_errors:
        errors.append(f"{load.server_errors} responses were 5xx")
    completed = set(load.completed_at)
    stale_only = load.stale - completed
    unfinished = {s.task_id for s in admitted} - completed - stale_only
    if len(completed) + len(stale_only) + len(unfinished) != len(admitted):
        errors.append("admitted tasks do not partition into completed/stale/unfinished")
    if totals.get("received") != len(admitted):
        errors.append(f"gateway received {totals.get('received')} != admitted {len(admitted)}")
    if totals.get("completed") != len(completed):
        errors.append(f"gateway completed {totals.get('completed')} != answered {len(completed)}")

    # Per phase; a refused or failed submit misses any latency limit (the
    # knee).  The reported percentiles are over admitted submits; the others
    # are counted as failed operations.
    latencies: List[List[float]] = [[] for _ in load.phases]
    for s in load.submits:
        latencies[s.phase].append(s.latency_ms if s.status == 201 else float("inf"))
    ref = [s.latency_ms for s in load.submits if s.phase == 0 and s.status == 201]
    if len(ref) < 1000:
        errors.append(f"only {len(ref)} admitted submits in the reference phase")
    ref_ids = {s.task_id for s in load.submits if s.phase == 0 and s.status == 201}
    turnaround = [t for task_id, t in load.completed_at.items() if task_id in ref_ids]
    if not turnaround:
        errors.append("no reference-phase task completed")
    metrics = {
        "setup_s": statistics.median(boots),
        "completions_per_s": len(completed) / load.wall_s,
        "on_time_frac": load.on_time / len(admitted) if admitted else 0.0,
        "peak_rss_mb": rss,
        "turnaround_p50_s": _pct(turnaround, 0.50) if turnaround else 0.0,
    }
    detail = {
        "submit_p50_ms": _pct(ref, 0.50) if ref else 0.0,
        "submit_p99_ms": _pct(ref, 0.99) if ref else 0.0,
        "gateway_cpu_s": cpu_s,
        "knee_tasks_per_s": _knee(load, latencies),
        "loadgen_lateness_p99_ms": _pct(load.lateness_ms, 0.99),
        "rtt_p50_ms": {route: _pct(v, 0.5) for route, v in load.rtt_ms.items()},
        "step_p99_ms": [_pct(v, 0.99) for v in latencies],
        "backlog_at_phase_end": load.backlog_at_phase_end,
        "admitted": len(admitted),
        "completed": len(completed),
        "stale_only": len(stale_only),
        "unfinished": len(unfinished),
        "answers": load.answers,
        "reregistered": load.reregistered,
        "unsent": sum(1 for s in load.submits if s.status == 0),
        "boots_s": boots,
        "gateway_totals": totals,
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "errors": errors,
        "attempted": len(load.submits),
        "failed": sum(1 for s in load.submits if s.status != 201) + (1 if errors else 0),
    }
