"""REACT benchmark: one command, three workloads, end-to-end or per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper-react --seed 42 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``, with
times in reference seconds (``calibrate.py``) so that the host's drifting
speed cancels out;
``--trace 1`` runs the layer wrappers of ``layers.py`` in a separate traced
run and prints every per-layer metric (zero for layers the workload does
not exercise).  The last line of standard output is the result object; the
line before it (``# report ...``) holds host facts, checks and raw figures.
Workloads and the reasons behind their sizes are in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import find_spec
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SIM_WORKLOADS = ("paper-react", "scenario-hotspot")
WORKLOADS = SIM_WORKLOADS + ("live-gateway",)
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: build the workload in a fresh interpreter, say "ready", exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_facts() -> Dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numba": find_spec("numba") is not None,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD's commit read from ``.git`` (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(args: argparse.Namespace) -> Dict[str, float]:
    """In a fresh interpreter: build the workload with the calibrator running."""
    from calibrate import Calibrator

    start = time.perf_counter()
    calibrator = Calibrator()
    built_s = time.perf_counter() - start
    calibrator.start()
    begin = calibrator.mark()
    import sim

    sim.SimWorkload(args.workload, args.seed, args.seconds)
    end = calibrator.mark()
    calibrator.stop()
    return {
        "built_s": built_s,
        "spent_s": calibrator.spent,
        "scale": Calibrator.ref_s(begin, end) / Calibrator.raw_s(begin, end),
    }


def sim_setup_s(args: argparse.Namespace) -> List[Dict[str, float]]:
    """Fresh interpreter to built workload, timed ``SETUP_SAMPLES`` times.

    Each sample is the wall time from spawn to the probe's answer, less the
    probe's calibrator (building its list and the walks), and the same span
    in reference seconds at the speed of the probe's own walks.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
        ]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()  # type: ignore[union-attr]
            elapsed = time.perf_counter() - start
            proc.stdout.read()  # type: ignore[union-attr]
        if not line.startswith("ready ") or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        probe = json.loads(line[len("ready "):])
        wall = elapsed - probe["built_s"] - probe["spent_s"]
        samples.append({"wall_s": wall, "ref_s": wall * probe["scale"]})
    return samples


def _rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def run_sim(args: argparse.Namespace, report: Dict[str, Any]) -> Dict[str, Any]:
    from calibrate import Calibrator

    before = _rss_mb()
    calibrator = Calibrator()
    calibrator_mb = _rss_mb() - before
    import sim

    workload = sim.SimWorkload(args.workload, args.seed, args.seconds)
    outcome = sim.measure(workload, bool(args.trace), calibrator, calibrator_mb)
    metrics = outcome["metrics"]
    if not args.trace:
        setups = sim_setup_s(args)
        metrics["setup_s"] = statistics.median(s["ref_s"] for s in setups)
        report["setup_samples"] = setups
        report["wall_clock"] = {
            "completions_per_s": sim.completion_rate(outcome["instances"], "wall_s"),
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "calibrator_mb": calibrator_mb,
            "walks": len(calibrator.walks),
            "walk_ms_mean": statistics.fmean(calibrator.walks) * 1e3,
        }
    report["instances"] = [
        {"label": i.label, "wall_s": i.wall_s, "ref_s": i.ref_s, "counts": i.counts}
        for i in outcome["instances"]
    ]
    return outcome


def run_live(args: argparse.Namespace, report: Dict[str, Any]) -> Dict[str, Any]:
    import gateway

    if not args.trace:
        outcome = gateway.run_gateway(args.seed, args.seconds, layers_out=None)
        report["detail"] = outcome["detail"]
        return outcome
    # Traced run: an untraced run first gives the CPU baseline for the
    # overhead, then the same schedule with the wrappers inside the gateway.
    plain = gateway.run_gateway(args.seed, args.seconds, layers_out=None)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        layers_file = Path(tmp) / "layers.json"
        traced = gateway.run_gateway(args.seed, args.seconds, layers_out=layers_file)
        dumped = json.loads(layers_file.read_text())
    detail = traced["detail"]
    layers = dumped["layers"]
    waits = sorted(dumped["samples"].get("dispatch_wait_ms", [0.0]))
    cpu = detail["gateway_cpu_s"]
    plain_cpu = plain["detail"]["gateway_cpu_s"]
    metrics = {k: v for k, v in layers.items() if k != "total_self_s"}
    metrics.update(
        {
            "service.http.gateway_cpu_s": cpu,
            "service.http.dispatch_wait_p50_ms": waits[len(waits) // 2],
            "service.http.loadgen_lateness_p99_ms": detail["loadgen_lateness_p99_ms"],
            "service.http.knee_tasks_per_s": detail["knee_tasks_per_s"],
            "service.http.submit_rtt_p50_ms": detail["rtt_p50_ms"].get("POST /tasks", 0.0),
            "service.http.heartbeat_rtt_p50_ms": detail["rtt_p50_ms"].get("POST heartbeat", 0.0),
            "service.http.answer_rtt_p50_ms": detail["rtt_p50_ms"].get("POST answer", 0.0),
            "trace.overhead_ratio": (cpu / max(detail["admitted"], 1))
            / (plain_cpu / max(plain["detail"]["admitted"], 1))
            - 1.0,
            "trace.wall_s": cpu,
            "trace.unattributed_s": cpu - layers["total_self_s"],
            "trace.attributed_frac": layers["total_self_s"] / cpu if cpu else 0.0,
        }
    )
    report["detail"] = {"plain": plain["detail"], "traced": detail}
    return {
        "metrics": metrics,
        "errors": plain["errors"] + traced["errors"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print("ready " + json.dumps(setup_probe(args)), flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
    }
    if args.workload in SIM_WORKLOADS:
        outcome = run_sim(args, report)
    else:
        outcome = run_live(args, report)
    measured = outcome["metrics"]
    if args.trace:
        # Layers a workload does not exercise report zero.
        missing_ok = {m["name"]: 0.0 for m in wanted}
        measured = {**missing_ok, **measured}
    unknown = set(measured) - {m["name"] for m in wanted}
    absent = {m["name"] for m in wanted} - set(measured)
    if unknown or absent:
        raise RuntimeError(f"metric set mismatch: unknown={sorted(unknown)} absent={sorted(absent)}")
    errors = outcome["errors"]
    report["errors"] = errors
    print("# report " + json.dumps(report, default=str))
    result = {
        "correct": not errors and outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
