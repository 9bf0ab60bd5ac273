"""isf benchmark: seeded workloads through the `isf` CLI, one job at a time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each job is a fresh `python -m isf.cli` process run from `src/` of this
checkout; the client waits for its verdict before starting the next one
(closed loop, one client, no threads).  A run repeats the workload's fixed
job list (a round) until --seconds is used up, at least twice, and reports
medians over rounds.  `spawner.py` starts each job and reads its CPU time
and peak RSS with `os.wait4` on the job's own pid, because RUSAGE_CHILDREN
keeps a running maximum over every child.  Every output is checked against
`oracles.py`, and a job's stdout must be byte-identical across rounds,
traced or not.

--trace 0 reports the end-to-end metrics; --trace 1 runs each job again
under `tracer.py` and reports the per-layer metrics plus the tracing
overhead.  Both lists, with their units, are read from BENCHMARK.json.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import PROBE_ARGV, WORKLOADS, Job, check_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES_PER_ROUND = 3
# Host-speed reference: a fixed pure-Python loop that does not touch isf,
# timed in the client before every job and probe.  This shared VM's speed
# drifts by tens of percent over seconds to minutes, and a job's time moves
# with the reference's.  Each round's times are scaled by
# REF_NOMINAL_S / (the round's mean reference time), i.e. reported in
# seconds at the speed where the loop takes REF_NOMINAL_S (its median on
# the 2-vCPU host where the benchmark was defined).
REF_ITERATIONS = 200_000
REF_NOMINAL_S = 0.018
# Jobs still running this long after the start are killed, so that a run
# ends within three minutes even if a job hangs.
RUN_LIMIT_S = 150.0


def _catalogue(section: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


@dataclass
class Run:
    """One finished job process."""

    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes


class Client:
    """Runs jobs one at a time through `spawner.py` and checks each verdict."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.digests = {}     # label -> sha256 of its first stdout
        self.verdicts = {}    # (label, sha256) -> oracle verdict
        self.attempted = 0
        self.failures = []    # (label, reason)
        self.timed_out = False
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.spawner.stdin.close()
        if exc_type is not None:
            self.spawner.terminate()      # it kills the job it is running
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.terminate()
            self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, label: str, argv: list) -> tuple:
        """Run `python argv`; return (usage reply, stdout, stderr)."""
        out = self.run_dir / f"{label}.out"
        err = self.run_dir / f"{label}.err"
        request = {"argv": [sys.executable, *argv], "stdout": str(out),
                   "stderr": str(err), "timeout": self.deadline - time.monotonic()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        usage = json.loads(reply)
        self.timed_out = self.timed_out or usage["timed_out"]
        return usage, out.read_bytes(), err.read_bytes()

    def run(self, job: Job, traced_as: str | None = None) -> Run:
        """Run one job, plain or under the tracer writing to traced_as."""
        if traced_as is None:
            argv = ["-m", "isf.cli", *job.argv]
        else:
            argv = [str(HERE / "tracer.py"), traced_as, job.label, "--", *job.argv]
        usage, stdout, stderr = self.spawn(job.label, argv)
        self.attempted += 1
        reason = self._verdict(job, usage["status"], stdout, stderr)
        if reason:
            self.failures.append((job.label, reason))
        return Run(usage["wall"], usage["cpu"], usage["maxrss_kb"] / 1024, stdout)

    def _verdict(self, job: Job, status: int, stdout: bytes, stderr: bytes):
        if self.timed_out:
            return "killed: the run's time limit passed"
        if b"Traceback" in stderr:
            return "traceback on stderr"
        if status != 0:
            return f"exit code {status}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(job.label, digest) != digest:
            return "stdout differs from an earlier run of the same job"
        key = (job.label, digest)
        if key not in self.verdicts:
            self.verdicts[key] = _check_report(job, stdout)
        return self.verdicts[key]


def _check_report(job: Job, stdout: bytes):
    try:
        report = json.loads(stdout)
        if (report["command"], report["ok"], report["diagnostics"]) != (
                job.argv[0], True, []):
            return f"report header {report['command']!r} ok={report['ok']}"
        return job.check(report["payload"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"


PROBE = Job("setup-probe", PROBE_ARGV, check_probe, work=0)


def _median_q(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def reference_s() -> float:
    """Time of the host-speed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure(client: Client, jobs: list, seconds: float) -> dict:
    """End-to-end metrics: medians over rounds of the job list."""
    t0 = time.perf_counter()
    client.run(PROBE)             # writes bytecode caches; not timed
    probes, rounds, scales = [], [], []
    while not client.timed_out:
        refs, runs = [], []
        for job in [PROBE] * PROBES_PER_ROUND + jobs:
            refs.append(reference_s())
            runs.append(client.run(job))
        refs.append(reference_s())
        scales.append(REF_NOMINAL_S / statistics.fmean(refs))
        probes.append(runs[:PROBES_PER_ROUND])
        rounds.append(runs[PROBES_PER_ROUND:])
        elapsed = time.perf_counter() - t0
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    work = sum(job.work for job in jobs)
    raw = {
        "wall_s": [sum(r.wall for r in rnd) for rnd in rounds],
        "cpu_s": [sum(r.cpu for r in rnd) for rnd in rounds],
        "setup_s": [[p.wall for p in rnd] for rnd in probes],
    }
    samples = {
        "wall_s": [w * k for w, k in zip(raw["wall_s"], scales)],
        "cpu_s": [c * k for c, k in zip(raw["cpu_s"], scales)],
        "peak_rss_mb": [max(r.rss_mb for r in rnd) for rnd in rounds],
        "setup_s": [p * k for rnd, k in zip(raw["setup_s"], scales) for p in rnd],
    }
    samples["work_per_s"] = [work / w for w in samples["wall_s"]]
    raw["setup_s"] = [p for rnd in raw["setup_s"] for p in rnd]
    per_job = {job.label: [rnd[i] for rnd in rounds] for i, job in enumerate(jobs)}
    return {"samples": samples, "raw": raw, "scales": scales,
            "per_job": per_job, "rounds": len(rounds)}


def measure_traced(client: Client, jobs: list, seconds: float, trace_dir: Path):
    """Per-layer metrics from traced rounds, paired with untraced rounds."""
    t0 = time.perf_counter()
    client.run(PROBE)
    per_round, overhead = [], []
    pairs = sum(job.pairs for job in jobs)
    identity_failures = []
    while not client.timed_out:
        plain = [client.run(job) for job in jobs]
        prefixes = [str(trace_dir / job.label) for job in jobs]
        traced = [client.run(job, p) for job, p in zip(jobs, prefixes)]
        if client.failures:
            break
        found = layers.Layers()
        for prefix in prefixes:
            found.add_job(*layers.load(prefix))
        identity_failures += found.identity_failures(pairs)
        metrics = found.metrics(_catalogue("per_layer"),
                                sum(len(r.stdout) for r in traced))
        overhead.append(sum(r.wall for r in traced) - sum(r.wall for r in plain))
        per_round.append((found, metrics, sum(r.wall for r in traced)))
        elapsed = time.perf_counter() - t0
        if identity_failures or elapsed * (len(per_round) + 1) / len(per_round) > seconds:
            break
    return per_round, overhead, identity_failures


def _source_id() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    return f"git {sha}, src/isf sha256 {digest.hexdigest()[:16]}"


def _isf_location(env: dict) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", "import isf, sys; sys.stdout.write(isf.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return probe.stdout


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple:
    """Print one workload's report; return (correct, attempted, failed, metrics)."""
    run_dir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    (run_dir / "trace").mkdir()
    jobs = WORKLOADS[name].build(seed, run_dir / "inputs")
    print(f"== workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}: "
          f"{len(jobs)} jobs, {sum(j.work for j in jobs)} "
          f"{WORKLOADS[name].unit} per round")
    with Client(run_dir, deadline) as client:
        if trace:
            metrics, bad = _report_traced(
                *measure_traced(client, jobs, seconds, run_dir / "trace"))
        else:
            metrics, bad = _report_untraced(measure(client, jobs, seconds)), []
    for label, reason in client.failures:
        print(f"FAILED {label}: {reason}")
    for reason in bad:
        print(f"IDENTITY FAILED: {reason}")
    failed = len(client.failures)
    print(f"fail_ratio {failed / client.attempted:.6g} ratio "
          f"({failed} of {client.attempted} jobs failed)")
    return not failed and not bad, client.attempted, failed, metrics


def _report_untraced(result: dict) -> dict:
    print(f"closed loop, 1 client: {result['rounds']} rounds, "
          f"{PROBES_PER_ROUND} start-up probes before each")
    print("round wall_s, raw: " + " ".join(f"{w:.4f}" for w in result["raw"]["wall_s"]))
    print("round reference loop, mean ms: " + " ".join(
        f"{REF_NOMINAL_S / k * 1e3:.2f}" for k in result["scales"]))
    print(f"metrics are scaled to the reference speed ({REF_NOMINAL_S * 1e3:g} "
          f"ms a loop); unscaled medians: " + ", ".join(
              f"{name} {statistics.median(v):.4f} s" for name, v in result["raw"].items()))
    print(f"{'job (raw)':30} {'wall_s':>9} {'q1':>9} {'q3':>9} {'cpu_s':>8} "
          f"{'rss_mb':>7} {'stdout_B':>9}")
    for label, runs in result["per_job"].items():
        med, q1, q3 = _median_q([r.wall for r in runs])
        print(f"{label:30} {med:9.4f} {q1:9.4f} {q3:9.4f} "
              f"{statistics.median(r.cpu for r in runs):8.4f} "
              f"{max(r.rss_mb for r in runs):7.1f} {len(runs[0].stdout):9d}")
    print(f"{'metric':12} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12}  n")
    metrics = {}
    for name, unit in _catalogue("end_to_end").items():
        values = result["samples"][name]
        med, q1, q3 = _median_q(values)
        print(f"{name:12} {unit:7} {med:12.6g} {q1:12.6g} {q3:12.6g}  {len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def _report_traced(per_round, overhead, identity_failures) -> tuple:
    if not per_round:
        return {}, identity_failures
    found, _, traced_wall = per_round[0]
    print(f"traced rounds: {len(per_round)}; self time per isf module, as a "
          f"share of traced wall {traced_wall:.3f} s (the most a faster module "
          f"can save here):")
    shares = found.module_self_s()
    shares["(outside isf calls: start-up, import, tracer)"] = (
        traced_wall - sum(shares.values()))
    for module, s in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {module:12} {s:9.4f} s  {s / traced_wall:6.1%}")
    catalogue = _catalogue("per_layer")
    zeros = defaultdict(list)
    for name, reason in found.not_measured(catalogue).items():
        zeros[reason].append(name.rsplit(".", 1)[1])
    for reason, stats in zeros.items():
        print(f"  reads 0 ({', '.join(stats)}): {reason}")
    metrics = {}
    for name, unit in catalogue.items():
        if name == "trace.overhead_s":
            values = overhead
        else:
            values = [m[name] for _, m, _ in per_round]
        value = statistics.median(values)
        print(f"{name:48} {value:14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, identity_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "isf" / "cli.py").is_file():
        print(f"no isf sources under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    location = _isf_location(dict(os.environ, PYTHONPATH=str(SRC)))
    if not location.startswith(str(SRC)):
        print(f"`import isf` resolves to {location!r}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(f"python {platform.python_version()} ({platform.python_implementation()}), "
          f"{os.cpu_count()} CPUs, {_source_id()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, found = run_workload(
            name, args.seed, args.seconds, bool(args.trace),
            start + RUN_LIMIT_S * len(names))
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
