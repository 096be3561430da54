#!/usr/bin/env python3
"""Fuzzing benchmark for gradfuzz: end-to-end and per-layer metrics.

    python3 bench/run.py --workload parser --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--seed`` picks the workload's fuzz seeds.  One *pass* fuzzes every one
of them at the workload's execution budget; passes repeat until
``--seconds`` have gone by and timings are medians over passes, in
reference seconds (see hostspeed.py).  The outputs are checked (replay,
remote identity, determinism across passes) and the last line of
standard output is one JSON object with the metrics: the end-to-end ones
with ``--trace 0``, the per-layer ones from a traced pass with
``--trace 1``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TARGETS = BENCH_DIR / "targets"
OUT = BENCH_DIR / "out"

# The package under test is the checkout's own source tree, never an
# installed copy.
if not (SRC / "gradfuzz").is_dir():
    raise SystemExit(f"error: no gradfuzz sources under {SRC}; "
                     f"run from the root of a checkout")
sys.path.insert(0, str(SRC))

from gradfuzz.executors import LocalExecutor, RemoteExecutor  # noqa: E402
from gradfuzz.fuzz_loop import (  # noqa: E402
    FuzzBudget,
    FuzzEngine,
    FuzzOptions,
    replay_suite,
    save_suite,
)
from gradfuzz.minivm import VmLimits, parse_program  # noqa: E402
from gradfuzz.target_abi import wire_decode, wire_encode  # noqa: E402
from hostspeed import ClockedExecutor, HostClock, probe_seconds  # noqa: E402
from tracing import TracedExecutor, Tracer  # noqa: E402

SETUP_REPEATS = 11
# Untraced campaigns re-probe the host's speed this often (seconds).
PROBE_SEGMENT_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    target: str            # file under bench/targets
    seeds: int             # fuzz seeds per run, drawn from --seed
    max_executions: int    # budget per seed
    remote: bool = False   # execute through a `gradfuzz serve` process


WORKLOADS = {
    # fuzzed to completion: the budget is never reached
    "parser": Workload("parser", "parser.mc", seeds=8, max_executions=20_000),
    "scanner": Workload("scanner", "scanner.mc", seeds=3, max_executions=600),
    "remote": Workload("remote", "scanner.mc", seeds=3, max_executions=600,
                       remote=True),
}


@dataclass
class SeedRun:
    """One fuzzing campaign: one engine, one seed, the workload budget."""

    seed: int
    seconds: float = 0.0       # wall time
    ref_seconds: float = 0.0   # wall time in reference seconds
    suite: object = None
    stats: object = None
    error: str = ""
    fingerprint: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class Pass:
    """Every seed of the workload, fuzzed once, in order."""

    runs: list[SeedRun] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(run.seconds for run in self.runs)

    @property
    def ref_seconds(self) -> float:
        return sum(run.ref_seconds for run in self.runs)


def seed_set(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(range(1 << 31), count)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(part: float, whole: float) -> float:
    """part / whole; 0 when there is no whole, e.g. no finished session."""
    return part / whole if whole else 0.0


# -- the target server -----------------------------------------------------

class Server:
    """``gradfuzz serve`` in a subprocess; ``stop`` waits until it ended."""

    def __init__(self, target: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "gradfuzz.cli", "serve",
             "-t", str(target), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving"):
            self.stop()
            raise RuntimeError(f"gradfuzz serve did not start: {line!r}")
        self.endpoint = line.split()[-1]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- fuzzing -----------------------------------------------------------------

class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seeds = seed_set(seed, workload.seeds)
        self.target = TARGETS / workload.target
        self.program = parse_program(self.target.read_text(encoding="utf-8"))
        self.server: Optional[Server] = None
        self.out = OUT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup(self) -> tuple[float, float, float]:
        """Median time to (start the server,) parse the target and build an
        engine, in reference and in wall seconds, and the median wall time
        of the parse alone, over SETUP_REPEATS set-ups after one untimed
        warm-up."""
        totals, refs, parses = [], [], []
        for _ in range(1 + SETUP_REPEATS):
            self.close()
            clock = HostClock()
            executor = None
            if self.workload.remote:
                self.server = Server(self.target)
                executor = RemoteExecutor(self.server.endpoint)
            parse_start = time.perf_counter()
            program = parse_program(self.target.read_text(encoding="utf-8"))
            parses.append(time.perf_counter() - parse_start)
            FuzzEngine(program,
                       FuzzBudget(max_executions=self.workload.max_executions),
                       FuzzOptions(seed=self.seeds[0]), executor=executor)
            clock.stop()
            totals.append(clock.wall)
            refs.append(clock.ref)
        return (statistics.median(refs[1:]), statistics.median(totals[1:]),
                statistics.median(parses[1:]))

    def executor(self, remote: bool):
        if remote:
            return RemoteExecutor(self.server.endpoint)
        return LocalExecutor(self.program, VmLimits())

    def fuzz(self, seed: int, remote: bool, tracer=None) -> SeedRun:
        """One campaign.  With a tracer, the executor, the engine's run and
        the host-speed probes are wrapped in spans (the layers are patched
        by the caller)."""
        result = SeedRun(seed)
        if tracer is None:
            clock = HostClock(PROBE_SEGMENT_S)
        else:
            clock = HostClock(PROBE_SEGMENT_S,
                              tracer.wrap("hostspeed.probe", probe_seconds))
        executor = self.executor(remote)
        if tracer is not None:
            executor = TracedExecutor(tracer, executor)
        executor = ClockedExecutor(clock, executor)
        try:
            engine = FuzzEngine(
                self.program,
                FuzzBudget(max_executions=self.workload.max_executions),
                FuzzOptions(seed=seed), executor=executor)
            run = engine.run
            if tracer is not None:
                run = tracer.wrap("fuzz_loop.run", run)
            result.suite, result.stats = run()
        except Exception as exc:  # engine or transport failure: counted
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            executor.close()
        clock.stop()
        result.seconds, result.ref_seconds = clock.wall, clock.ref
        return result

    def fuzz_pass(self, remote: bool, tracer=None) -> Pass:
        return Pass([self.fuzz(seed, remote, tracer) for seed in self.seeds])

    # -- correctness -----------------------------------------------------------

    def save(self, run: SeedRun, label: str) -> Path:
        """Write the suite and record the sha256 of its manifest."""
        outdir = self.out / label / f"seed{run.seed}"
        save_suite(outdir, run.suite, run.stats, FuzzOptions(seed=run.seed))
        run.fingerprint = hashlib.sha256(
            (outdir / "manifest.json").read_bytes()).hexdigest()
        return outdir

    def check_replay(self, outdir: Path) -> str:
        """Empty when the saved suite replays, else the divergence."""
        ok, divergence = replay_suite(self.program, outdir)
        return "" if ok else f"replay failed: {divergence}"


def check_passes(bench: Bench, passes: list[Pass]) -> dict[str, float]:
    """Gate every seed-run: pass 0 suites must replay after save_suite;
    later passes must reproduce pass 0's manifests byte for byte.
    Returns the median save and replay times in ms."""
    save_ms, replay_ms = [], []
    for index, fuzz_pass in enumerate(passes):
        for run, first in zip(fuzz_pass.runs, passes[0].runs):
            if run.failed:
                continue
            start = time.perf_counter()
            outdir = bench.save(run, f"pass{index}")
            save_ms.append(1e3 * (time.perf_counter() - start))
            if index == 0:
                start = time.perf_counter()
                run.error = bench.check_replay(outdir)
                replay_ms.append(1e3 * (time.perf_counter() - start))
            elif run.fingerprint != first.fingerprint:
                run.error = "manifest differs from pass 0"
    return {"save_suite_ms": statistics.median(save_ms or [math.nan]),
            "replay_suite_ms": statistics.median(replay_ms or [math.nan])}


def check_remote(bench: Bench, remote_runs: list[SeedRun],
                 tracer=None) -> None:
    """Each remote suite must equal a local run with the same target, seed
    and budget, byte for byte."""
    for run in remote_runs:
        local = bench.fuzz(run.seed, remote=False, tracer=tracer)
        if local.failed:
            run.error = run.error or f"local reference: {local.error}"
            continue
        bench.save(local, "local")
        if not run.failed and local.fingerprint != run.fingerprint:
            run.error = "remote manifest differs from the local run"


# -- metrics -------------------------------------------------------------------

def coverage_metrics(runs: list[SeedRun]) -> dict[str, int]:
    uids = ids = final = executions = 0
    for run in runs:
        if run.failed:
            continue
        uids += run.suite.coverage["uids_covered"]
        ids += run.suite.coverage["execution_ids_covered"]
        final += 1 + max((t.iteration for t in run.suite.tests
                          if t.new_pairs), default=0)
        executions += run.stats.total_executions
    return {"uids_covered": uids, "ids_covered": ids,
            "execs_to_final_cov": final, "executions": executions}


def median_seconds(timed: list[Pass]) -> float:
    """Each seed's median campaign time over the timed passes, in reference
    seconds, summed over seeds."""
    return sum(statistics.median(run.ref_seconds for run in runs)
               for runs in zip(*(p.runs for p in timed)))


def end_to_end(setup_s: float, timed: list[Pass], cov: dict,
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    fuzz_s = median_seconds(timed)
    return {
        "setup_s": (setup_s, "s"),
        "fuzz_s": (fuzz_s, "s"),
        "exec_per_s": (cov["executions"] / fuzz_s, "1/s"),
        "uids_covered": (cov["uids_covered"], "count"),
        "ids_covered": (cov["ids_covered"], "count"),
        "execs_to_final_cov": (cov["execs_to_final_cov"], "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def codec_probe(samples) -> Tracer:
    """Encode each sampled config and decode each sampled result frame, the
    two calls a remote client makes per execution."""
    probe = Tracer()
    encode = probe.wrap("target_abi.wire_encode", wire_encode)
    decode = probe.wrap("target_abi.wire_decode", wire_decode)
    for config, result in samples:
        encode(config)
        decode(wire_encode(result))
    return probe


def layer_metrics(workload: Workload, parse_s: float, traced: Pass, tracer,
                  minivm_tracer, saved: dict[str, float],
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced pass; ``untraced_s`` is the time
    of the untraced pass run just before it, in reference seconds.  Work that is not on this
    workload's execution path is measured on the same inputs in-process:
    the interpreter of `remote` from the traced local reference runs, the
    wire codec of `parser` and `scanner` from a probe over sampled
    configs and results."""
    runs = [r for r in traced.runs if not r.failed]
    # fuzzing time, without the host-speed probes taken inside it
    wall = sum(tracer.self_times("fuzz_loop.run", "hostspeed."))
    records = tracer.records
    samples = tracer.samples
    us = 1e6

    def share(*names: str) -> float:
        return sum(sum(tracer.self_times(n)) for n in names) / wall

    execute = minivm_tracer.durations("minivm.execute")
    minivm_share = (sum(execute) / wall if workload.remote
                    else share("minivm.execute"))
    map_trace = tracer.durations("exec_tree.map_trace")
    select_self = tracer.self_times("strategy.select_analysis")
    prune = tracer.durations("strategy.prune_targets")
    sessions = [s for r in runs for s in r.stats.sessions]
    session_calls = sum(s.calls for s in sessions)
    session_execs = sum(s.executions for s in sessions)
    descents = [s for s in sessions
                if s.kind in ("typed_minimization", "minimization")]
    calls = tracer.durations("executors.call")
    codec = tracer if workload.remote else codec_probe(samples)
    encode = codec.durations("target_abi.wire_encode")
    decode = codec.durations("target_abi.wire_decode")
    decoded_records = (records if workload.remote
                       else sum(len(r.trace) for _, r in samples))
    frame_bytes = [len(wire_encode(r)) for _, r in samples]
    return {
        "minivm.parse_ms": (1e3 * parse_s, "ms"),
        "minivm.execute.calls": (len(execute), "count"),
        "minivm.execute.us_p50": (us * percentile(execute, 0.5), "us"),
        "minivm.execute.us_p99": (us * percentile(execute, 0.99), "us"),
        "minivm.records_per_exec": (records / tracer.calls, "count"),
        "minivm.us_per_record": (us * sum(execute) / minivm_tracer.records,
                                 "us"),
        "minivm.share": (minivm_share, "ratio"),
        "exec_tree.map_trace.calls": (len(map_trace), "count"),
        "exec_tree.map_trace.us_p50": (us * percentile(map_trace, 0.5), "us"),
        "exec_tree.map_trace.us_p99": (us * percentile(map_trace, 0.99),
                                       "us"),
        "exec_tree.us_per_record": (us * sum(map_trace) / records, "us"),
        "exec_tree.nodes": (sum(r.stats.tree_nodes for r in runs), "count"),
        "exec_tree.share": (share("exec_tree.map_trace"), "ratio"),
        "strategy.select_analysis.calls": (len(select_self), "count"),
        "strategy.select_analysis.self_ms_p50": (
            1e3 * percentile(select_self, 0.5), "ms"),
        "strategy.prune_targets.calls": (len(prune), "count"),
        "strategy.prune_targets.ms_p50": (1e3 * percentile(prune, 0.5), "ms"),
        "strategy.share": (share("strategy.select_analysis",
                                 "strategy.prune_targets"), "ratio"),
        "generators.sessions": (len(sessions), "count"),
        "generators.next_input.us_p50": (
            us * percentile(tracer.durations("generators.next_input"), 0.5),
            "us"),
        "generators.feed.us_p50": (
            us * percentile(tracer.durations("generators.feed"), 0.5), "us"),
        "generators.share": (share("generators.next_input",
                                   "generators.feed"), "ratio"),
        "generators.execs_per_session": (ratio(session_execs, len(sessions)),
                                         "count"),
        "generators.session_calls": (session_calls, "count"),
        "generators.session_executions": (session_execs, "count"),
        "generators.cache_hit_ratio": (
            ratio(session_calls - session_execs, session_calls), "ratio"),
        "generators.descent_sessions": (len(descents), "count"),
        "generators.achieved_ratio": (
            ratio(sum(s.achieved for s in descents), len(descents)),
            "ratio"),
        "fuzz_loop.self_share": (share("fuzz_loop.run"), "ratio"),
        "fuzz_loop.save_suite_ms": (saved["save_suite_ms"], "ms"),
        "fuzz_loop.replay_suite_ms": (saved["replay_suite_ms"], "ms"),
        "target_abi.wire_encode.us_p50": (us * percentile(encode, 0.5), "us"),
        "target_abi.wire_decode.us_p50": (us * percentile(decode, 0.5), "us"),
        "target_abi.wire_decode.us_per_record": (
            us * sum(decode) / decoded_records, "us"),
        "target_abi.result_frame_bytes": (statistics.median(frame_bytes),
                                          "bytes"),
        "executors.call.us_p50": (us * percentile(calls, 0.5), "us"),
        "executors.call.us_p99": (us * percentile(calls, 0.99), "us"),
        "executors.wait.us_p50": (
            us * percentile(tracer.self_times("executors.call",
                                              "target_abi."), 0.5), "us"),
        "executors.share": (share("executors.call"), "ratio"),
        "trace_overhead": (traced.ref_seconds / untraced_s - 1, "ratio"),
    }


# -- the command ---------------------------------------------------------------

def measure(bench: Bench, seconds: float, trace: bool) -> int:
    workload = bench.workload
    setup_s, setup_wall_s, parse_s = bench.setup()
    start = time.perf_counter()
    timed = [bench.fuzz_pass(workload.remote)]
    passes = list(timed)
    if trace:
        tracer = Tracer()
        with tracer.patched():
            traced = bench.fuzz_pass(workload.remote, tracer)
        passes.append(traced)
    while time.perf_counter() - start < seconds:
        timed.append(bench.fuzz_pass(workload.remote))
        passes.append(timed[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    saved = check_passes(bench, passes)
    minivm_tracer = tracer if trace else None
    if workload.remote:
        if trace:
            minivm_tracer = Tracer()
            with minivm_tracer.patched():
                check_remote(bench, passes[0].runs, minivm_tracer)
        else:
            check_remote(bench, passes[0].runs)

    print(f"workload {workload.name}: {workload.target}, "
          f"{len(bench.seeds)} seeds x {workload.max_executions} executions"
          f"{' via gradfuzz serve' if workload.remote else ''}; "
          f"{len(timed)} timed passes"
          f"{' + 1 traced pass' if trace else ''}")
    for run in passes[0].runs:
        print(f"  seed {run.seed}: manifest sha256 {run.fingerprint or '-'}")
    runs = [run for p in passes for run in p.runs]
    failed = [run for run in runs if run.failed]
    for run in failed:
        print(f"  FAILED seed {run.seed}: {run.error}")
    print(f"  fail_rate = {len(failed)}/{len(runs)} = "
          f"{len(failed) / len(runs):.4f}")
    for label, values in (("wall", [p.seconds for p in timed]),
                          ("reference", [p.ref_seconds for p in timed])):
        values = sorted(values)
        print(f"  pass time, {label} s: median {statistics.median(values):.6g}"
              f", min {values[0]:.6g}, max {values[-1]:.6g}, "
              f"{len(values)} passes")
    print(f"  set-up time, wall s: median {setup_wall_s:.6g} of "
          f"{SETUP_REPEATS}")

    metrics = {}
    if not failed:
        if trace:
            metrics = layer_metrics(workload, parse_s, traced, tracer,
                                    minivm_tracer, saved,
                                    timed[0].ref_seconds)
            tracer.write(bench.out / "spans.jsonl")
        else:
            metrics = end_to_end(setup_s, timed,
                                 coverage_metrics(passes[0].runs),
                                 peak_rss_mb)
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run: the engine, the server (children inherit
    # the mask) and the speed probe all run where the probe measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        return measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
