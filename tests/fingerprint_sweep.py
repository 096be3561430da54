"""Byte-identity sweep: one line per campaign with the sha256 of the
``manifest.json`` and ``stats.json`` it saves.

Runs the checkout this file sits in, over the 100 generated programs of
``test_robustness.gen_program`` under their robustness limits, and every
target under ``benchmarks/`` and ``bench/targets/`` and in
``test_fuzz_loop.LITERAL_TARGETS`` under the default limits; each at
(seed, fill byte) (1, 0), (2, 0) and (1, 85), with 2,000 executions.  A
change that is meant to keep results byte-identical prints the same
lines as its parent:

    python tests/fingerprint_sweep.py > after.txt
    git archive <parent> | tar -x -C parent
    python parent/tests/fingerprint_sweep.py > before.txt
    diff before.txt after.txt

The script is not a test module, so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from gradfuzz.fuzz_loop import (  # noqa: E402
    FuzzBudget,
    FuzzOptions,
    run_fuzzing,
    save_suite,
)
from gradfuzz.minivm import VmLimits, parse_program  # noqa: E402
from test_fuzz_loop import LITERAL_TARGETS  # noqa: E402
from test_robustness import gen_program  # noqa: E402

GENERATED_LIMITS = VmLimits(max_trace_length=150, max_stack_size=32,
                            max_input_bytes=48, step_budget=50_000)
RUNS = ((1, 0), (2, 0), (1, 85))
EXECUTIONS = 2000


def campaigns():
    """(name, source, limits) of every swept target."""
    for n in range(100):
        yield f"gen_program({n})", gen_program(n), GENERATED_LIMITS
    for directory in (ROOT / "benchmarks", ROOT / "bench" / "targets"):
        for path in sorted(directory.glob("*.mc")):
            yield path.name, path.read_text(), VmLimits()
    for name, source in LITERAL_TARGETS.items():
        yield name, source, VmLimits()


def fingerprint(source: str, limits: VmLimits, seed: int,
                fill: int) -> tuple[str, str]:
    options = FuzzOptions(limits=limits, seed=seed, fill_byte=fill)
    suite, stats = run_fuzzing(parse_program(source),
                               FuzzBudget(max_executions=EXECUTIONS), options)
    with tempfile.TemporaryDirectory() as outdir:
        save_suite(Path(outdir), suite, stats, options)
        return tuple(hashlib.sha256((Path(outdir) / name).read_bytes())
                     .hexdigest() for name in ("manifest.json", "stats.json"))


def main() -> None:
    for name, source, limits in campaigns():
        for seed, fill in RUNS:
            manifest, stats = fingerprint(source, limits, seed, fill)
            print(name, seed, fill, manifest, stats, flush=True)


if __name__ == "__main__":
    main()
