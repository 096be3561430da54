"""Byte-identity sweep: one line per campaign with the sha256 of the
``manifest.json`` and ``stats.json`` it saves, the number of (uid,
direction) pairs its suite covers and a short digest of their sorted
list.

Runs the checkout this file sits in, over the 100 generated programs of
``test_robustness.gen_program`` under their robustness limits, every
target under ``benchmarks/`` and ``bench/targets/`` under the default
limits, and every target in ``test_fuzz_loop.LITERAL_TARGETS`` under
the limits its fingerprint pins share (``LITERAL_LIMITS``, else the
default limits); each at (seed, fill byte) (1, 0), (2, 0) and (1, 85),
with 2,000 executions.  A change that is meant to keep results
byte-identical prints the same lines as its parent.  Copy this script
into the parent's tree, so both sides print the same columns:

    python tests/fingerprint_sweep.py > after.txt
    git archive <parent> | tar -x -C parent
    cp tests/fingerprint_sweep.py parent/tests/
    python parent/tests/fingerprint_sweep.py > before.txt
    diff before.txt after.txt

A change meant to alter behaviour but no coverage moves hashes only:
the last two columns stay the same on every line.

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
from gradfuzz.exec_tree import uid_pairs  # noqa: E402
from gradfuzz.minivm import VmLimits, parse_program  # noqa: E402
from test_fuzz_loop import (  # noqa: E402
    GENERATED_LIMITS,
    LITERAL_LIMITS,
    LITERAL_TARGETS,
)
from test_robustness import gen_program  # noqa: E402

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
        yield name, source, LITERAL_LIMITS.get(name, VmLimits())


def fingerprint(source: str, limits: VmLimits, seed: int,
                fill: int) -> tuple[str, str, int, str]:
    """(manifest sha256, stats sha256, covered pair count, pair digest)."""
    options = FuzzOptions(limits=limits, seed=seed, fill_byte=fill)
    suite, stats = run_fuzzing(parse_program(source),
                               FuzzBudget(max_executions=EXECUTIONS), options)
    pairs = uid_pairs(pair for test in suite.tests for pair in test.id_pairs)
    with tempfile.TemporaryDirectory() as outdir:
        save_suite(Path(outdir), suite, stats, options)
        manifest, stats_json = (
            hashlib.sha256((Path(outdir) / name).read_bytes()).hexdigest()
            for name in ("manifest.json", "stats.json"))
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()[:12]
    return manifest, stats_json, len(pairs), digest


def main() -> None:
    for name, source, limits in campaigns():
        for seed, fill in RUNS:
            print(name, seed, fill, *fingerprint(source, limits, seed, fill),
                  flush=True)


if __name__ == "__main__":
    main()
