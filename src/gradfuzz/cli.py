"""Command-line frontend: fuzz a target, replay a suite, print reports,
or serve a target over TCP for a remote engine.

Only ``fuzz`` and ``replay`` import the engine (``fuzz_loop`` and the
tree, strategy and generators under it), inside their handlers:
``serve`` loads the interpreter and the wire codec alone, and ``report``
reads two JSON documents."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .executors import RemoteExecutor, TargetServer, TransportError
from .minivm import ParseError, VmLimits, optimizer_limits, parse_program


def _add_limit_args(parser: argparse.ArgumentParser,
                    defaults: VmLimits) -> None:
    for name, value in asdict(defaults).items():
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=value)


def _limits(args) -> VmLimits:
    try:
        return VmLimits(**{f.name: getattr(args, f.name)
                           for f in fields(VmLimits)})
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _load_target(path: str):
    target = Path(path)
    if not target.exists():
        raise SystemExit(f"error: target not found: {target}")
    try:
        return parse_program(target.read_text(encoding="utf-8"))
    except ParseError as exc:
        raise SystemExit(f"error: {target}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradfuzz",
        description="Coverage-guided fuzzing of .mc targets via gradient "
                    "descent on branching values.")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="fuzz a target and write a suite")
    fuzz.add_argument("-t", "--target", required=True)
    fuzz.add_argument("-o", "--out", required=True)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-executions", type=int, default=10_000)
    fuzz.add_argument("--max-seconds", type=float, default=None)
    fuzz.add_argument("--fill-byte", type=int, choices=(0, 85), default=0)
    fuzz.add_argument("--remote", default=None, metavar="HOST:PORT",
                      help="execute via a serving process instead of "
                           "in-process")
    _add_limit_args(fuzz, VmLimits())

    replay = sub.add_parser("replay",
                            help="re-execute a suite and verify its manifest")
    replay.add_argument("-t", "--target", required=True)
    replay.add_argument("-s", "--suite", required=True)

    report = sub.add_parser("report", help="print a stats summary")
    report.add_argument("-s", "--suite", required=True)

    serve = sub.add_parser("serve", help="serve a target for remote fuzzing")
    serve.add_argument("-t", "--target", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    # default caps admit the optimizer's extended configs
    _add_limit_args(serve, optimizer_limits(VmLimits()))
    return parser


def cmd_fuzz(args) -> int:
    from .fuzz_loop import FuzzBudget, FuzzOptions, run_fuzzing, save_suite

    program = _load_target(args.target)
    options = FuzzOptions(limits=_limits(args), fill_byte=args.fill_byte,
                          seed=args.seed)
    try:
        budget = FuzzBudget(max_executions=args.max_executions,
                            max_seconds=args.max_seconds)
        executor = RemoteExecutor(args.remote) if args.remote else None
    except (ValueError, TransportError) as exc:
        raise SystemExit(f"error: {exc}")
    try:
        # made before fuzzing, so a path that cannot hold the suite does
        # not cost the campaign
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        if executor is not None:
            executor.close()
        raise SystemExit(f"error: cannot write the suite to {args.out}: "
                         f"{exc}")
    try:
        suite, stats = run_fuzzing(program, budget, options,
                                   executor=executor)
    except TransportError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if executor is not None:
            executor.close()
    save_suite(args.out, suite, stats, options)
    cov = suite.coverage
    print(f"{len(suite.tests)} tests -> {args.out}")
    print(f"covered {cov['uids_covered']}/{cov['uids_discovered']} "
          f"instructions, {cov['execution_ids_covered']}/"
          f"{cov['execution_ids_discovered']} execution ids, "
          f"{stats.total_executions} executions, {stats.memo_hits} of "
          f"them answered from the read-prefix memo")
    return 0


def _why(exc: Exception) -> str:
    """Why a JSON document of the wrong shape could not be read."""
    if isinstance(exc, KeyError):
        return f"no {exc} entry"
    return str(exc)


# what reading a document that is not JSON, or JSON of the wrong shape
# (a missing entry, a list where an object belongs, a value of the wrong
# kind), raises
_BAD_DOCUMENT = (ValueError, KeyError, TypeError, AttributeError)


def cmd_replay(args) -> int:
    from .fuzz_loop import replay_suite

    program = _load_target(args.target)
    try:
        ok, divergence = replay_suite(program, args.suite)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except _BAD_DOCUMENT as exc:
        raise SystemExit(f"error: bad manifest in {args.suite}: {_why(exc)}")
    if ok:
        print("replay ok")
        return 0
    print(f"replay diverged: {divergence}", file=sys.stderr)
    return 1


def cmd_report(args) -> int:
    stats_path = Path(args.suite) / "stats.json"
    if not stats_path.exists():
        raise SystemExit(f"error: no stats document at {stats_path}")
    # every entry is read before a line is printed, so a document of the
    # wrong shape ends in an error line, not in half a report
    try:
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        lines = [f"seed:            {stats['seed']}",
                 f"iterations:      {stats['iterations']}"]
        executions = stats["executions"]
        lines.append(f"executions:      {executions['total']}")
        lines += [f"  {kind:<20} {count}"
                  for kind, count in executions.items()
                  if kind != "total" and count]
        # a stats.json written before the memo existed has no count: it
        # ran every input
        lines.append(f"memo hits:       {stats.get('memo_hits', 0)}")
        lines.append(f"tree nodes:      {stats['tree_nodes']}")
        terminations = [f"  {kind:<30} {count}"
                        for kind, count in stats["terminations"].items()
                        if count]
    except _BAD_DOCUMENT as exc:
        raise SystemExit(f"error: bad stats document {stats_path}: "
                         f"{_why(exc)}")
    try:
        manifest = json.loads((Path(args.suite) / "manifest.json")
                              .read_text(encoding="utf-8"))
        cov = manifest["coverage"]
        lines += [f"instructions:    {cov['uids_covered']}/"
                  f"{cov['uids_discovered']} covered",
                  f"execution ids:   {cov['execution_ids_covered']}/"
                  f"{cov['execution_ids_discovered']} covered",
                  "terminations:", *terminations,
                  f"tests:           {len(manifest['tests'])}"]
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except _BAD_DOCUMENT as exc:
        raise SystemExit(f"error: bad manifest in {args.suite}: {_why(exc)}")
    print("\n".join(lines))
    return 0


def cmd_serve(args) -> int:
    program = _load_target(args.target)
    try:
        server = TargetServer(program, _limits(args), args.host, args.port)
    except (OverflowError, OSError) as exc:  # a port out of range, or busy
        raise SystemExit(f"error: cannot serve on {args.host}:{args.port}: "
                         f"{exc}")
    host, port = server.address
    print(f"serving {args.target} on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"fuzz": cmd_fuzz, "replay": cmd_replay,
                "report": cmd_report, "serve": cmd_serve}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
