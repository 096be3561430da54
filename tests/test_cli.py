import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from gradfuzz.cli import build_parser, main
from gradfuzz.executors import TargetServer
from gradfuzz.minivm import VmLimits, parse_program
from helpers import HEADER_TARGET

BENCH = Path(__file__).parent.parent / "benchmarks"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_fuzz_then_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["fuzz", "-t", str(BENCH / "magic_equal.mc"),
                 "-o", str(out), "--seed", "1", "--max-executions", "1000"])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "stats.json").exists()
    assert list((out / "tests").glob("test_*.txt"))
    code = main(["replay", "-t", str(BENCH / "magic_equal.mc"),
                 "-s", str(out)])
    assert code == 0
    assert "replay ok" in capsys.readouterr().out


def test_replay_against_wrong_target_fails(tmp_path, capsys):
    out = tmp_path / "out"
    main(["fuzz", "-t", str(BENCH / "sensitivity_pair.mc"), "-o", str(out),
          "--seed", "2", "--max-executions", "200"])
    code = main(["replay", "-t", str(BENCH / "xor_mask.mc"),
                 "-s", str(out)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_report_prints_summary(tmp_path, capsys):
    out = tmp_path / "out"
    main(["fuzz", "-t", str(BENCH / "xor_mask.mc"), "-o", str(out),
          "--seed", "3", "--max-executions", "500"])
    capsys.readouterr()
    assert main(["report", "-s", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "instructions:" in printed
    assert "seed:            3" in printed


def test_fuzz_and_report_count_memo_hits(tmp_path, capsys):
    target = tmp_path / "header.mc"
    target.write_text(HEADER_TARGET)
    out = tmp_path / "out"
    assert main(["fuzz", "-t", str(target), "-o", str(out),
                 "--seed", "5", "--max-executions", "2000"]) == 0
    hits = json.loads((out / "stats.json").read_text())["memo_hits"]
    assert hits > 0
    assert (f"executions, {hits} of them answered from the read-prefix "
            f"memo") in capsys.readouterr().out
    assert main(["report", "-s", str(out)]) == 0
    assert f"memo hits:       {hits}\n" in capsys.readouterr().out


def test_report_reads_stats_without_memo_hits(tmp_path, capsys):
    # a stats.json written before the memo existed: every input ran
    out = _fuzzed_suite(tmp_path)
    stats = json.loads((out / "stats.json").read_text())
    del stats["memo_hits"]
    (out / "stats.json").write_text(json.dumps(stats))
    capsys.readouterr()
    assert main(["report", "-s", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "memo hits:       0\n" in printed
    assert "instructions:" in printed


def test_missing_target_exits_with_message(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "-t", str(tmp_path / "nope.mc"), "-o",
              str(tmp_path / "out")])
    assert "nope.mc" in str(exc.value)


def test_bad_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--definitely-not-a-flag"])
    assert exc.value.code != 0


def test_parse_error_reported(tmp_path):
    target = tmp_path / "broken.mc"
    target.write_text("int main() { return 0;")
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "-t", str(target), "-o", str(tmp_path / "out")])
    assert "broken.mc" in str(exc.value)


def test_stats_echo_seed_and_test_values(tmp_path):
    out = tmp_path / "out"
    main(["fuzz", "-t", str(BENCH / "magic_equal.mc"), "-o", str(out),
          "--seed", "17", "--max-executions", "500"])
    stats = json.loads((out / "stats.json").read_text())
    assert stats["seed"] == 17
    crash_files = [
        path for path in (out / "tests").iterdir()
        if "SINT32 1000000" in path.read_text()
    ]
    assert crash_files  # the magic value rendered as a typed test line


@pytest.mark.parametrize("command, limits", [
    (["fuzz", "-t", "x.mc", "-o", "out"], (10_000, 256, 4_096, 10_000_000)),
    # serve admits the optimizer's extended configs
    (["serve", "-t", "x.mc"], (320_000, 1_024, 16_384, 320_000_000)),
])
def test_default_limits(command, limits):
    args = build_parser().parse_args(command)
    assert (args.max_trace_length, args.max_stack_size, args.max_input_bytes,
            args.step_budget) == limits


def run_cli(*args):
    """``python -m gradfuzz.cli`` in a fresh interpreter, as a user runs
    it, so that an uncaught exception shows as a traceback on stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "gradfuzz.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def assert_error_exit(done, reason):
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: "), done.stderr
    assert reason in done.stderr


def test_refused_remote_connection_exits_with_message(tmp_path):
    done = run_cli("fuzz", "-t", str(BENCH / "magic_equal.mc"),
                   "-o", str(tmp_path / "out"), "--remote", "127.0.0.1:1")
    assert_error_exit(done, "cannot connect")


def test_config_above_the_servers_cap_exits_with_message(tmp_path):
    target = BENCH / "magic_equal.mc"
    server = TargetServer(parse_program(target.read_text()), VmLimits())
    server.start()
    host, port = server.address
    try:
        done = run_cli("fuzz", "-t", str(target), "-o", str(tmp_path / "out"),
                       "--remote", f"{host}:{port}",
                       "--max-trace-length", "20000")
    finally:
        server.stop()
    assert_error_exit(done, "max_trace_length")


@pytest.mark.parametrize("command", ["fuzz", "serve"])
@pytest.mark.parametrize("flag, value", [("--step-budget", "0"),
                                         ("--max-input-bytes", "-5")])
def test_non_positive_limit_exits_with_message(tmp_path, command, flag,
                                               value):
    out = ["-o", str(tmp_path / "out")] if command == "fuzz" else []
    done = run_cli(command, "-t", str(BENCH / "magic_equal.mc"), *out,
                   flag, value)
    assert_error_exit(done, flag[2:].replace("-", "_") + " must be positive")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("endpoint", ["nonsense", "127.0.0.1:99999"])
def test_bad_remote_endpoint_exits_with_message(tmp_path, endpoint):
    # 99999 must not wrap round to port 34463 (99999 mod 65536)
    done = run_cli("fuzz", "-t", str(BENCH / "magic_equal.mc"),
                   "-o", str(tmp_path / "out"), "--remote", endpoint)
    assert_error_exit(done, f"bad endpoint '{endpoint}': the port must be "
                            f"an integer from 1 to 65535")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, reason", [
    ("--max-executions", "0", "max_executions must be at least 1"),
    ("--max-executions", "-3", "max_executions must be at least 1"),
    ("--max-seconds", "-1", "max_seconds must not be negative"),
    # now + nan is a deadline never reached: the run would end only at
    # --max-executions
    ("--max-seconds", "nan", "max_seconds must be a number, not nan"),
])
def test_non_positive_budget_exits_with_message(tmp_path, flag, value,
                                                reason):
    done = run_cli("fuzz", "-t", str(BENCH / "magic_equal.mc"),
                   "-o", str(tmp_path / "out"), flag, value)
    assert_error_exit(done, reason)
    assert not (tmp_path / "out").exists()


def test_output_path_that_is_a_file_exits_before_fuzzing(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    done = run_cli("fuzz", "-t", str(BENCH / "magic_equal.mc"),
                   "-o", str(taken), "--max-executions", "5")
    assert_error_exit(done, f"cannot write the suite to {taken}")
    assert taken.read_text() == "keep me\n"


def _fuzzed_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["fuzz", "-t", str(BENCH / "magic_equal.mc"), "-o", str(out),
                 "--seed", "1", "--max-executions", "50"]) == 0
    return out


def test_report_of_a_suite_without_manifest_exits_with_message(tmp_path):
    out = _fuzzed_suite(tmp_path)
    (out / "manifest.json").unlink()
    done = run_cli("report", "-s", str(out))
    assert_error_exit(done, "manifest.json")


def test_replay_of_a_manifest_with_bad_limits_exits_with_message(tmp_path):
    out = _fuzzed_suite(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["limits"]["step_budget"] = 0
    (out / "manifest.json").write_text(json.dumps(manifest))
    done = run_cli("replay", "-t", str(BENCH / "magic_equal.mc"),
                   "-s", str(out))
    assert_error_exit(done, "step_budget must be positive")


def test_report_of_a_suite_with_bad_stats_exits_with_message(tmp_path):
    out = _fuzzed_suite(tmp_path)
    (out / "stats.json").write_text("{")
    done = run_cli("report", "-s", str(out))
    assert_error_exit(done, f"bad stats document {out / 'stats.json'}")


@pytest.mark.parametrize("document, text, reason", [
    ("stats.json", "[]", "bad stats document {out}/stats.json: list "
                         "indices must be integers"),
    ("stats.json", '{"seed": 1}', "bad stats document {out}/stats.json: "
                                  "no 'iterations' entry"),
    ("manifest.json", "{}", "bad manifest in {out}: no 'coverage' entry"),
], ids=["stats_list", "stats_seed_only", "empty_manifest"])
def test_report_of_a_document_of_the_wrong_shape_exits_with_message(
        tmp_path, document, text, reason):
    out = _fuzzed_suite(tmp_path)
    (out / document).write_text(text)
    done = run_cli("report", "-s", str(out))
    assert_error_exit(done, reason.format(out=out))
    # nothing is printed before the document is found bad
    assert done.stdout == ""


@pytest.mark.parametrize("edit, reason", [
    (lambda manifest: {key: value for key, value in manifest.items()
                       if key != "limits"}, "no 'limits' entry"),
    (lambda manifest: [manifest], "list indices must be integers"),
], ids=["without_limits", "list_at_top"])
def test_replay_of_a_manifest_of_the_wrong_shape_exits_with_message(
        tmp_path, edit, reason):
    out = _fuzzed_suite(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(edit(manifest)))
    done = run_cli("replay", "-t", str(BENCH / "magic_equal.mc"),
                   "-s", str(out))
    assert_error_exit(done, f"bad manifest in {out}: {reason}")


def test_serve_on_a_port_out_of_range_exits_with_message():
    done = run_cli("serve", "-t", str(BENCH / "magic_equal.mc"),
                   "--port", "70000")
    assert_error_exit(done, "cannot serve on 127.0.0.1:70000")


def test_serve_on_a_busy_port_exits_with_message():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        done = run_cli("serve", "-t", str(BENCH / "magic_equal.mc"),
                       "--port", str(port))
    assert_error_exit(done, f"cannot serve on 127.0.0.1:{port}")
