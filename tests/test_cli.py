import json
from pathlib import Path

import pytest

from gradfuzz.cli import build_parser, main

BENCH = Path(__file__).parent.parent / "benchmarks"


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
