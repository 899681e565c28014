"""tools/pairs.py's summary of alternated benchmark pairs, on fixed numbers."""

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()


def test_quartiles_interpolate_inclusively():
    assert pairs.quartiles([13, 10, 12, 11]) == (10.75, 11.5, 12.25)
    assert pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_summarize_counts_strict_wins_in_the_better_direction():
    runs = [(10, 9), (11, 10), (12, 12), (13, 11)]
    lower = pairs.summarize(runs, "lower")
    assert lower["pairs"] == 4 and lower["wins"] == 3
    assert lower["parent"] == (10.75, 11.5, 12.25)
    assert lower["change"] == (9.75, 10.5, 11.25)
    assert lower["delta"] == pytest.approx(-1 / 11.5)
    assert lower["gap_over_iqr"] == pytest.approx(1 / 1.5)
    higher = pairs.summarize(runs, "higher")
    assert higher["wins"] == 0 and higher["parent"] == lower["parent"]
    # One pair: no spread, so any gap is infinitely many ranges.
    one = pairs.summarize([(2.0, 3.0)], "higher")
    assert one["wins"] == 1 and one["delta"] == 0.5 and math.isinf(one["gap_over_iqr"])
    assert pairs.summarize([(2.0, 2.0)], "lower")["gap_over_iqr"] == 0.0
    with pytest.raises(ValueError, match="better must be lower or higher"):
        pairs.summarize(runs, "up")


def test_read_result_takes_the_last_line_and_rows_format():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_ms_p50": {"value": 0.0153, "unit": "ms"}}}
    stdout = '{"provenance": {}}\n' + json.dumps(result) + "\n"
    assert pairs.read_result(stdout) == result
    with pytest.raises(ValueError, match="printed nothing"):
        pairs.read_result("\n")
    summary = pairs.summarize([(10, 9), (11, 10), (12, 12), (13, 11)], "lower")
    assert pairs.format_row("op_ms_p50", "lower", summary).split() == [
        "op_ms_p50", "lower", "11.5", "[10.75,", "12.25]", "10.5", "[9.75,", "11.25]",
        "-8.70%", "0.67", "3/4",
    ]
    assert pairs.HEADER.split()[:2] == ["metric", "better"]


def test_sigterm_stops_the_running_benchmark(tmp_path):
    # A stand-in checkout whose run.py records its pid and sleeps.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [{"name": "w"}], "end_to_end": []}')
    pid_file = tmp_path / "pid"
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\ntime.sleep(60)\n"
    )
    tool = subprocess.Popen(
        [sys.executable, str(TOOL), str(tmp_path), str(tmp_path), "--pairs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline and tool.poll() is None
            time.sleep(0.05)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) != 0
    finally:
        tool.kill()
        tool.wait()
    # subprocess.run killed and reaped the benchmark run before the tool exited.
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
