"""The speed probe: readings, reference seconds and the script launcher."""

import json
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
from hostspeed import Reading, SpeedProbe

REF = hostspeed.REFERENCE_CHUNK_S


def test_speed_is_the_reference_over_the_mean_uninterrupted_chunk():
    # The 50x chunk is past OUTLIER_FACTOR times the median and is left out.
    reading = Reading((REF, 2 * REF, REF, 2 * REF, 50 * REF), spent_s=0.0)
    assert reading.speed() == pytest.approx(1 / 1.5)


def test_scaled_drops_the_probe_samples_and_rescales_the_rest():
    assert Reading((2 * REF,), spent_s=0.1).scaled(1.1) == pytest.approx(0.5)
    assert Reading((REF,), spent_s=0.0).scaled(0.3) == pytest.approx(0.3)


def test_an_interval_is_the_difference_of_two_readings():
    earlier = Reading((1.0, 2.0), spent_s=4.0)
    later = Reading((1.0, 2.0, 3.0), spent_s=7.5)
    assert later - earlier == Reading((3.0,), spent_s=3.5)


def test_a_reading_without_samples_has_no_speed():
    with pytest.raises(ValueError):
        Reading().speed()


def test_a_reading_round_trips_through_its_dict():
    reading = Reading((0.25, 0.5), spent_s=1.0)
    assert Reading.from_dict(reading.to_dict()) == reading


def test_a_probe_samples_while_started_and_puts_everything_back():
    handler = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        busy_until = time.process_time() + 0.2
        while time.process_time() < busy_until:
            pass
    samples = probe.reading().samples
    assert samples >= 5
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    time.sleep(0.05)
    assert probe.reading().samples == samples


def test_the_launcher_runs_a_script_probed_and_keeps_its_exit(tmp_path):
    script = tmp_path / "busy.py"
    script.write_text(
        "import sys, time\n"
        "busy_until = time.process_time() + 0.2\n"
        "while time.process_time() < busy_until:\n"
        "    pass\n"
        "print(sys.argv[1:])\n"
        "sys.exit(3)\n")
    proc = subprocess.run(
        [sys.executable, hostspeed.__file__, str(script), "a", "b"],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 3
    assert proc.stdout == "['a', 'b']\n"
    reading = Reading.from_dict(
        json.loads(proc.stderr.splitlines()[-1])["probe"])
    assert reading.samples >= 5 and reading.speed() > 0
