"""Tests of the speed probe that scales the benchmark's times.

Run with: python3 -m pytest bench
"""

import subprocess
import sys

import pytest

from run import SPEED_REF_S, SpeedProbe, Watch


def test_probe_samples_a_child_and_lets_it_finish():
    probe = SpeedProbe()
    try:
        child = "import time; time.sleep(0.35); print('done')"
        proc = subprocess.Popen([sys.executable, "-c", child], stdout=subprocess.PIPE)
        with probe.watching(proc.pid) as watch:
            out = proc.stdout.read()
        assert proc.wait(timeout=10) == 0
        proc.stdout.close()
    finally:
        probe.close()
    assert out.strip() == b"done"
    assert len(watch.samples) >= 2
    assert watch.paused >= sum(watch.samples)


def test_scale_is_the_mean_speed_over_the_reference():
    assert Watch([SPEED_REF_S] * 3).scale() == pytest.approx(1.0)
    assert Watch([2 * SPEED_REF_S]).scale() == pytest.approx(0.5)
    assert Watch([SPEED_REF_S, SPEED_REF_S / 3]).scale() == pytest.approx(2.0)
