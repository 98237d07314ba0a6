import pytest

import calibrate


def test_a_time_measured_in_a_slow_spell_is_scaled_down_by_the_spell():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(3.0, [ref, ref]) == pytest.approx(3.0)
    assert calibrate.scaled(3.0, [1.5 * ref] * 3) == pytest.approx(2.0)
    # Two probes, one on either side of a sample, count equally.
    assert calibrate.scaled(3.0, [ref, 2.0 * ref]) == pytest.approx(2.0)
    # Over a run the median probe counts, so one outlying probe does not.
    assert calibrate.scaled(3.0, [1.5 * ref, 1.5 * ref, 9.0 * ref]) == pytest.approx(2.0)


def test_a_sample_that_follows_the_probe_in_part_is_scaled_in_part():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(3.0, [4.0 * ref], elasticity=0.5) == pytest.approx(1.5)
    assert calibrate.scaled(3.0, [4.0 * ref], elasticity=0.0) == pytest.approx(3.0)


def test_probe_times_the_fixed_kernel():
    first = calibrate._kernel()
    assert calibrate._kernel() == first  # the same work every time
    assert calibrate.probe() > 0.0
