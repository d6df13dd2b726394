import re

import numpy as np
import pytest

from flatcl.metrics import (avg_accuracy_after_last, forgetting, intransigence,
                            summarize)

NAN = np.nan

# worked 3-task example used across several tests
MATRIX = np.array([
    [0.9, NAN, NAN],
    [0.7, 0.8, NAN],
    [0.8, 0.6, 0.9],
])


def test_avg_accuracy_hand_value():
    val = avg_accuracy_after_last(MATRIX)
    assert abs(val - (0.8 + 0.6 + 0.9) / 3) <= 1e-15


def test_avg_accuracy_single_task():
    assert avg_accuracy_after_last([[0.75]]) == 0.75


def test_forgetting_hand_values():
    # k=1: f_0 = max(a[0][0]) - a[1][0] = 0.9 - 0.7 = 0.2
    # k=2: f_0 = max(0.9, 0.7) - 0.8 = 0.1; f_1 = 0.8 - 0.6 = 0.2 -> mean 0.15
    per_step, mean = forgetting(MATRIX)
    np.testing.assert_allclose(per_step, [0.2, 0.15], atol=1e-15)
    assert abs(mean - 0.175) <= 1e-15


def test_forgetting_single_task_undefined():
    per_step, mean = forgetting([[0.9]])
    assert per_step is None and mean is None


def test_forgetting_zero_when_no_decay():
    m = np.array([[0.8, NAN], [0.8, 0.9]])
    per_step, mean = forgetting(m)
    assert per_step.tolist() == [0.0] and mean == 0.0


def test_forgetting_negative_on_backward_transfer():
    m = np.array([[0.6, NAN], [0.7, 0.9]])
    _, mean = forgetting(m)
    assert abs(mean + 0.1) <= 1e-15


def test_forgetting_uses_best_previous_not_first():
    # accuracy on task 0 dips then recovers; the max over history is 0.9
    m = np.array([
        [0.9, NAN, NAN],
        [0.5, 0.8, NAN],
        [0.7, 0.8, 0.9],
    ])
    per_step, _ = forgetting(m)
    assert abs(per_step[1] - (0.9 - 0.7) / 2) <= 1e-15


def test_intransigence_hand_values():
    per_task, mean = intransigence(MATRIX, [0.95, 0.85, 0.95])
    np.testing.assert_allclose(per_task, [0.05, 0.05, 0.05], atol=1e-15)
    assert abs(mean - 0.05) <= 1e-15


def test_intransigence_negative_when_sequential_wins():
    per_task, _ = intransigence([[0.9]], [0.8])
    assert abs(per_task[0] + 0.1) <= 1e-15


def test_intransigence_reference_length_checked():
    with pytest.raises(ValueError, match="reference"):
        intransigence(MATRIX, [0.9, 0.9])


@pytest.mark.parametrize("reference", [[0.95, True, 0.95], np.ones(3, dtype=bool)])
def test_intransigence_reference_bool_rejected(reference):
    """A JSON true is not the accuracy 1.0: a bool in the reference is
    refused by index, not scored."""
    message = r"reference accuracy \[\d\] is (np\.)?True_?, not a number"
    with pytest.raises(ValueError, match=message):
        intransigence(MATRIX, reference)


@pytest.mark.parametrize("item", ["0.85", np.float32(0.85), np.int64(1)])
def test_intransigence_reference_item_must_be_a_number(item):
    """The reference follows the rule table's number predicate: a string
    or a numpy scalar other than float64, which `np.asarray` would read as
    a number, is refused by index, as a bool is."""
    with pytest.raises(ValueError) as info:
        intransigence(MATRIX, [0.95, item, 0.95])
    assert str(info.value) == f"reference accuracy [1] is {item!r}, not a number"


def test_incomplete_matrix_rejected():
    bad = MATRIX.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"\[2\]\[0\]"):
        avg_accuracy_after_last(bad)


@pytest.mark.parametrize("value", [1.9, -0.7, 1.0 + 2 ** -52, -5e-324, np.inf, -np.inf])
def test_accuracy_outside_unit_interval_rejected(value):
    """A lower-triangle cell outside [0, 1], inf included, is refused by
    name and value, not reported as incomplete or scored."""
    bad = MATRIX.copy()
    bad[2, 1] = value
    message = f"accuracy matrix cell [2][1] is {float(value)!r}, outside [0, 1]"
    for score in (avg_accuracy_after_last, forgetting, summarize):
        with pytest.raises(ValueError, match=re.escape(message)):
            score(bad)


def test_accuracy_bounds_accepted():
    edges = np.array([[0.0, NAN], [1.0, 0.0]])
    assert avg_accuracy_after_last(edges) == 0.5
    assert forgetting(edges)[1] == -1.0


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        forgetting(np.zeros((2, 3)))


def test_upper_triangle_ignored():
    filled = MATRIX.copy()
    filled[np.isnan(filled)] = 123.0  # garbage above the diagonal
    assert avg_accuracy_after_last(filled) == avg_accuracy_after_last(MATRIX)
    np.testing.assert_array_equal(forgetting(filled)[0], forgetting(MATRIX)[0])


def test_summarize_round_trips_through_json():
    import json
    out = summarize(MATRIX, reference=[0.95, 0.85, 0.95])
    recovered = json.loads(json.dumps(out))
    assert abs(recovered["avg_accuracy_after_last"] - 23 / 30) <= 1e-12
    assert abs(recovered["forgetting"] - 0.175) <= 1e-12
    assert abs(recovered["intransigence"] - 0.05) <= 1e-12
    assert recovered["forgetting_per_step"] == pytest.approx([0.2, 0.15])


def test_summarize_without_reference_omits_intransigence():
    out = summarize(MATRIX)
    assert "intransigence" not in out
    assert out["forgetting"] is not None
