"""tools/bench_pairs.py's verdict on synthetic paired figures."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_a_change_better_in_2_of_10_pairs_is_no_change_even_past_the_spread():
    """A per-layer span that moved in traced pairs though its code did not:
    `checkpoint.load_checkpoint.busy_s` 0.592 -> 0.634 ms, the change better
    in 2 of 10 pairs and the medians' gap past the parent's spread."""
    parent = [0.590, 0.591, 0.592, 0.593, 0.594, 0.592, 0.591, 0.593, 0.700, 0.710]
    change = [0.630, 0.632, 0.634, 0.636, 0.638, 0.634, 0.633, 0.635, 0.600, 0.605]
    fig = _tool().summarize([v * 1e-3 for v in parent], [v * 1e-3 for v in change], False)
    assert fig["change_better"] == 2
    assert fig["gap_exceeds_parent_spread"]
    assert fig["verdict"] == "no change"


@pytest.mark.parametrize("change, higher_is_better, bound, verdict", [
    # lower is better: better in 10 of 10, the gap past the spread
    ([v - 0.5 for v in PARENT], False, None, "gain"),
    ([v - 0.5 for v in PARENT], False, 0.25, "gain"),
    # higher is better: the same figures are a loss
    ([v - 0.5 for v in PARENT], True, None, "worse"),
    ([v + 0.5 for v in PARENT], True, None, "gain"),
    # better in 10 of 10, but the gap inside the parent's quartile spread
    ([v - 0.001 for v in PARENT], False, None, "no change"),
    # better in 8 of 10 with two ties, the gap past the spread: ties count for neither
    ([v - 0.5 for v in PARENT[:8]] + PARENT[8:], False, None, "no change"),
    # the parent better in 9 of 10, the gap past the spread
    ([v + 0.5 for v in PARENT[:9]] + [PARENT[9] - 0.5], False, None, "worse"),
    # mixed pairs, but a 14% rise of the median past an end-to-end bound of 10%
    ([v * 1.3 if i % 2 else v * 0.99 for i, v in enumerate(PARENT)], False, 0.1, "worse"),
    ([v * 1.3 if i % 2 else v * 0.99 for i, v in enumerate(PARENT)], False, None, "no change"),
])
def test_verdict(change, higher_is_better, bound, verdict):
    assert _tool().summarize(PARENT, change, higher_is_better, bound)["verdict"] == verdict
