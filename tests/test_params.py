import numpy as np
import pytest

from flatcl.params import ParameterSet


def _ps():
    return ParameterSet({"a": [1.0, 2.0], "b": [[3.0], [4.0]]})


def test_construction_casts_to_float64():
    ps = ParameterSet({"a": [1, 2]})
    assert ps["a"].dtype == np.float64


def test_order_preserved():
    ps = ParameterSet([("z", [1.0]), ("a", [2.0])])
    assert ps.names() == ["z", "a"]


def test_copy_is_independent():
    ps = _ps()
    cp = ps.copy()
    cp["a"][0] = 99.0
    assert ps["a"][0] == 1.0


def test_flatten_and_sizes():
    ps = _ps()
    assert ps.total_size() == 4
    assert ps.flatten().tolist() == [1.0, 2.0, 3.0, 4.0]
    assert ParameterSet().flatten().tolist() == []


def test_norm():
    ps = _ps()
    assert abs(ps.norm() - np.sqrt(30)) <= 1e-15


def test_arithmetic():
    ps = _ps()
    assert ps.add(ps)["a"].tolist() == [2.0, 4.0]
    assert ps.scale(2.0)["a"].tolist() == [2.0, 4.0]
    assert ps.scale(2.0)["b"].tolist() == [[6.0], [8.0]]


def test_misalignment_rejected_with_context():
    ps = _ps()
    other = ParameterSet({"a": [1.0, 2.0]})
    with pytest.raises(ValueError, match="somewhere"):
        ps.require_aligned(other, "somewhere")
    with pytest.raises(ValueError):
        ps.add(other)


def test_shape_mismatch_not_aligned():
    a = ParameterSet({"w": np.zeros(3)})
    b = ParameterSet({"w": np.zeros(4)})
    assert not a.aligned_with(b)


def test_views_write_through_one_buffer():
    ps = _ps()
    ps["b"][0, 0] = 7.0
    ps["a"] = [5.0, 6.0]
    assert ps.flat.tolist() == [5.0, 6.0, 7.0, 4.0]
    ps.flat[1] = -1.0
    assert ps["a"].tolist() == [5.0, -1.0]
    assert np.shares_memory(ps.unflatten(ps.flat)["b"], ps.flat)
    with pytest.raises(KeyError):
        ps["c"] = [1.0]


def test_prefix_rule():
    ps = _ps()
    head = ps.prefix(["a"])
    assert head.tolist() == [1.0, 2.0]
    head += 1.0
    assert ps["a"].tolist() == [2.0, 3.0]
    assert ps.prefix([]).size == 0 and ps.prefix(["a", "b"]).size == 4
    for names in (["b"], ["b", "a"], ["a", "c"]):
        with pytest.raises(ValueError, match="prefix"):
            ps.prefix(names)

