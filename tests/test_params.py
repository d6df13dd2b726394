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
    """Whole-set arithmetic is one vector expression on `flat`, read back
    through the names."""
    ps = _ps()
    assert ps.unflatten(ps.flat + ps.flat)["a"].tolist() == [2.0, 4.0]
    assert ps.unflatten(ps.flat * 2.0)["b"].tolist() == [[6.0], [8.0]]


def test_misalignment_rejected_with_context():
    ps = _ps()
    other = ParameterSet({"a": [1.0, 2.0]})
    with pytest.raises(ValueError, match="somewhere"):
        ps.require_aligned(other, "somewhere")


def test_shape_mismatch_not_aligned():
    a = ParameterSet({"w": np.zeros(3)})
    b = ParameterSet({"w": np.zeros(4)})
    assert not a.aligned_with(b)


def test_views_write_through_one_buffer():
    ps = _ps()
    ps["b"][0, 0] = 7.0
    ps["a"][...] = [5.0, 6.0]
    assert ps.flat.tolist() == [5.0, 6.0, 7.0, 4.0]
    ps.flat[1] = -1.0
    assert ps["a"].tolist() == [5.0, -1.0]
    assert np.shares_memory(ps.unflatten(ps.flat)["b"], ps.flat)
    with pytest.raises(KeyError):
        ps["c"][...] = [1.0]


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



@pytest.mark.parametrize("call,error", [
    (lambda: ParameterSet([("a", np.zeros(2)), ("a", np.zeros(2))]),
     "duplicate parameter names in ['a', 'a']"),
    (lambda: ParameterSet({"a": np.zeros(4)}).unflatten(np.zeros(3)),
     "flat vector of shape (3,) does not match total size 4"),
], ids=["duplicate-names", "flat-misfit"])
def test_parameter_set_refuses_with_one_line(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == error
