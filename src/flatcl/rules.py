"""The value rules every input shares, the one rule of labels and the library's
one seeded generator.  A leaf, importing no other flatcl module, so every module
imports it at the top."""

import sys

import numpy as np


def _number(v) -> bool:
    # bool is an int subclass; a JSON true is not the number 1
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return _number(v) and isinstance(v, int)


_BIG = sys.float_info.max  # a larger number is inf, or an int no float holds

# Every value rule a config key, a CLI flag or a generator argument shares:
# the ordered (phrase, predicate) steps `check` applies.  The empty rule
# leaves the value to the code that reads it.
RULES = {
    "": (),
    "count": (("an integer >= 1", lambda v: _integer(v) and v >= 1),),
    "offset": (("an integer", _integer), (">= 0", lambda v: v >= 0)),
    "seed": (("an integer >= 0", lambda v: _integer(v) and v >= 0),),
    "flag": (("true or false", lambda v: isinstance(v, bool)),),
    "finite": (("a finite number", lambda v: _number(v) and abs(v) <= _BIG),),
    "positive": (("a finite number > 0", lambda v: _number(v) and 0 < v <= _BIG),),
    "nonnegative": (("a finite number >= 0", lambda v: _number(v) and 0 <= v <= _BIG),),
    "unit": (("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1),),
    "fraction": (("a number in (0, 1]", lambda v: _number(v) and 0 < v <= 1),),
}


def check(rule: str, value, name: str):
    """Raise a one-line ValueError, `{name} must be {phrase}, got
    {value!r}`, at the first step of `RULES[rule]` that `value` fails."""
    for phrase, ok in RULES[rule]:
        if not ok(value):
            raise ValueError(f"{name} must be {phrase}, got {value!r}")


def generator(seed):
    """A PCG64 generator seeded by `seed`, an integer or a run's derived
    list of them, each checked with `RULES["seed"]`."""
    for part in seed if isinstance(seed, list) else [seed]:
        check("seed", part, "seed")
    return np.random.Generator(np.random.PCG64(seed))


def int_labels(labels, name="labels") -> np.ndarray:
    """`labels` as int64, refused in one line, as `name`, when the cast
    would change a value (a fractional, NaN or infinite label, or one past
    int64); an integer-valued float, as `np.loadtxt` reads a label back,
    passes.  An integer array is cast with no check."""
    labels = np.asarray(labels)
    if labels.dtype.kind in "biu":
        return labels.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # a NaN's cast is refused below, not warned about
        cast = labels.astype(np.int64)
    if (changed := cast != labels).any():
        raise ValueError(f"{name} must be integers, got {labels[changed][0]}")
    return cast
