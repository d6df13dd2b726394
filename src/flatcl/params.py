"""Named, shaped views over one contiguous float64 vector.

A ParameterSet is the single currency for weights, gradients and
perturbations.  It is a layout (ordered names, shapes and offsets) over one
1-D buffer, `flat`; `ps[name]` is a reshaped view into it, so writing
through a view writes the buffer.  Sets built from the same layout share
it, and whole-set arithmetic is one vector expression on `flat`.  Values
read by no name (importance, the sparse mask) are vectors laid out like it.

The prefix rule: a model appends each new task head at the end of its
buffer, so the weights constrained while training task t (the encoder and
the heads of earlier tasks) are always the first names of the layout, and
their coordinates the slice `flat[:k]` that `prefix` returns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class _Layout:
    """Ordered names with their shapes and [start, stop) offsets in `flat`,
    each a tuple, so sets and models can share one layout."""

    def __init__(self, names, shapes):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.names, self.shapes = tuple(names), tuple(shapes)
        self.offsets = tuple(itertools.accumulate(map(math.prod, self.shapes), initial=0))
        self.index = {n: i for i, n in enumerate(self.names)}

    def block(self, vec, i):
        """Block `i` of `vec`, a flat vector laid out like this layout or a
        (k, d) stack of them, as a view of its shape (over a stack, leading
        with k): the one reader of where and how a block lies."""
        return vec[..., self.offsets[i]:self.offsets[i + 1]].reshape(vec.shape[:-1]
                                                                     + self.shapes[i])


class ParameterSet:
    """Ordered mapping from parameter name to a view into one float64 vector.

    `ParameterSet(items)` copies a dict or (name, array) pairs into a new
    buffer; `ParameterSet(layout=, flat=)` lays a `_Layout` over `flat`.
    `unflatten` lays the same names and shapes over another vector.
    """

    def __init__(self, items=None, *, layout: _Layout | None = None,
                 flat: np.ndarray | None = None):
        if layout is None:
            pairs = list(items.items() if isinstance(items, dict) else items or ())
            arrays = [np.asarray(a, dtype=np.float64) for _, a in pairs]
            layout = _Layout([n for n, _ in pairs], [a.shape for a in arrays])
            flat = (np.concatenate([a.ravel() for a in arrays]) if arrays
                    else np.zeros(0))
        self._layout = layout
        self.flat = flat

    def __getitem__(self, name):
        return self._layout.block(self.flat, self._layout.index[name])

    def __iter__(self):
        return iter(self._layout.names)

    def __len__(self):
        return len(self._layout.names)

    def names(self):
        return list(self._layout.names)

    def items(self):
        return [(n, self[n]) for n in self._layout.names]

    def _like(self, flat) -> "ParameterSet":
        return ParameterSet(layout=self._layout, flat=flat)

    def copy(self) -> "ParameterSet":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "ParameterSet":
        return self._like(np.zeros_like(self.flat))

    def aligned_with(self, other: "ParameterSet") -> bool:
        a, b = self._layout, other._layout
        return a is b or (a.names == b.names and a.shapes == b.shapes)

    def require_aligned(self, other: "ParameterSet", context: str = ""):
        if not self.aligned_with(other):
            raise ValueError(
                f"misaligned parameter sets{' in ' + context if context else ''}: "
                f"{self.names()} vs {other.names()}"
            )

    def prefix(self, names) -> np.ndarray:
        """View of the coordinates of `names`, which must be this set's
        first names in order (see the prefix rule above)."""
        lay = self._layout
        if lay.names[:len(names)] != tuple(names):
            raise ValueError(f"{list(names)} is not a prefix of the parameter "
                             f"layout {list(lay.names)}")
        return self.flat[:lay.offsets[len(names)]]

    def slice_of(self, name) -> slice:
        """Where the block `name` lies in `flat`."""
        lay = self._layout
        i = lay.index[name]
        return slice(lay.offsets[i], lay.offsets[i + 1])

    def total_size(self) -> int:
        return self.flat.size

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def unflatten(self, flat: np.ndarray) -> "ParameterSet":
        """Views into `flat` with this set's names and shapes."""
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (self.total_size(),):
            raise ValueError(f"flat vector of shape {flat.shape} does not match "
                             f"total size {self.total_size()}")
        return self._like(flat)

    def norm(self) -> float:
        return float(np.sqrt(self.flat @ self.flat))

    def __repr__(self):
        shapes = dict(zip(self._layout.names, self._layout.shapes))
        return f"ParameterSet({shapes})"
