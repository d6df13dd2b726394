"""Named, ordered collections of float64 arrays.

A ParameterSet is the single currency for weights, gradients, perturbations
and importance values.  Names are ordered; all elementwise operations require
exact name/shape alignment.
"""

from __future__ import annotations

import numpy as np


class ParameterSet:
    """Ordered mapping from parameter name to a float64 numpy array."""

    def __init__(self, items=None):
        self._data: dict[str, np.ndarray] = {}
        if items is not None:
            for name, arr in (items.items() if isinstance(items, dict) else items):
                self[name] = arr

    def __setitem__(self, name, arr):
        self._data[name] = np.asarray(arr, dtype=np.float64)

    def __getitem__(self, name):
        return self._data[name]

    def __contains__(self, name):
        return name in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def names(self):
        return list(self._data)

    def items(self):
        return self._data.items()

    def values(self):
        return self._data.values()

    def copy(self) -> "ParameterSet":
        return ParameterSet((n, a.copy()) for n, a in self._data.items())

    def zeros_like(self) -> "ParameterSet":
        return ParameterSet((n, np.zeros_like(a)) for n, a in self._data.items())

    def aligned_with(self, other: "ParameterSet") -> bool:
        if self.names() != other.names():
            return False
        return all(self[n].shape == other[n].shape for n in self._data)

    def require_aligned(self, other: "ParameterSet", context: str = ""):
        if not self.aligned_with(other):
            raise ValueError(
                f"misaligned parameter sets{' in ' + context if context else ''}: "
                f"{self.names()} vs {other.names()}"
            )

    def total_size(self) -> int:
        return sum(a.size for a in self._data.values())

    def flatten(self) -> np.ndarray:
        if not self._data:
            return np.zeros(0)
        return np.concatenate([a.ravel() for a in self._data.values()])

    def unflatten(self, flat: np.ndarray) -> "ParameterSet":
        """Views into `flat` with this set's names and shapes."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.total_size(),):
            raise ValueError(f"flat vector of shape {flat.shape} does not match "
                             f"total size {self.total_size()}")
        out, offset = ParameterSet(), 0
        for name, a in self._data.items():
            out[name] = flat[offset:offset + a.size].reshape(a.shape)
            offset += a.size
        return out

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self._data.values())))

    def dot(self, other: "ParameterSet") -> float:
        self.require_aligned(other, "dot")
        return sum(float(np.sum(self[n] * other[n])) for n in self._data)

    def map(self, fn) -> "ParameterSet":
        return ParameterSet((n, fn(a)) for n, a in self._data.items())

    def combine(self, other: "ParameterSet", fn) -> "ParameterSet":
        self.require_aligned(other, "combine")
        return ParameterSet((n, fn(self[n], other[n])) for n in self._data)

    def add(self, other: "ParameterSet") -> "ParameterSet":
        return self.combine(other, lambda a, b: a + b)

    def sub(self, other: "ParameterSet") -> "ParameterSet":
        return self.combine(other, lambda a, b: a - b)

    def scale(self, c: float) -> "ParameterSet":
        return self.map(lambda a: a * c)

    def add_scaled(self, other: "ParameterSet", c: float) -> "ParameterSet":
        return self.combine(other, lambda a, b: a + c * b)

    def subset(self, names) -> "ParameterSet":
        return ParameterSet((n, self._data[n]) for n in names)

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self._data.values())

    def __repr__(self):
        shapes = {n: a.shape for n, a in self._data.items()}
        return f"ParameterSet({shapes})"
