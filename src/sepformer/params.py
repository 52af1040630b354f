"""Learnable tensors, declared once per level and built from that list.

Each level of the model (attention, layer, stack, dual-path block,
separator) lists its entries in the order they draw from the RNG:
``(name, shape, init)`` for a tensor, where ``init(rng, shape)`` returns
its values, and ``(name, entries)`` for a sub-level with entries of its
own. Construction, the shape census, the name -> tensor map and checkpoint
loading all read that one list.
"""

from __future__ import annotations

import numpy as np

from .ndkernel import Tensor

__all__ = ["Params", "declared_shapes", "uniform", "fill", "ONES", "ZEROS"]


def uniform(fan_in):
    """Draws from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def fill(value):
    """A constant; draws nothing."""
    return lambda rng, shape: np.full(shape, value)


ONES, ZEROS = fill(1.0), fill(0.0)


def declared_shapes(entries, prefix=""):
    """(dotted name, shape) of every declared tensor, in draw order,
    without building any."""
    for name, *rest in entries:
        if len(rest) == 1:
            yield from declared_shapes(rest[0], prefix + name + ".")
        else:
            yield prefix + name, rest[0]


class Params:
    """The tensors of one level, built from its entries in order.

    Each tensor and sub-level is also an attribute, named after its entry
    with dots as underscores (``ln1.gain`` -> ``ln1_gain``); ``children``
    holds the sub-levels in order.
    """

    def __init__(self, entries, rng):
        self._tensors = {}
        self.children = []
        for name, *rest in entries:
            if len(rest) == 1:
                value = Params(rest[0], rng)
                self.children.append(value)
                self._tensors.update((name + "." + key, t)
                                     for key, t in value._tensors.items())
            else:
                shape, init = rest
                value = self._tensors[name] = Tensor(init(rng, shape))
            setattr(self, name.replace(".", "_"), value)

    def parameters(self):
        """Dotted name -> tensor for every learnable scalar, in draw
        order."""
        return dict(self._tensors)
