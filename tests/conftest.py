"""Shared test helpers: finite-difference oracles and a grid CSV writer."""

from __future__ import annotations

import numpy as np

# central difference stencils of second-order accuracy, by derivative order
_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
    4: ((2.0, 1.0), (1.0, -4.0), (0.0, 6.0), (-1.0, -4.0), (-2.0, 1.0)),
}


def central_difference(f, x: float, order: int, h: float) -> float:
    acc = 0.0
    for offset, weight in _STENCILS[order]:
        acc += weight * float(f(x + offset * h))
    return acc / h**order


def richardson_derivative(f, x: float, order: int, h: float = 1e-2,
                          levels: int = 5) -> float:
    """Richardson-extrapolated central difference, error O(h^(2*levels)).

    Independent of every closed-form derivative in the package: only
    function values enter.
    """
    table = [central_difference(f, x, order, h / 2**k) for k in range(levels)]
    for m in range(1, levels):
        factor = 4.0**m
        table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                 for i in range(len(table) - 1)]
    return table[0]


def write_grid_csv(path, a: float, b: float, *columns) -> None:
    """Write value[, deriv1[, deriv2]] at np.linspace(a, b, n) in the csv:
    target format, each number exact to the last bit."""
    names = ["x", "value", "deriv1", "deriv2"][:len(columns) + 1]
    xs = np.linspace(a, b, len(columns[0]))
    rows = [",".join(names)] + [",".join(repr(float(v)) for v in row)
                                for row in zip(xs, *columns)]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
