"""Periodic uniform grids, the centered gradient, the exact Fourier symbols
of the solver's stencils, and discrete norms.

All stencils are centered, second order, and wrap periodically.  Fields are
value types: every operator returns a new Field and never mutates its input.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "Trajectory",
    "gradient",
    "stencil_symbols",
    "lp_norm",
    "spacetime_integral",
    "spacetime_weights",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "write_snapshot_binary",
    "read_snapshot_binary",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on a box [0, L)^d with N cells per axis."""

    n: int
    length: float = 2.0 * np.pi
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.n}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def axes(self) -> list:
        """Cell-center coordinates along each axis."""
        x = np.arange(self.n) * self.dx
        return [x] * self.dim

    def meshgrid(self) -> list:
        return list(np.meshgrid(*self.axes(), indexing="ij"))


class Field:
    """Gridded scalar values on a periodic box.  Immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("non-finite values in field")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __setattr__(self, name, value):
        if hasattr(self, "values") and name in ("grid", "values"):
            raise AttributeError("Field is immutable")
        object.__setattr__(self, name, value)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class Trajectory:
    """Time history of a solve: sampled (t, Field) pairs plus run metadata."""

    grid: GridSpec
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    blowup: bool = False

    def append(self, t: float, f: Field):
        if f.grid != self.grid:
            raise ValueError(f"sample on {f.grid}, trajectory on {self.grid}")
        if self.times and t <= self.times[-1]:
            raise ValueError("sample times must be strictly increasing")
        if not self.times and t != 0.0:
            raise ValueError("trajectory must start at t=0")
        self.times.append(float(t))
        self.fields.append(f)

    def final(self) -> Field:
        return self.fields[-1]


def _diff_centered(values: np.ndarray, axis: int, dx: float) -> np.ndarray:
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * dx)


def _grad(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered gradient over the trailing grid.dim axes of u, one row per
    axis: of one sample, of a stack of samples, or of a block cut from the
    grid with a halo cell on each side, whose wrapped edge cells the caller
    drops."""
    return np.stack([_diff_centered(u, ax, grid.dx) for ax in range(-grid.dim, 0)])


def gradient(f: Field) -> list:
    """Centered gradient, one Field per axis, periodic wrap."""
    return [Field(f.grid, g) for g in _grad(f.values, f.grid)]


def stencil_symbols(grid: GridSpec) -> tuple:
    """Exact symbols of the centered D1, wide Laplacian and D3 stencils on
    the rfftn half-spectrum, with th = 2 pi k / n per axis: i sin(th)/dx,
    -sum_j (sin(th_j)/dx)^2 and i (sin 2th - 2 sin th)/dx^3.  D1 and D3
    have one row per axis; irfftn(symbol * rfftn(u)) applies the stencil."""
    k = [np.fft.fftfreq(grid.n)] * (grid.dim - 1) + [np.fft.rfftfreq(grid.n)]
    th = 2.0 * np.pi * np.stack(np.meshgrid(*k, indexing="ij"))
    s = np.sin(th) / grid.dx
    d3 = 1j * (np.sin(2.0 * th) - 2.0 * np.sin(th)) / grid.dx**3
    return 1j * s, -np.sum(s * s, axis=0), d3


def lp_norm(f: Field, p) -> float:
    """Discrete L^p norm: (sum |u|^p dx^d)^(1/p); p=inf gives max |u|."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))


def spacetime_weights(times, factor=None) -> tuple:
    """Weights of ``spacetime_integral`` per sample, and the indices of the
    samples it reads: those whose weight is not zero."""
    times = np.asarray(times)
    if len(times) < 2:
        raise ValueError("need at least two time samples")
    h = np.diff(times) / 2.0
    w = np.zeros(len(times))
    w[:-1] += h
    w[1:] += h
    if factor is not None:
        factor = np.asarray(factor, dtype=float)
        w = w.reshape(w.shape + (1,) * (factor.ndim - 1)) * factor
    return w, np.flatnonzero(np.any(w.reshape(len(w), -1), axis=1))


_BLOCK = 8192  # cells per integrand call: 64 KB per float64 temporary


def spacetime_integral(traj: Trajectory, integrand, factor=None, cells=...):
    """Trapezoid in time of factor(t) * integrand(u(t)), times the cell volume.

    integrand maps a stack of samples, the sample axis first, to their cell
    sums, one row per sample: a number each, which gives a float, or an
    array of numbers integrated side by side.  Each sample enters the stack
    as values[cells], all its cells by default, and a stack holds as many
    samples as fit in _BLOCK cells, at least one.  factor holds a time
    factor per sample, with trailing axes broadcast against a row of the
    integrand's result; the trapezoid runs over every sample, in sample
    order, and a sample whose weight is zero is never read.
    """
    w, read = spacetime_weights(traj.times, factor)
    rows = max(1, _BLOCK // max(1, traj.fields[0].values[cells].size))
    total = 0.0
    for start in range(0, len(read), rows):
        block = read[start:start + rows]
        sums = integrand(np.stack([traj.fields[i].values[cells] for i in block]))
        for i, s in zip(block, sums):
            total = total + w[i] * s
    total = total * traj.grid.cell_volume
    return float(total) if np.ndim(total) == 0 else total


# ---------------------------------------------------------------------------
# snapshot I/O

_ROWS = 512  # rows per CSV write: as fast as one write, in bounded memory


@functools.lru_cache(maxsize=1)
def _coordinate_text(grid: GridSpec) -> list:
    """Each _ROWS-row block's text in C order: "x," or "x,y," then %r, per cell."""
    x = [s + "," for s in repr(grid.axes()[0].tolist())[1:-1].split(", ")]
    rows = x if grid.dim == 1 else [a + b for a in x for b in x]
    return ["%r\n".join(rows[i:i + _ROWS]) + "%r\n" for i in range(0, len(rows), _ROWS)]


def write_snapshot_csv(f: Field, path):
    """One row per cell in C order: its center coordinates, then u, each as
    its shortest repr, bit-exact through ``read_snapshot_csv``.  A grid's
    coordinate text is formatted once, for every snapshot written on it."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join("xy"[:f.grid.dim]) + ",u\n")
        for i, rows in zip(range(0, f.values.size, _ROWS), _coordinate_text(f.grid)):
            fh.write(rows % tuple(f.values.ravel()[i:i + _ROWS].tolist()))


def read_snapshot_csv(path, length=None) -> Field:
    """A snapshot from ``write_snapshot_csv``; without length, the period is
    n times the step of the first coordinate.  Fewer than 8 data rows, the
    fewest a grid has, is a ValueError that names their count."""
    with open(path) as fh:
        rows = sum(1 for _ in itertools.islice(fh, 1, 9))
    if rows < 8:
        raise ValueError(f"snapshot has {rows} data rows; a grid needs at least 8")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = data.shape[1] - 1
    if dim not in (1, 2):
        raise ValueError(f"unrecognized snapshot with {data.shape[1]} columns")
    n = round(data.shape[0] ** (1.0 / dim))
    if n**dim != data.shape[0]:
        raise ValueError(f"{dim}-d snapshot is not square")
    if length is None:
        length = n * (data[n ** (dim - 1), 0] - data[0, 0])
    grid = GridSpec(n=n, length=length, dim=dim)
    return Field(grid, data[:, -1].reshape(grid.shape))


def write_snapshot_binary(f: Field, path):
    """f as numpy's .npz container (arrays values and length), written to
    path as named: numpy appends .npz only to a name it opens itself."""
    with open(path, "wb") as fh:
        np.savez(fh, values=f.values, length=f.grid.length)


def read_snapshot_binary(path) -> Field:
    """A snapshot from ``write_snapshot_binary``; a file holding pickled
    objects is a ValueError, never unpickled."""
    with np.load(path) as data:
        values, length = data["values"], float(data["length"])
    return Field(GridSpec(n=len(values), length=length, dim=values.ndim), values)


def write_manifest(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
