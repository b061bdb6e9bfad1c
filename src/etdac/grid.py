"""Uniform cell-centered meshes, grid functions, and discrete norms.

The domain (0, lx) x (0, ly) is split into nx * ny cells with centers at
((i + 1/2) hx, (j + 1/2) hy).  Cell centering makes the homogeneous-Neumann
central-difference Laplacian exactly diagonal in the cosine basis, which the
spectral module relies on.

Grid functions are stored flat with i varying fastest, so values[j*nx + i]
holds the cell (i, j).  The layout is fixed so CSV dumps and transforms are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh2D",
    "Field",
    "max_norm",
    "l2_norm",
    "discrete_energy",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Mesh2D:
    """Uniform rectangular mesh of nx * ny cells on (0, lx) x (0, ly)."""

    lx: float
    ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need at least 2 cells per dimension, got {self.nx}x{self.ny}")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("domain edge lengths must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (x, y), each shaped (ny, nx) like a field grid."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.broadcast_to(x, (self.ny, self.nx)), np.broadcast_to(y[:, None], (self.ny, self.nx))


@dataclass
class Field:
    """Scalar grid function; values flat of length nx*ny, i fastest."""

    mesh: Mesh2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(self.mesh.ncells)

    def grid(self) -> np.ndarray:
        """(ny, nx) view of the values; entry [j, i] is cell (i, j)."""
        return self.values.reshape(self.mesh.ny, self.mesh.nx)


def max_norm(u: Field) -> float:
    """Discrete maximum norm, max over cells of |u|, from u's extremes
    without a |u| array: NaN where u has one, and +0.0 for a zero field."""
    return float(max(u.values.max(), -u.values.min())) + 0.0


def l2_norm(u: Field) -> float:
    """Discrete L2 norm sqrt(hx*hy * sum(u*u))."""
    return float(np.sqrt(u.mesh.hx * u.mesh.hy * np.sum(u.values * u.values)))


def discrete_energy(u: Field, eps: float, potential, scratch: np.ndarray = None) -> float:
    """Discrete free energy hx*hy*[ (eps^2/2) sum of squared interior
    face-difference quotients + sum of F(u) over cells ].

    Boundary faces carry zero flux, matching the Neumann Laplacian stencil
    through summation by parts, so discrete dissipation statements are
    self-consistent.  Raises the potential's domain error when F is
    undefined (logarithmic potential with |u| >= 1).  scratch, a flat
    (ncells,) array other than u's, takes each squared difference field.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    mesh = u.mesh
    g = u.grid()
    scratch = np.empty(mesh.ncells) if scratch is None else scratch
    grad2 = 0.0
    for hi, lo, h in ((g[:, 1:], g[:, :-1], mesh.hx), (g[1:, :], g[:-1, :], mesh.hy)):
        d = np.subtract(hi, lo, out=scratch[: hi.size].reshape(hi.shape))
        d /= h
        grad2 += np.sum(np.multiply(d, d, out=d))
    bulk = np.sum(potential.F(g))
    return mesh.hx * mesh.hy * float(0.5 * eps * eps * grad2 + bulk)


def write_field_csv(u: Field, path) -> None:
    """Field snapshot: header ``i,j,x,y,u``, one row per cell in storage order.
    Each mesh row fills its j and y into one row's lines, built once, and its
    u in by one ``%``: '%.17g' % v gives the bytes of format(v, '.17g')."""
    xg, yg = u.mesh.cell_centers()
    lines = "".join(f"{i},\0,{x:.17g},\1,%.17g\n" for i, x in enumerate(xg[0].tolist()))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("i,j,x,y,u\n")
            for j, (y, row) in enumerate(zip(yg[:, 0].tolist(), u.grid().tolist())):
                fh.write(lines.replace("\0", str(j)).replace("\1", f"{y:.17g}") % tuple(row))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_field_csv(mesh: Mesh2D, path) -> Field:
    """Read a snapshot written by write_field_csv back onto the given mesh.

    Every cell of the mesh must appear exactly once, with integer indices
    inside the mesh and a finite value; anything else raises ValueError.
    """
    raw = np.genfromtxt(path, delimiter=",", names=True)
    if raw.size != mesh.ncells:
        raise ValueError(f"snapshot has {raw.size} cells, mesh needs {mesh.ncells}")
    i, j = raw["i"], raw["j"]
    for k, n in ((i, mesh.nx), (j, mesh.ny)):
        if not np.all((k >= 0) & (k < n) & (k == np.floor(k))):
            raise ValueError(f"snapshot cell indices must be integers inside the {mesh.nx}x{mesh.ny} mesh")
    idx = j.astype(int) * mesh.nx + i.astype(int)
    if np.unique(idx).size != mesh.ncells:
        raise ValueError("snapshot lists some cell more than once")
    if not np.all(np.isfinite(raw["u"])):
        raise ValueError("snapshot values must be finite")
    vals = np.empty(mesh.ncells)
    vals[idx] = raw["u"]
    return Field(mesh, vals)
