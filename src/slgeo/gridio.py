"""2D grid fields with domain masks, and their on-disk CSV format.

File layout (version 1):

    # slgeo-grid v1, nx, ny, x0, y0, hx, hy, mask
    v00, v01, ...
    ...

Values are row-major over the x index, written with 17 significant digits
so that a write/read round trip is bitwise exact.  Exterior nodes are
stored as NaN; the mask flag in the header records whether a mask is
present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_HEADER_TAG = "# slgeo-grid v1"


class GridFormatError(ValueError):
    """Malformed grid file header or payload."""


@dataclass
class GridField:
    """A scalar field on a uniform 2D grid.

    values[i, j] lives at (x0 + i*hx, y0 + j*hy).  mask is True on active
    (interior + boundary) nodes; exterior values are NaN.
    """

    values: np.ndarray
    x0: float
    y0: float
    hx: float
    hy: float
    mask: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("grid values must be 2D")
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError("grid spacing must be positive")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape mismatch")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def coords(self):
        """Meshgrid arrays (X, Y) of node coordinates, shaped like values."""
        x = self.x0 + self.hx * np.arange(self.nx)
        y = self.y0 + self.hy * np.arange(self.ny)
        return np.meshgrid(x, y, indexing="ij")


def write_grid(path, fld: GridField) -> None:
    vals = fld.values.copy()
    if fld.mask is not None:
        vals[~fld.mask] = np.nan
    header = "%s, %d, %d, %.17g, %.17g, %.17g, %.17g, %d" % (
        _HEADER_TAG, fld.nx, fld.ny, fld.x0, fld.y0, fld.hx, fld.hy,
        0 if fld.mask is None else 1)
    np.savetxt(path, vals, fmt="%.17g", delimiter=", ", header=header,
               comments="")


def read_grid(path) -> GridField:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(_HEADER_TAG):
            raise GridFormatError("bad header: %r" % header)
        parts = [p.strip() for p in header[len(_HEADER_TAG):].lstrip(",").split(",")]
        if len(parts) != 7:
            raise GridFormatError("header must carry nx, ny, x0, y0, hx, hy, mask")
        nx, ny = int(parts[0]), int(parts[1])
        x0, y0, hx, hy = (float(p) for p in parts[2:6])
        has_mask = bool(int(parts[6]))
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
    vals = np.array(rows, dtype=float)
    if vals.shape != (nx, ny):
        raise GridFormatError("payload shape %r does not match header (%d, %d)"
                              % (vals.shape, nx, ny))
    mask = ~np.isnan(vals) if has_mask else None
    return GridField(vals, x0, y0, hx, hy, mask)
