"""The one place qps reads and writes files: atomic replace, JSON sidecars,
grid CSV.

A qps CSV is a header line, then one row per point of the row-major product
of a few label axes: the labels, then one or two ``%.12g`` value columns.
Its grid or shape sits in a JSON sidecar, ``NAME.csv.json``.  The reader is
the inverse of the writer: it accepts exactly the header, the row labels and
the column count that the writer would print for the sidecar's grid.
"""

import contextlib
import itertools
import json
import math
import os

import numpy as np

from .errors import InvalidInputError


def atomic_write(path, chunks):
    """Stream text chunks to a temp file beside `path`, then rename it over
    `path`; on any error the temp file is removed and `path` left untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload: dict):
    """Indented JSON sidecar with a trailing newline."""
    atomic_write(path, (json.dumps(payload, indent=2), "\n"))


@contextlib.contextmanager
def reading(what: str):
    """Turn every way a damaged file can fail to parse into invalid input."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"cannot read {what}: {exc}") from exc


def read_json(path):
    """Parse a UTF-8 JSON file."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_sidecar(csv_path):
    """The JSON object written beside `csv_path` by :func:`write_grid_csv`."""
    return read_json(f"{csv_path}.json")


def write_grid_csv(path, header, axes, columns, meta: dict, label_fmt: str = "%.12g"):
    """CSV of `columns` (arrays of prod(len(axis)) values, row-major) over
    the product of the 1-D label `axes`, plus `meta` as its JSON sidecar.

    The text is byte-identical to ``np.savetxt(fmt="%.12g", delimiter=",")``,
    as both use Python's ``%``, but labels are formatted once per axis and
    each leading-axis block of rows is filled by one ``%`` on a row template.
    """
    labels = [[label_fmt % v for v in np.asarray(ax).tolist()] for ax in axes]
    lead, tail = labels[0], labels[1:]
    slots = ",%.12g" * len(columns)
    tail_rows = ["".join("," + s for s in row) + slots for row in itertools.product(*tail)]
    block = len(tail_rows)
    flat = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    if any(c.size != block * len(lead) for c in flat):
        raise ValueError(f"value columns do not hold {block * len(lead)} rows")

    def chunks():
        yield ",".join(header) + "\n"
        for i, label in enumerate(lead):
            template = label + f"\n{label}".join(tail_rows) + "\n"
            rows = np.column_stack([c[i * block:(i + 1) * block] for c in flat])
            yield template % tuple(rows.ravel().tolist())

    atomic_write(path, chunks())
    write_json(f"{path}.json", meta)


def read_grid_csv(path, header, axes, ncols: int, label_fmt: str = "%.12g") -> np.ndarray:
    """The `ncols` value columns of a CSV written by :func:`write_grid_csv`.

    The header must match, and the rows must be the row-major product of the
    label `axes`, each labelled exactly as the writer prints it; any other
    table raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != ",".join(header):
            raise ValueError(f"header is {first[:80]!r}, expected {','.join(header)!r}")
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    shape = tuple(len(ax) for ax in axes)
    need = (math.prod(shape), len(shape) + ncols)
    if data.shape != need:
        raise ValueError(f"table is {data.shape}, the grid needs {need}")
    for mu, ax in enumerate(axes):
        labels = np.array([float(label_fmt % v) for v in np.asarray(ax).tolist()])
        along = (1,) * mu + (-1,) + (1,) * (len(shape) - mu - 1)
        want = np.broadcast_to(labels.reshape(along), shape).reshape(-1)
        bad = np.flatnonzero(data[:, mu] != want)
        if bad.size:
            i = bad[0]
            raise ValueError(f"data row {i + 1} has {header[mu]} = {data[i, mu]:.12g}, "
                             f"the row-major grid puts {want[i]:.12g} there")
    return data[:, len(shape):].T
