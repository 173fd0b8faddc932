"""The one place qps writes files: atomic replace, JSON sidecars, grid CSV.

A qps CSV is a header line, then one row per point of the row-major product
of a few label axes: the labels, then one or two ``%.12g`` value columns.
"""

import contextlib
import itertools
import json
import os

import numpy as np


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


def write_grid_csv(path, header, axes, columns, label_fmt: str = "%.12g"):
    """CSV of `columns` (arrays of prod(len(axis)) values, row-major) over
    the product of the 1-D label `axes`.

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
