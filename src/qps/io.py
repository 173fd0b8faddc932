"""The one place qps reads and writes files: atomic replace, JSON sidecars,
grid CSV.

A qps CSV is a header line, then one row per point of the row-major product
of a few label axes: the labels, then one or two ``%.12g`` value columns.
Its grid or shape sits in a JSON sidecar, ``NAME.csv.json``.  The reader is
the inverse of the writer: it accepts exactly the header, the row labels and
the column count that the writer would print for the sidecar's grid.

The writer formats values with numpy, and its text is exactly
``"%.12g" % v``.  For ``e = floor(log10|v|)`` the scaled value
``s = |v| * 10**(11 - e)`` (a correctly rounded power of ten) is off by less
than 3e-4, so ``rint(s)`` is the correctly rounded 12-digit mantissa when s
lies more than 2e-3 from a rounding tie and ``1e11 <= s``, ``rint(s) < 1e12``.
Zero is laid out directly; every other value (near-ties, non-finite values,
``|v|`` outside [1e-290, 1e290]) is printed by ``%`` itself.
"""

import contextlib
import json
import math
import os

import numpy as np

from .errors import InvalidInputError

# The %.12g text of a value sits in fixed byte slots: sign, the "0.000" lead
# of -4 <= e < 0, 12 digits with the dot at its place, "e+123".
_VALUE_WIDTH = 24
# Rows per written chunk, so memory does not grow with the table: writing a
# 32^4 two-column table peaks at ~7 MiB of numpy temporaries.  From 2^12 to
# 2^15 rows it writes equally fast (2 MiB-L2 Xeon); at 2^16 a chunk's
# temporaries leave the cache and it is ~15% slower.
_CHUNK_ROWS = 1 << 14
# 10**k correctly rounded, at index k + 300
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 310)])


def atomic_write(path, chunks):
    """Stream text or byte chunks to a temp file beside `path`, then rename it
    over `path`; on any error the temp file is removed and `path` left
    untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
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

    The text is byte-identical to ``np.savetxt(fmt="%.12g", delimiter=",")``.
    Labels are formatted once per axis with ``label_fmt % v``, values by
    :func:`_g12_planes`.  Its fast path takes ``rint(|v| * 10**(11 - e))``,
    ``e = floor(log10|v|)``, as the 12-digit mantissa only where the scaled
    value, off by less than 3e-4, lies more than 2e-3 from a rounding tie
    and proves e, and prints every other value with ``"%.12g" % v``.  Each
    chunk of ``_CHUNK_ROWS`` rows is laid out in fixed byte slots, NUL where
    a text is shorter, and written with its NULs removed.
    """
    labels = []
    for ax in axes:
        text = [label_fmt % v + "," for v in np.asarray(ax).tolist()]
        width = max(map(len, text), default=1)
        labels.append(np.array(text, dtype=f"S{width}").view(f"V{width}"))
    shape = tuple(len(lab) for lab in labels)
    rows = math.prod(shape)
    flat = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    if any(c.size != rows for c in flat):
        raise ValueError(f"value columns do not hold {rows} rows")
    edges = np.cumsum([0] + [lab.itemsize for lab in labels])
    starts = edges[-1] + (_VALUE_WIDTH + 1) * np.arange(len(flat))
    buf = np.zeros((min(rows, _CHUNK_ROWS), edges[-1] + (_VALUE_WIDTH + 1) * len(flat)), np.uint8)
    buf[:, starts + _VALUE_WIDTH] = np.frombuffer(b"," * (len(flat) - 1) + b"\n", np.uint8)

    def chunks():
        yield ",".join(header) + "\n"
        for first in range(0, rows, _CHUNK_ROWS):
            last = min(first + _CHUNK_ROWS, rows)
            block = buf[:last - first]
            index = np.unravel_index(np.arange(first, last), shape)
            for lab, idx, lo, hi in zip(labels, index, edges, edges[1:]):
                block[:, lo:hi].view(lab.dtype)[:, 0] = lab[idx]
            for c, lo in zip(flat, starts):
                block[:, lo:lo + _VALUE_WIDTH] = _g12_planes(c[first:last]).T
            yield block[block != 0]

    atomic_write(path, chunks())
    write_json(f"{path}.json", meta)


def _u8(mask):
    """A boolean array as 0/1 bytes, for arithmetic that stays in uint8."""
    return mask.view(np.uint8)


def _g12_planes(v) -> np.ndarray:
    """``"%.12g" % x`` for each float64 x of `v`, as a (24, len(v)) uint8
    array: column i holds the text of v[i] in the slots of `_VALUE_WIDTH`,
    NUL where a slot is empty.

    Fast path: with ``e = floor(log10|x|)`` and ``s = |x| * 10**(11 - e)``,
    the power taken from a correctly rounded table, s is off by less than
    3e-4 (two roundings of a value below 1e12), so ``m = rint(s)`` is the
    correctly rounded 12-digit mantissa whenever s is more than 2e-3 from a
    rounding tie; ``1e11 <= s`` with ``m < 1e12`` proves that e is the
    exponent ``%g`` prints, even where log10 is off by one at a power of
    ten.  Zero is laid out directly.  Non-finite values, ``|x|`` outside
    [1e-290, 1e290], near-ties and a mantissa that rounds up to 1e12 are
    formatted by ``%``.
    """
    n = v.size
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0  # a zero takes the digits of 1, its lead digit set to 0 below
    e = np.floor(np.log10(a)).astype(np.int16)
    s = a * _POW10[311 - e]
    m = np.rint(s)
    fast &= (np.abs(s - m) < 0.498) & (s >= 1e11) & (m < 1e12)

    six = np.empty((2, n), np.int32)  # two 6-digit halves of m, exact in float
    six[0] = np.floor(m / 1e6)
    six[1] = m - 1e6 * six[0]
    thousands = six // 1000
    three = np.empty((2, 2, n), np.int16)  # then four 3-digit groups
    three[:, 0] = thousands
    three[:, 1] = six - 1000 * thousands
    three = three.reshape(4, n)
    hundreds, tens = three // 100, three // 10
    digits = np.zeros((14, n), np.uint8)  # rows 1..12 the digits, 0 and 13 padding
    by_three = digits[1:13].reshape(4, 3, n)
    by_three[:, 0] = hundreds
    by_three[:, 1] = tens - 10 * hundreds
    by_three[:, 2] = three - 10 * tens
    slot = np.arange(13, dtype=np.uint8)[:, None]
    last = (_u8(digits[1:13] != 0) * slot[:12]).max(axis=0)  # the last nonzero digit

    fixed = (e >= -4) & (e < 12)  # else exponential notation
    # digits before the dot: e + 1 in fixed notation (none below 1), else 1
    ints = (fixed * (np.maximum(e + 1, 0) - 1) + 1).astype(np.uint8)
    dot_at = ints + _u8(ints == 0) * 12  # the dot's slot in the digit run; 12: none there
    digits[1:13] += ord("0")
    digits[1:13] *= _u8(slot[:12] < np.maximum(last + 1, ints))
    digits[1] -= _u8(zero)

    out = np.empty((_VALUE_WIDTH, n), np.uint8)
    out[0] = _u8(np.signbit(v)) * ord("-")
    lead = _u8(fixed & (e < 0))
    out[1] = lead * ord("0")
    out[2] = lead * ord(".")
    zeros = np.arange(1, 4, dtype=np.int16)[:, None]  # "0." then -1 - e zeros
    out[3:6] = lead * _u8(zeros <= -1 - e) * ord("0")
    out[6:19] = (digits[1:14] * _u8(slot < dot_at) + digits[0:13] * _u8(slot > dot_at)
                 + _u8(slot == dot_at) * _u8(last >= dot_at) * ord("."))
    expo = _u8(~fixed)
    ae = np.abs(e)
    out[19] = expo * ord("e")
    out[20] = expo * (ord("+") + 2 * _u8(e < 0))
    out[21] = expo * _u8(ae >= 100) * (ord("0") + ae // 100)
    tens = ae // 10
    out[22] = expo * (ord("0") + tens - 10 * (tens // 10))
    out[23] = expo * (ord("0") + ae - 10 * tens)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        text = np.array(["%.12g" % x for x in v[slow].tolist()], dtype=f"S{_VALUE_WIDTH}")
        out[:, slow] = text.view(np.uint8).reshape(slow.size, _VALUE_WIDTH).T
    return out


def read_grid_csv(path, header, axes, ncols: int, label_fmt: str = "%.12g") -> np.ndarray:
    """The `ncols` value columns of a CSV written by :func:`write_grid_csv`.

    The header must match, and the rows must be the row-major product of the
    label `axes`, each labelled exactly as the writer prints it, and the
    values must be finite; any other table raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != ",".join(header):
            raise ValueError(f"header is {first[:80]!r}, expected {','.join(header)!r}")
        start = fh.tell()
        if not fh.readline().strip():
            raise ValueError("the table has no data rows")
        fh.seek(start)
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
    values = data[:, len(shape):]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"data row {np.argmin(finite) + 1} has a non-finite value")
    return values.T
