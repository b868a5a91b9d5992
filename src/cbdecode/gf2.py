"""Sparse binary linear algebra over GF(2).

Matrices are stored as sorted row and column adjacency lists (both views are
built once at construction, since decoding walks rows and columns all the
time).  Vectors are plain numpy uint8 arrays with values in {0, 1}.
Mat-vecs gather and XOR over a padded column-index array built once per
matrix; no dense copy is kept, and the library itself never builds one:
`BinaryMatrix.to_dense`/`from_dense` serve tests and demos only.  Rank and
kernel computations run on bit-packed rows (Python integers as row
bitmasks), which is plenty for the few-thousand-column matrices handled here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class BinaryMatrix:
    """Immutable sparse GF(2) matrix with row and column adjacency access.

    Parameters
    ----------
    rows, cols : int
        Matrix dimensions.
    entries : iterable of (row, col)
        Positions of the nonzero entries. Duplicates collapse to one entry.
    """

    __slots__ = ("rows", "cols", "row_support", "col_support", "_slots", "_col_masks")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        by_row: list[set[int]] = [set() for _ in range(rows)]
        by_col: list[set[int]] = [set() for _ in range(cols)]
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols} matrix")
            by_row[r].add(c)
            by_col[c].add(r)
        self.rows = rows
        self.cols = cols
        self.row_support: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in by_row
        )
        self.col_support: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in by_col
        )
        self._slots: np.ndarray | None = None
        self._col_masks: tuple[int, ...] | None = None

    @classmethod
    def from_dense(cls, arr: np.ndarray | Sequence[Sequence[int]]) -> "BinaryMatrix":
        a = np.asarray(arr, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("dense input must be 2-dimensional")
        rs, cs = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], zip(rs.tolist(), cs.tolist()))

    @classmethod
    def from_rows(cls, rows: Sequence[np.ndarray], cols: int) -> "BinaryMatrix":
        """Stack 1-D {0,1} vectors as matrix rows."""
        entries = []
        for i, v in enumerate(rows):
            if len(v) != cols:
                raise ValueError("row length mismatch")
            entries.extend((i, int(c)) for c in np.flatnonzero(v))
        return cls(len(rows), cols, entries)

    def to_dense(self) -> np.ndarray:
        """A new dense uint8 copy on every call; nothing is cached."""
        d = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for r, cs in enumerate(self.row_support):
            d[r, list(cs)] = 1
        return d

    def row_slots(self) -> np.ndarray:
        """Column indices as a (max row weight, rows) array, one row per column.

        Slot k of row r, entry (k, r), holds the k-th smallest column of that
        row.  Rows shorter than the widest are padded with the index `cols`,
        which a caller points at a neutral element appended to its vector.
        At least one slot row is kept, so an empty matrix pads every row.
        Built on first use and kept, read-only.
        """
        if self._slots is None:
            width = max(max(self.row_weights(), default=0), 1)
            slots = np.full((width, self.rows), self.cols, dtype=np.intp)
            for r, cs in enumerate(self.row_support):
                slots[: len(cs), r] = cs
            slots.flags.writeable = False
            self._slots = slots
        return self._slots

    def col_masks(self) -> tuple[int, ...]:
        """Each column's rows as a Python int bitmask (bit r set iff entry
        (r, c) is nonzero).  Built on first use and kept, like row_slots."""
        if self._col_masks is None:
            self._col_masks = tuple(_masks(self.col_support))
        return self._col_masks

    def row_weights(self) -> list[int]:
        return [len(s) for s in self.row_support]

    def col_weights(self) -> list[int]:
        return [len(s) for s in self.col_support]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.row_support == other.row_support
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.row_support))

    def __repr__(self):
        return f"BinaryMatrix({self.rows}x{self.cols}, {sum(self.row_weights())} entries)"


def vec_from_support(n: int, support: Iterable[int]) -> np.ndarray:
    v = np.zeros(n, dtype=np.uint8)
    for i in support:
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside vector of length {n}")
        v[i] ^= 1
    return v


def mat_vec_mod2(m: BinaryMatrix, v: np.ndarray) -> np.ndarray:
    """Return m @ v over GF(2) as uint8: shape (rows,) for a vector v of
    shape (cols,), and (k, rows), one product per row, for v of shape
    (k, cols).  Any other shape raises ValueError.  Entries count by parity.

    v is laid out column-major, entry c of every vector in row c of
    `padded`, with a zero row appended for the padding index, so one gather
    through the `BinaryMatrix.row_slots` array and one XOR-reduce over the
    leading slot axis serve both shapes; the result is C-contiguous.
    """
    v = np.asarray(v, dtype=np.uint8)
    if v.ndim not in (1, 2) or v.shape[-1] != m.cols:
        raise ValueError(f"vector shape {v.shape} does not match {m.cols} columns")
    padded = np.zeros((m.cols + 1,) + v.shape[:-1], dtype=np.uint8)
    padded[: m.cols] = v.T
    return np.ascontiguousarray(np.bitwise_xor.reduce(padded[m.row_slots()], axis=0).T & 1)


def _masks(supports: Sequence[Sequence[int]]) -> list[int]:
    """One Python int bitmask per index tuple, bit i set for each index i."""
    out = []
    for indices in supports:
        x = 0
        for i in indices:
            x |= 1 << i
        out.append(x)
    return out


def rank_mod2(m: BinaryMatrix) -> int:
    """GF(2) rank by Gaussian elimination on bit-packed rows."""
    pivots: dict[int, int] = {}  # lowest set bit -> row bitmask
    return sum(_add_pivot(x, pivots) for x in _masks(m.row_support))


def kernel_basis_mod2(m: BinaryMatrix) -> list[np.ndarray]:
    """Basis of the right null space {v : m v = 0 (mod 2)}.

    Returned vectors are uint8 arrays of length m.cols, one per free column
    of the reduced row echelon form, in ascending free-column order.
    """
    n = m.cols
    pivots: dict[int, int] = {}  # lowest set bit -> row bitmask
    for x in _masks(m.row_support):
        _add_pivot(x, pivots)
    # back-substitution from the highest pivot down clears every other pivot
    # column from each row: the reduced row echelon form, which is unique
    reduced: dict[int, int] = {}
    for low in sorted(pivots, reverse=True):
        x = pivots[low]
        for high, row in reduced.items():
            if x & high:
                x ^= row
        reduced[low] = x
    basis: list[np.ndarray] = []
    for free in range(n):
        bit = 1 << free
        if bit in reduced:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[free] = 1
        for low, row in reduced.items():
            if row & bit:
                v[low.bit_length() - 1] = 1
        basis.append(v)
    return basis


def _reduce_against(x: int, pivots: dict[int, int]) -> int:
    """Reduce x against pivot rows keyed by lowest set bit; 0 iff in span."""
    while x:
        low = x & -x
        if low not in pivots:
            break
        x ^= pivots[low]
    return x


def _add_pivot(x: int, pivots: dict[int, int]) -> bool:
    """Insert reduced x into the pivot set; False if x lies in the span."""
    x = _reduce_against(x, pivots)
    if x == 0:
        return False
    pivots[x & -x] = x
    return True


def _vec_to_int(v: np.ndarray) -> int:
    """Bitmask with bit i set iff v[i] is nonzero."""
    v = np.asarray(v)
    if v.dtype.kind not in "biu":
        v = v != 0  # packbits takes integers and booleans only, nonzero as 1
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


def quotient_basis(
    span_small: Sequence[np.ndarray], span_large: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Vectors from span_large that extend span_small to span(span_large).

    Requires span(span_small) to be contained in span(span_large); raises
    ValueError otherwise.  For a CSS code with span_small the stabilizer
    rows and span_large a kernel basis, the result has length k.
    """
    large = [_vec_to_int(v) for v in span_large]
    large_pivots: dict[int, int] = {}
    for x in large:
        _add_pivot(x, large_pivots)
    pivots: dict[int, int] = {}
    for v in span_small:
        x = _vec_to_int(v)
        if _reduce_against(x, large_pivots):
            raise ValueError("span_small is not contained in span(span_large)")
        _add_pivot(x, pivots)
    return [
        np.asarray(v, dtype=np.uint8).copy()
        for v, x in zip(span_large, large)
        if _add_pivot(x, pivots)
    ]


def save_matrix(m: BinaryMatrix, path: str) -> None:
    """Write the sparse text format: 'rows cols' then one 'r c' per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.rows} {m.cols}\n")
        for r, cs in enumerate(m.row_support):
            for c in cs:
                fh.write(f"{r} {c}\n")


def load_matrix(path: str) -> BinaryMatrix:
    """Read the sparse text format written by save_matrix.

    The file is UTF-8 text: a 'rows cols' header line, then one 'row col'
    line per entry, numbers in ASCII digits; blank entry lines are skipped.
    Malformed input, a line that is not UTF-8 or an entry outside the matrix
    included, raises ValueError naming the path and the line.
    """
    with open(path, "rb") as fh:  # text mode's line ends: \n, \r\n and \r
        lines = fh.read().splitlines() or [b""]
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            parts = raw.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        if not parts and lineno > 1:
            continue
        # int() also takes "١", "1_0" and "+1"
        if len(parts) != 2 or not all(part.isascii() and part.isdigit() for part in parts):
            what = "'rows cols' header" if lineno == 1 else "'row col'"
            raise ValueError(f"{path}:{lineno}: expected {what} in ASCII digits")
        r, c = int(parts[0]), int(parts[1])
        if lineno == 1:
            rows, cols = r, c
        elif r >= rows or c >= cols:
            raise ValueError(f"{path}:{lineno}: entry ({r}, {c}) outside {rows}x{cols} matrix")
        else:
            entries.append((r, c))
    return BinaryMatrix(rows, cols, entries)
