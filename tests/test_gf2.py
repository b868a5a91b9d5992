import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdecode.bbcodes import STANDARD_CODES, build_bb_code
from cbdecode.gf2 import (
    BinaryMatrix,
    kernel_basis_mod2,
    load_matrix,
    mat_vec_mod2,
    quotient_basis,
    rank_mod2,
    save_matrix,
    vec_from_support,
)

from conftest import dense_rank_oracle, dense_rref
from test_bbcodes import LOGICAL_DIGESTS


def test_entry_bounds_checked():
    with pytest.raises(ValueError):
        BinaryMatrix(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        BinaryMatrix(2, 2, [(0, 2)])


def test_row_and_column_views_agree():
    m = BinaryMatrix(3, 4, [(0, 1), (0, 3), (2, 0), (2, 1)])
    from_rows = {(r, c) for r, cs in enumerate(m.row_support) for c in cs}
    from_cols = {(r, c) for c, rs in enumerate(m.col_support) for r in rs}
    assert from_rows == from_cols == {(0, 1), (0, 3), (2, 0), (2, 1)}


def test_mat_vec_identity_cases():
    m1 = BinaryMatrix.from_dense([[1]])
    assert mat_vec_mod2(m1, np.array([1], dtype=np.uint8)).tolist() == [1]
    eye = BinaryMatrix.from_dense(np.eye(2, dtype=int))
    assert mat_vec_mod2(eye, np.array([1, 0], dtype=np.uint8)).tolist() == [1, 0]


def test_mat_vec_dimension_mismatch():
    m = BinaryMatrix.from_dense(np.eye(3, dtype=int))
    # a wrong last-axis length, on a vector or on rows, and 0-D and 3-D input
    for bad in (np.zeros(2, np.uint8), np.zeros((4, 2), np.uint8), np.zeros((4, 4), np.uint8),
                np.zeros((0, 2), np.uint8), np.uint8(0), np.zeros((2, 4, 3), np.uint8),
                np.zeros((1, 1, 3), np.uint8)):
        with pytest.raises(ValueError, match="does not match"):
            mat_vec_mod2(m, bad)


def test_mat_vec_weight_one_error_on_bb72(bb72):
    # every data qubit is adjacent to exactly three Z-checks
    v = vec_from_support(72, [0])
    s = mat_vec_mod2(bb72.hz, v)
    assert int(s.sum()) == 3


def test_mat_vec_linearity():
    rng = np.random.default_rng(5)
    m = BinaryMatrix.from_dense(rng.integers(0, 2, size=(13, 21)))
    for _ in range(50):
        v = rng.integers(0, 2, size=21).astype(np.uint8)
        w = rng.integers(0, 2, size=21).astype(np.uint8)
        lhs = mat_vec_mod2(m, v ^ w)
        rhs = mat_vec_mod2(m, v) ^ mat_vec_mod2(m, w)
        assert np.array_equal(lhs, rhs)


def test_mat_vec_matches_dense_oracle():
    # seeded random matrices, with empty rows and columns, and the 0xn and
    # nx0 shapes, against a plain dense integer product
    rng = np.random.default_rng(17)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1)] + [
        (int(rng.integers(1, 15)), int(rng.integers(1, 25))) for _ in range(40)
    ]
    for rows, cols in shapes:
        a = (rng.random((rows, cols)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        if rows > 1 and cols > 1:
            a[rng.integers(rows)] = 0
            a[:, rng.integers(cols)] = 0
        m = BinaryMatrix.from_dense(a)
        for _ in range(5):
            v = rng.integers(0, 2, size=cols).astype(np.uint8)
            out = mat_vec_mod2(m, v)
            assert out.dtype == np.uint8 and out.shape == (rows,)
            expected = (a.astype(np.int64) @ v.astype(np.int64)) % 2
            assert np.array_equal(out, expected)
        with pytest.raises(ValueError):
            mat_vec_mod2(m, np.zeros(cols + 1, dtype=np.uint8))


@st.composite
def _matrix_and_rows(draw):
    """A random dense 0/1 matrix, some of its rows and columns emptied, and
    k in {0, 1, several} vectors of its column count with entries 0-3."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.sampled_from([0, 1, 2, 7]))
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < rng.uniform(0.05, 0.7)).astype(np.uint8)
    a[rng.random(rows) < 0.2] = 0
    a[:, rng.random(cols) < 0.2] = 0
    return a, rng.integers(0, 4, size=(k, cols)).astype(np.uint8)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_matrix_and_rows())
def test_mat_vec_on_rows_equals_the_stacked_vector_products(case):
    a, vs = case
    m = BinaryMatrix.from_dense(a)
    out = mat_vec_mod2(m, vs)
    assert out.dtype == np.uint8 and out.shape == (len(vs), a.shape[0]) and out.flags.c_contiguous
    stacked = np.array([mat_vec_mod2(m, v) for v in vs], dtype=np.uint8).reshape(out.shape)
    assert np.array_equal(out, stacked)
    assert np.array_equal(out, (vs.astype(np.int64) @ a.T.astype(np.int64)) % 2)


def test_rank_trivial_cases():
    assert rank_mod2(BinaryMatrix.from_dense(np.eye(2, dtype=int))) == 2
    assert rank_mod2(BinaryMatrix.from_dense(np.ones((2, 2), dtype=int))) == 1


def test_rank_matches_independent_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = rng.integers(0, 2, size=(rng.integers(1, 12), rng.integers(1, 12)))
        assert rank_mod2(BinaryMatrix.from_dense(a)) == dense_rank_oracle(a)


def test_rank_of_bb72_checks(bb72):
    # k = n - rank(hx) - rank(hz) = 72 - 30 - 30 = 12
    assert dense_rank_oracle(bb72.hx.to_dense()) == 30
    assert rank_mod2(bb72.hx) == 30
    assert rank_mod2(bb72.hz) == 30


def test_kernel_trivial_cases():
    assert kernel_basis_mod2(BinaryMatrix.from_dense(np.eye(3, dtype=int))) == []
    basis = kernel_basis_mod2(BinaryMatrix.from_dense([[1, 1]]))
    assert len(basis) == 1
    assert basis[0].tolist() == [1, 1]


def test_kernel_size_and_membership(bb72):
    basis = kernel_basis_mod2(bb72.hz)
    assert len(basis) == 72 - 30
    for v in basis:
        assert not mat_vec_mod2(bb72.hz, v).any()


def test_rank_plus_kernel_equals_cols():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 2, size=(rng.integers(1, 10), rng.integers(1, 14)))
        m = BinaryMatrix.from_dense(a)
        assert rank_mod2(m) + len(kernel_basis_mod2(m)) == m.cols


def test_quotient_trivial_cases():
    v = np.array([1, 0], dtype=np.uint8)
    assert quotient_basis([v], [v]) == []
    out = quotient_basis([], [v])
    assert len(out) == 1 and out[0].tolist() == [1, 0]


def test_quotient_containment_error():
    a = np.array([1, 0], dtype=np.uint8)
    b = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ValueError):
        quotient_basis([a], [b])


def test_quotient_gives_k_logical_representatives(bb72):
    hx_rows = list(bb72.hx.to_dense())
    reps = quotient_basis(hx_rows, kernel_basis_mod2(bb72.hz))
    assert len(reps) == 12


# --- exact outputs against dense oracles --------------------------------------


def dense_kernel_oracle(a: np.ndarray) -> list[np.ndarray]:
    """The kernel basis read off the dense reduced row echelon form: per free
    column, ascending, a 1 there and the free column's entry of each pivot
    row at that row's pivot column."""
    reduced, pivots = dense_rref(a)
    cols = reduced.shape[1]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        v[pivots] = reduced[: len(pivots), free]
        basis.append(v)
    return basis


def stacked_rank(vectors: list[np.ndarray], cols: int) -> int:
    return dense_rank_oracle(np.array(vectors, dtype=np.uint8).reshape(len(vectors), cols))


def dense_quotient_oracle(small, large, cols: int) -> list[np.ndarray]:
    """The vectors of large, in order, that raise the rank of small plus the
    vectors taken before them."""
    taken: list[np.ndarray] = []
    rank = stacked_rank(small, cols)
    for v in large:
        if stacked_rank(small + taken + [v], cols) > rank:
            taken.append(v)
            rank += 1
    return taken


def seeded_matrices(count: int) -> list[np.ndarray]:
    """Random dense 0/1 matrices with an empty row, an empty column and a
    dependent row where the shape allows, after the 0xn, nx0 and 0x0 shapes."""
    rng = np.random.default_rng(2024)
    shapes = [(0, 6), (6, 0), (0, 0), (1, 1), (1, 9), (9, 1)]
    shapes += [
        (int(rng.integers(1, 13)), int(rng.integers(1, 21))) for _ in range(count - len(shapes))
    ]
    out = []
    for rows, cols in shapes:
        a = (rng.random((rows, cols)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        if rows > 1 and cols > 1:
            a[rng.integers(rows)] = 0
            a[:, rng.integers(cols)] = 0
        if rows > 2:
            a[-1] = a[0] ^ a[1]
        out.append(a)
    return out


def test_rank_kernel_and_quotient_match_dense_oracles():
    rng = np.random.default_rng(7)
    for i, a in enumerate(seeded_matrices(400)):
        rows, cols = a.shape
        m = BinaryMatrix.from_dense(a)
        assert rank_mod2(m) == dense_rank_oracle(a)
        basis = kernel_basis_mod2(m)
        expected = dense_kernel_oracle(a)
        assert len(basis) == len(expected)
        for v, w in zip(basis, expected):
            assert v.dtype == np.uint8 and v.shape == (cols,)
            assert np.array_equal(v, w)
        if i % 4:
            continue
        # quotients of the row space (rows shuffled, so dependent and zero
        # rows come anywhere) by random subspaces of it
        large = [a[r] for r in rng.permutation(rows)]
        small = [np.bitwise_xor.reduce(a[rng.random(rows) < 0.4], axis=0) for _ in range(3)]
        out = quotient_basis(small, large)
        expected = dense_quotient_oracle(small, large, cols)
        assert len(out) == len(expected)
        for v, w in zip(out, expected):
            assert v.dtype == np.uint8 and np.array_equal(v, w)
        outside = [e for e in np.eye(cols, dtype=np.uint8) if stacked_rank(large + [e], cols)
                   > stacked_rank(large, cols)]
        if outside:
            with pytest.raises(ValueError):
                quotient_basis(outside[:1], large)


@pytest.mark.parametrize("name", sorted(LOGICAL_DIGESTS))
def test_standard_code_bases_match_dense_oracles(name):
    code = build_bb_code(STANDARD_CODES[name])
    kernels = {}
    for label, m in (("hx", code.hx), ("hz", code.hz)):
        kernels[label] = kernel_basis_mod2(m)
        expected = dense_kernel_oracle(m.to_dense())
        assert len(kernels[label]) == len(expected)
        assert all(np.array_equal(v, w) for v, w in zip(kernels[label], expected))
    hx_rows, hz_rows = list(code.hx.to_dense()), list(code.hz.to_dense())
    bases = (quotient_basis(hx_rows, kernels["hz"]), quotient_basis(hz_rows, kernels["hx"]))
    for basis, digest in zip(bases, LOGICAL_DIGESTS[name]):
        assert hashlib.sha256(b"".join(v.tobytes() for v in basis)).hexdigest() == digest


def test_sparse_text_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = BinaryMatrix.from_dense(rng.integers(0, 2, size=(7, 11)))
    path = tmp_path / "m.txt"
    save_matrix(m, str(path))
    assert load_matrix(str(path)) == m
    header = path.read_text().splitlines()[0]
    assert header == "7 11"


@pytest.mark.parametrize("data, line, message", [
    ("2 3\n0 \u0661\n", 2, "expected 'row col' in ASCII digits"),  # Arabic-Indic one
    ("2 3\n0 1_0\n", 2, "expected 'row col' in ASCII digits"),
    ("2 3\n0 x\n", 2, "expected 'row col' in ASCII digits"),
    ("2 3\n0 1\n\n5 1\n", 4, "entry (5, 1) outside 2x3 matrix"),
    ("2 3\n0 1\n1 2\n0 1\n", 4, "repeated entry (0, 1) (first at line 2)"),
    (b"2 3\n0 1\n1 \xff\n", 3, "not UTF-8 text"),
    ("", 1, "expected 'rows cols' header"),
    ("2 -3\n", 1, "expected 'rows cols' header"),
], ids=["unicode-digit", "underscore", "letter", "out-of-range", "repeated", "not-utf8", "empty",
     "negative"])
def test_load_matrix_names_the_line_of_malformed_input(tmp_path, data, line, message):
    path = tmp_path / "m.txt"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    with pytest.raises(ValueError) as err:
        load_matrix(str(path))
    assert str(err.value).startswith(f"{path}:{line}: {message}")


# numbers stay below 10**4, so that no header asks for a huge matrix
_MATRIX_PAIRS = st.builds("{} {}".format, st.integers(0, 6), st.integers(0, 6)).map(str.encode)
_MATRIX_JUNK = st.text(alphabet="0123456789-+_x. \t\u0661\u00b2\uff11", min_size=1, max_size=4)
_MATRIX_LINES = st.one_of(
    _MATRIX_PAIRS,
    st.just(b""),
    st.lists(st.integers(0, 12).map(str) | _MATRIX_JUNK, max_size=3).map(" ".join).map(str.encode),
    st.builds(bytes.__add__, st.sampled_from([b"1 ", b""]), st.sampled_from([b"\xff", b"\xc3"])),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_MATRIX_PAIRS | _MATRIX_LINES, st.lists(_MATRIX_PAIRS | _MATRIX_LINES, max_size=5),
       st.booleans())
def test_load_matrix_raises_only_line_numbered_errors(header, lines, final_newline):
    data = b"\n".join([header, *lines]) + (b"\n" if final_newline else b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.txt")
        Path(path).write_bytes(data)
        try:
            m = load_matrix(path)
        except ValueError as err:
            message = str(err)
            assert message.startswith(f"{path}:")
            line = message[len(path) + 1:].split(":", 1)[0]
            assert line.isdigit() and 1 <= int(line) <= max(1, len(data.splitlines()))
        else:
            header = data.splitlines()[0].split()
            assert (m.rows, m.cols) == (int(header[0]), int(header[1]))
