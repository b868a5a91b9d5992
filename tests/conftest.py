import numpy as np
import pytest

from cbdecode.bbcodes import STANDARD_CODES, build_bb_code


@pytest.fixture(scope="session")
def bb72():
    return build_bb_code(STANDARD_CODES["bb72"])


@pytest.fixture(scope="session")
def bb108():
    return build_bb_code(STANDARD_CODES["bb108"])


@pytest.fixture(scope="session")
def bb144():
    return build_bb_code(STANDARD_CODES["bb144"])


def dense_rref(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Independent GF(2) reduced row echelon form by plain dense row
    reduction: the reduced rows (nonzero rows first) and the pivot columns."""
    a = np.array(arr, dtype=np.uint8) % 2
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        pivot = None
        for r in range(rank, rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        pivots.append(c)
    return a, pivots


def dense_rank_oracle(arr: np.ndarray) -> int:
    """Independent GF(2) rank by plain dense row reduction."""
    return len(dense_rref(arr)[1])
