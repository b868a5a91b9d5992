import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbdecode.bbcodes import (
    BBCodeSpec,
    CSSCode,
    Monomial,
    STANDARD_CODES,
    build_bb_code,
    load_code_spec,
    spec_from_dict,
)
from cbdecode.gf2 import BinaryMatrix, rank_mod2


def dense_oracle(spec: BBCodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """hx and hz built densely, each term a Kronecker product of rolled identities."""
    l, m = spec.l, spec.m

    def term(t: Monomial) -> np.ndarray:
        if t.variable == "x":
            shift = np.roll(np.eye(l, dtype=np.uint8), t.power % l, axis=1)
            return np.kron(shift, np.eye(m, dtype=np.uint8))
        shift = np.roll(np.eye(m, dtype=np.uint8), t.power % m, axis=1)
        return np.kron(np.eye(l, dtype=np.uint8), shift)

    a = np.zeros((l * m, l * m), dtype=np.uint8)
    b = np.zeros((l * m, l * m), dtype=np.uint8)
    for t in spec.a_terms:
        a ^= term(t)
    for t in spec.b_terms:
        b ^= term(t)
    return np.hstack([a, b]), np.hstack([b.T, a.T])


def random_specs(seed: int, count: int) -> list[BBCodeSpec]:
    """Seeded specs with exponents up to twice the modulus, so reduced terms coincide."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        l, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        terms = []
        for _ in range(6):
            var = "x" if rng.integers(0, 2) else "y"
            terms.append(Monomial(var, int(rng.integers(0, 2 * (l if var == "x" else m) + 1))))
        try:
            specs.append(BBCodeSpec(l, m, tuple(terms[:3]), tuple(terms[3:])))
        except ValueError:
            continue  # duplicate terms drawn
    return specs


def coinciding(spec: BBCodeSpec) -> bool:
    """True if two terms of A or of B are the same lattice shift once reduced."""
    def shift(t: Monomial) -> tuple[int, int]:
        return (t.power % spec.l, 0) if t.variable == "x" else (0, t.power % spec.m)

    return any(len({shift(t) for t in terms}) < 3 for terms in (spec.a_terms, spec.b_terms))


def spec(l: int, m: int, a_terms: list[str], b_terms: list[str], **extra) -> BBCodeSpec:
    """A spec through `spec_from_dict`, the parser spec files and the CLI use."""
    return spec_from_dict({"l": l, "m": m, "a_terms": a_terms, "b_terms": b_terms, **extra})


CANCELLING = [
    # x^0 and y^0 are both the identity, x^6 is x^0 on l = 6
    spec(6, 6, ["x^0", "y^0", "x"], ["y^3", "x^6", "x^0"]),
    # all three A terms are the identity: A = I
    spec(6, 4, ["x^0", "y^0", "x^12"], ["y^4", "x", "x^2"]),
    # the 1x1 lattice: every term is the identity
    spec(1, 1, ["x^3", "y", "y^2"], ["y^3", "x", "x^2"]),
]


@pytest.mark.parametrize(
    "spec",
    [*STANDARD_CODES.values(), *CANCELLING, *random_specs(23, 60)],
    ids=[*STANDARD_CODES, "identities", "a-identity", "1x1", *(f"random{i}" for i in range(60))],
)
def test_check_matrices_match_dense_oracle(spec):
    code = build_bb_code(spec)
    hx, hz = dense_oracle(spec)
    assert code.n == 2 * spec.l * spec.m
    assert np.array_equal(code.hx.to_dense(), hx)
    assert np.array_equal(code.hz.to_dense(), hz)
    code.validate()


def test_random_specs_include_coinciding_terms():
    assert sum(map(coinciding, random_specs(23, 60))) >= 20
    assert all(map(coinciding, CANCELLING))


# sha256 of the concatenated logical_x and logical_z bytes, pinned from the
# dense construction this package used before it built codes by index arithmetic
LOGICAL_DIGESTS = {
    "bb72": (
        "016c7b74a84a51f1b731772835bf3d77788189ea623848c0aff92197d68d337e",
        "073b2ae692fc2aa97f591bac963b96a5d68eda3d89b942b3fb0f59180970f23e",
    ),
    "bb108": (
        "55c8cbcd494f9be540684949bb161b8539d5815905c42734c4e10a43dbdb3066",
        "20e2100fe6f3665c1e687c8494d3e42e21d5ae77156c9be863a9a00a6e74083c",
    ),
    "bb144": (
        "f67b815bf1a7003eb3e8ae7b25dd0125a828c2f0608829c9f8dc5b61f77ad92b",
        "99c2d7642a41a4dd9c28e3ecc41cba27b49f0439d08367278df1faf698024e5c",
    ),
}


@pytest.mark.parametrize("name", sorted(LOGICAL_DIGESTS))
def test_logical_basis_digests(name):
    code = build_bb_code(STANDARD_CODES[name])
    for basis, digest in zip((code.logical_x, code.logical_z), LOGICAL_DIGESTS[name]):
        assert all(v.dtype == np.uint8 and v.shape == (code.n,) for v in basis)
        assert hashlib.sha256(b"".join(v.tobytes() for v in basis)).hexdigest() == digest


def construction_digest(code: CSSCode) -> str:
    """sha256 of everything a built code holds: the hx and hz row supports,
    the logical_x and logical_z bytes in order, n, k and distance."""
    h = hashlib.sha256()
    for matrix in (code.hx, code.hz):
        h.update(repr((matrix.rows, matrix.cols, matrix.row_support)).encode())
    for basis in (code.logical_x, code.logical_z):
        assert all(v.dtype == np.uint8 and v.shape == (code.n,) for v in basis)
        h.update(len(basis).to_bytes(4, "little") + b"".join(v.tobytes() for v in basis))
    h.update(repr((code.n, code.k, code.distance)).encode())
    return h.hexdigest()


STANDARD_A, STANDARD_B = ["x^3", "y", "y^2"], ["y^3", "x", "x^2"]
PINNED_SPECS = {
    "bb72": spec(6, 6, STANDARD_A, STANDARD_B, distance=6, name="bb72"),
    "bb108": spec(9, 6, STANDARD_A, STANDARD_B, distance=10, name="bb108"),
    "bb144": spec(12, 6, STANDARD_A, STANDARD_B, distance=12, name="bb144"),
    "identities": CANCELLING[0],
    "a-identity": CANCELLING[1],
    "1x1": CANCELLING[2],
}
# pinned before CSSCode derived n and k and construction ran two eliminations
CONSTRUCTION_DIGESTS = {
    "bb72": "4d77ab7b7f53a3ff25f456740879de1e75a51da6054a591e1b20217f76204884",
    "bb108": "3ce1da2174a740e05b39d6cb59188f0f333973a0a401db0b0240532eaf7f4c4d",
    "bb144": "e56d972ea18213c3e45cfc1a9795522e161d06acf789807040581de31ac86854",
    "identities": "030ce6c3b3eb21c98d13d164381e177e61d23193bb45bcfeca4bc55826c48b92",
    "a-identity": "58a700b83df1f22b347904289149f4d9ff587da9180c27ff4c4c3af32b24a107",
    "1x1": "6b1b22611e55ed30e4f39ec9b124bb7f4766cea8b4f6e79bea0dc8d81e3b8ba8",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_DIGESTS))
def test_construction_outputs_are_pinned(name):
    assert construction_digest(build_bb_code(PINNED_SPECS[name])) == CONSTRUCTION_DIGESTS[name]
    if name in STANDARD_CODES:
        assert STANDARD_CODES[name] == PINNED_SPECS[name]


def test_construction_needs_no_dense_matrix(monkeypatch):
    def no_dense(*args):
        raise AssertionError("dense matrix requested")

    monkeypatch.setattr(BinaryMatrix, "to_dense", no_dense)
    monkeypatch.setattr(BinaryMatrix, "from_dense", classmethod(no_dense))
    for spec in (STANDARD_CODES["bb72"], *CANCELLING):
        build_bb_code(spec).validate()


def test_validate_rejects_anticommuting_checks():
    # the second hz row overlaps the hx row in one column
    hx = BinaryMatrix(1, 4, [(0, 0), (0, 1)])
    hz = BinaryMatrix(2, 4, [(0, 0), (0, 1), (1, 1), (1, 2)])
    with pytest.raises(AssertionError, match="hx hz"):
        CSSCode(hx=hx, hz=hz).validate()


def test_validate_checks_under_python_optimize():
    # the checks are explicit raises, so -O, which strips asserts, keeps them
    script = (
        "import dataclasses\n"
        "from cbdecode.bbcodes import STANDARD_CODES, build_bb_code\n"
        "bb72 = build_bb_code(STANDARD_CODES['bb72'])\n"
        "try:\n"
        "    dataclasses.replace(bb72, logical_x=bb72.logical_x[:-1]).validate()\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: k != n - ranks")


def test_monomial_parsing():
    assert Monomial.parse("x^3") == Monomial("x", 3)
    assert Monomial.parse("y") == Monomial("y", 1)
    assert str(Monomial.parse("y^2")) == "y^2"
    with pytest.raises(ValueError):
        Monomial.parse("z^2")
    with pytest.raises(ValueError):
        Monomial.parse("x^-1")
    for value in (3, None, ["x"]):
        with pytest.raises(ValueError, match="cannot parse monomial"):
            Monomial.parse(value)


@pytest.mark.parametrize(
    "name,n,k",
    [("bb72", 72, 12), ("bb108", 108, 8), ("bb144", 144, 12)],
)
def test_standard_code_parameters(name, n, k):
    code = build_bb_code(STANDARD_CODES[name])
    assert code.n == n and code.k == k
    code.validate()


def test_check_row_and_column_weights(bb72):
    assert set(bb72.hx.row_weights()) == {6}
    assert set(bb72.hz.row_weights()) == {6}
    # per matrix each qubit column touches 3 checks; 3 X plus 3 Z in total
    assert set(bb72.hx.col_weights()) == {3}
    assert set(bb72.hz.col_weights()) == {3}


def test_css_commutation_for_random_specs():
    rng = np.random.default_rng(17)
    built = 0
    while built < 10:
        l = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        terms = []
        for _ in range(6):
            var = "x" if rng.integers(0, 2) else "y"
            terms.append(Monomial(var, int(rng.integers(0, l if var == "x" else m))))
        try:
            spec = BBCodeSpec(l, m, tuple(terms[:3]), tuple(terms[3:]))
        except ValueError:
            continue  # duplicate terms drawn
        code = build_bb_code(spec)
        hx = code.hx.to_dense().astype(np.uint32)
        hz = code.hz.to_dense().astype(np.uint32)
        assert not ((hx @ hz.T) & 1).any()
        built += 1


def test_logical_pairing_is_full_rank(bb72):
    pairing = np.array(
        [
            [int(np.dot(lx.astype(int), lz.astype(int))) % 2 for lz in bb72.logical_z]
            for lx in bb72.logical_x
        ]
    )
    assert rank_mod2(BinaryMatrix.from_dense(pairing)) == bb72.k
    # each logical_z representative anticommutes with at least one logical_x
    assert pairing.any(axis=0).all()


def test_duplicate_monomials_rejected():
    with pytest.raises(ValueError):
        spec(6, 6, ["x^3", "x^3", "y"], ["y^3", "x", "x^2"])


def test_exponent_reduction():
    # x^9 on an l=6 lattice is x^3
    a = spec(6, 6, ["x^9", "y", "y^2"], ["y^3", "x", "x^2"])
    b = STANDARD_CODES["bb72"]
    assert build_bb_code(a).hx == build_bb_code(b).hx


def test_degenerate_code_builds():
    code = build_bb_code(spec(1, 1, ["x^3", "y", "y^2"], ["y^3", "x", "x^2"]))
    assert code.n == 2 and code.k == 0
    assert code.hx.to_dense().tolist() == [[1, 1]]


def test_load_code_spec(tmp_path):
    path = tmp_path / "code.yaml"
    path.write_text(
        "l: 6\nm: 6\na_terms: [x^3, y, y^2]\nb_terms: [y^3, x, x^2]\ndistance: 6\n"
    )
    assert load_code_spec(str(path)) == BBCodeSpec(
        6, 6, (Monomial("x", 3), Monomial("y", 1), Monomial("y", 2)),
        (Monomial("y", 3), Monomial("x", 1), Monomial("x", 2)), distance=6,
    )
    bad = tmp_path / "bad.yaml"
    bad.write_text("l: 6\nm: 6\n")
    with pytest.raises(ValueError):
        load_code_spec(str(bad))


SPEC = {"l": 6, "m": 6, "a_terms": ["x^3", "y", "y^2"], "b_terms": ["y^3", "x", "x^2"]}


@pytest.mark.parametrize("key, value", [
    pytest.param("l", None, id="l-null"),
    pytest.param("l", "6", id="l-string"),
    pytest.param("m", 6.5, id="m-float"),
    pytest.param("distance", "six", id="distance-string"),
    pytest.param("distance", None, id="distance-null"),
    pytest.param("distance", True, id="distance-bool"),
    pytest.param("a_terms", ["x^3", 3, "y^2"], id="a_terms-number"),
    pytest.param("a_terms", None, id="a_terms-null"),
    pytest.param("b_terms", "y^3", id="b_terms-string"),
])
def test_spec_from_dict_names_the_malformed_key(key, value):
    with pytest.raises(ValueError, match=f"code spec key '{key}'"):
        spec_from_dict({**SPEC, key: value})


def test_shipped_code_spec_is_bb72():
    path = Path(__file__).resolve().parents[1] / "configs" / "bb72.yaml"
    assert load_code_spec(str(path)) == STANDARD_CODES["bb72"]
