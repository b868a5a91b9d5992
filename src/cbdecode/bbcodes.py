"""Bivariate-bicycle CSS code construction.

A code is defined by integers (l, m) and two weight-3 polynomials A, B in the
commuting cyclic-shift operators x = S_l (x) I_m and y = I_l (x) S_m.  With
lattice index u*m + v, the monomial x^a y^b is the permutation taking (u, v)
to ((u+a) mod l, (v+b) mod m), so A and B are built from index arithmetic
alone.  The check matrices are hx = [A | B] and hz = [B^T | A^T]; logical
operator bases are completions of the stabilizer row spaces inside the
opposite kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .gf2 import (
    BinaryMatrix, kernel_basis_mod2, mat_vec_mod2, quotient_basis, rank_mod2, vec_from_support,
)

_MONOMIAL_RE = re.compile(r"^([xy])(?:\^(\d+))?$")


@dataclass(frozen=True)
class Monomial:
    """A power of x or y, e.g. x^3 or y (power 1)."""

    variable: str
    power: int

    def __post_init__(self):
        if self.variable not in ("x", "y"):
            raise ValueError(f"monomial variable must be x or y, got {self.variable!r}")
        if self.power < 0:
            raise ValueError("monomial power must be nonnegative")

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        m = _MONOMIAL_RE.match(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ValueError(f"cannot parse monomial {text!r} (expected e.g. 'x^3' or 'y')")
        return cls(m.group(1), int(m.group(2)) if m.group(2) else 1)

    def __str__(self):
        return self.variable if self.power == 1 else f"{self.variable}^{self.power}"


@dataclass(frozen=True)
class BBCodeSpec:
    """(l, m) lattice sizes plus the three-term polynomials A and B.

    Terms must be pairwise distinct as written; exponents are reduced modulo
    l (for x) and m (for y) when the matrices are evaluated.
    """

    l: int
    m: int
    a_terms: tuple[Monomial, Monomial, Monomial]
    b_terms: tuple[Monomial, Monomial, Monomial]
    distance: int | None = None
    name: str = ""

    def __post_init__(self):
        if self.l < 1 or self.m < 1:
            raise ValueError("l and m must be positive")
        for label, terms in (("a_terms", self.a_terms), ("b_terms", self.b_terms)):
            if len(terms) != 3:
                raise ValueError(f"{label} must have exactly three monomials")
            if len(set(terms)) != 3:
                raise ValueError(f"duplicate monomials in {label}")


@dataclass
class CSSCode:
    """Paired X/Z parity-check matrices and logical operator bases; n and k are derived."""

    hx: BinaryMatrix
    hz: BinaryMatrix
    logical_x: list[np.ndarray] = field(default_factory=list)
    logical_z: list[np.ndarray] = field(default_factory=list)
    distance: int | None = None

    @property
    def n(self) -> int:
        return self.hx.cols

    @property
    def k(self) -> int:
        return len(self.logical_x)

    def validate(self) -> None:
        """Check the CSS invariants; raises AssertionError, even under `python -O`."""
        _check(self.hx.cols == self.hz.cols, "hx and hz must have n columns")
        for cs in self.hz.row_support:
            _check(not mat_vec_mod2(self.hx, vec_from_support(self.n, cs)).any(),
                   "hx hz^T != 0 (mod 2)")
        _check(self.k == self.n - rank_mod2(self.hx) - rank_mod2(self.hz), "k != n - ranks")
        _check(len(self.logical_z) == self.k, "need k logical pairs")
        for v in self.logical_z:
            _check(not mat_vec_mod2(self.hx, v).any(), "logical_z outside ker(hx)")
        for v in self.logical_x:
            _check(not mat_vec_mod2(self.hz, v).any(), "logical_x outside ker(hz)")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _polynomial(terms: tuple[Monomial, ...], l: int, m: int) -> set[tuple[int, int]]:
    """Nonzero (row, col) entries of the mod-2 sum of the terms' permutations.

    Terms that coincide once reduced mod l or m cancel in pairs.
    """
    entries: set[tuple[int, int]] = set()
    for t in terms:
        a, b = (t.power, 0) if t.variable == "x" else (0, t.power)
        entries ^= {
            (u * m + v, (u + a) % l * m + (v + b) % m) for u in range(l) for v in range(m)
        }
    return entries


def build_bb_code(spec: BBCodeSpec) -> CSSCode:
    """Construct the CSS code for a bivariate-bicycle spec.

    n = 2 l m, hx = [A | B], hz = [B^T | A^T] with A and B the mod-2 sums of
    the evaluated polynomial terms.  Logical bases are completion bases: the
    kernel of one check matrix quotiented by the row space of the other.
    k = n - rank hx - rank hz is read off the kernels as |ker hx| + |ker hz| - n.
    """
    l, m = spec.l, spec.m
    half, n = l * m, 2 * l * m
    a = _polynomial(spec.a_terms, l, m)
    b = _polynomial(spec.b_terms, l, m)
    hx = BinaryMatrix(half, n, [*a, *((r, half + c) for r, c in b)])
    hz = BinaryMatrix(half, n, [*((c, r) for r, c in b), *((c, half + r) for r, c in a)])
    ker_hx, ker_hz = kernel_basis_mod2(hx), kernel_basis_mod2(hz)
    k = len(ker_hx) + len(ker_hz) - n
    hx_rows = [vec_from_support(n, cs) for cs in hx.row_support]
    hz_rows = [vec_from_support(n, cs) for cs in hz.row_support]
    logical_z = quotient_basis(hz_rows, ker_hx)
    logical_x = quotient_basis(hx_rows, ker_hz)
    if len(logical_z) != k or len(logical_x) != k:
        raise RuntimeError("logical basis size does not match k")
    return CSSCode(hx, hz, logical_x, logical_z, spec.distance)


def spec_from_dict(data: dict) -> BBCodeSpec:
    """A spec from a mapping; a missing or malformed key raises ValueError naming it.

    l, m and the optional distance must be integers, and a_terms and b_terms
    lists of monomial strings.
    """
    for key in ("l", "m", "a_terms", "b_terms"):
        if key not in data:
            raise ValueError(f"code spec missing key {key!r}")
    for key in ("l", "m", "distance"):
        if key in data and type(data[key]) is not int:
            raise ValueError(f"code spec key {key!r} must be an integer, got {data[key]!r}")
    terms = []
    for key in ("a_terms", "b_terms"):
        if not isinstance(data[key], (list, tuple)):
            raise ValueError(f"code spec key {key!r} must be a list such as [x^3, y, y^2]")
        try:
            terms.append(tuple(Monomial.parse(t) for t in data[key]))
        except ValueError as exc:
            raise ValueError(f"code spec key {key!r}: {exc}") from None
    return BBCodeSpec(
        data["l"], data["m"], *terms, data.get("distance"), str(data.get("name", ""))
    )


def load_code_spec(path: str) -> BBCodeSpec:
    """Load a code spec file: keys l, m, a_terms, b_terms, optional distance."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: code spec must be a mapping")
    return spec_from_dict(data)


# The three codes used throughout the experiments: [[72,12,6]], [[108,8,10]]
# and [[144,12,12]], all sharing A = x^3 + y + y^2 and B = y^3 + x + x^2.
STANDARD_CODES: dict[str, BBCodeSpec] = {
    name: spec_from_dict({"l": l, "m": 6, "a_terms": ["x^3", "y", "y^2"],
                          "b_terms": ["y^3", "x", "x^2"], "distance": distance, "name": name})
    for name, l, distance in (("bb72", 6, 6), ("bb108", 9, 10), ("bb144", 12, 12))
}
