"""Construct the three bivariate-bicycle codes and inspect their structure.

Each code is defined by lattice sizes (l, m) and two three-term polynomials
in the commuting shift operators x and y.  The check matrices come out as
hx = [A | B] and hz = [B^T | A^T]; logical operator bases are extracted by
completing the stabilizer row spaces inside the opposite kernels.
"""

import os
import tempfile

import numpy as np

from cbdecode import BinaryMatrix, STANDARD_CODES, build_bb_code, rank_mod2, save_matrix

for name, spec in STANDARD_CODES.items():
    code = build_bb_code(spec)
    print(f"{name}: [[{code.n}, {code.k}, {code.distance}]]  "
          f"(l={spec.l}, m={spec.m}, A={'+'.join(map(str, spec.a_terms))}, "
          f"B={'+'.join(map(str, spec.b_terms))})")
    print(f"  hx: {code.hx.rows}x{code.hx.cols}, rank {rank_mod2(code.hx)}, "
          f"row weight {set(code.hx.row_weights())}, column weight {set(code.hx.col_weights())}")

    # CSS invariants: hx hz^T = 0 over GF(2), k = n - rank hx - rank hz, and
    # each logical basis lies in the kernel of the opposite check matrix
    code.validate()

    # the symplectic pairing between the logical bases has full rank k
    pairing = np.array(
        [[np.dot(lx.astype(int), lz.astype(int)) % 2 for lz in code.logical_z]
         for lx in code.logical_x], dtype=np.uint8)
    assert rank_mod2(BinaryMatrix.from_dense(pairing)) == code.k
    print(f"  logical bases: {code.k} X and {code.k} Z representatives, pairing full rank")

# check matrices export to a plain sparse text format: "rows cols" then "r c" lines
code = build_bb_code(STANDARD_CODES["bb72"])
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bb72_hz.txt")
    save_matrix(code.hz, path)
    print(f"\nwrote {path} (sparse text format)")
