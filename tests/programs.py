"""Scenario programs for the tests, built from and read as plain blocks.

A block is (label, coeffs, rhs): one scenario's rows coeffs @ x <= rhs.
"""

import numpy as np

from scenopt.engine import ScenarioProgram


def program(cost, lower, upper, blocks):
    """The program over blocks in their given order; a block's coeffs may be
    one row and its rhs one number."""
    blocks = [(lab, np.array(a, dtype=float, ndmin=2),
               np.array(b, dtype=float, ndmin=1)) for lab, a, b in blocks]
    return ScenarioProgram(
        cost, lower, upper,
        labels=[lab for lab, _, _ in blocks],
        owners=[lab for lab, _, b in blocks for _ in b],
        coeffs=np.concatenate([a for _, a, _ in blocks]),
        rhs=np.concatenate([b for _, _, b in blocks]),
    )


def blocks(prog):
    """The program's blocks in ascending label order."""
    return [(lab, prog.coeffs[prog.owners == lab], prog.rhs[prog.owners == lab])
            for lab in sorted(prog.labels)]
