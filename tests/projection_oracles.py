"""Reference implementations of the image walk, kept for the tests to compare
against: the whole chart walked once, indexed by chart codes, and each
T's cell read from it by code (``_image_bits`` walks each cell in place)."""

import itertools

from lgrpauli.projection import _gray_walk, clifford_gates


def chart_points(n_qubits: int) -> list[int]:
    """Entry c is the chart point of the symmetric matrix A with code c,
    bit k of c the entry flipped by gate k of ``clifford_gates(n)[n:]``
    (a_ii by S_i, then a_ij = a_ji by CZ_ij), walked from x_{} = 1."""
    return _gray_walk([(g,) for g in clifford_gates(n_qubits)[n_qubits:]], 1)


def _chart_cell(n: int, t: int) -> list[int]:
    """The codes of the symmetric A with a_ij = 0 whenever max(i, j) is in T."""
    cell = [0]
    for k, top in enumerate([*range(n), *(j for _, j in itertools.combinations(range(n), 2))]):
        if not t >> top & 1:
            cell += [c | 1 << k for c in cell]  # doubled over the free entries
    return cell
