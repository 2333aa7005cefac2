import itertools

import numpy as np
import pytest

from mskit.brauer import (WalledBrauerDiagram, all_diagrams, compose, dagger,
                          format_diagram, from_permutation, identity,
                          parse_diagram, partial_transpose, represent)
from mskit.bratteli import CapExceeded
from mskit.rand import haar_unitary, rng_from_seed


def cup_cap():
    # top pair t1-t2, bottom pair b1-b2 on (n, m) = (1, 1)
    return parse_diagram("t1-t2,b1-b2", 1, 1)


def perm_matrix(perm, d):
    N = len(perm)
    M = np.zeros((d ** N, d ** N))
    for i in itertools.product(range(d), repeat=N):
        j = [0] * N
        for a, b in enumerate(perm):
            j[b] = i[a]
        r = int(np.ravel_multi_index(j, (d,) * N))
        c = int(np.ravel_multi_index(i, (d,) * N))
        M[r, c] = 1.0
    return M


def test_wall_constraints_enforced():
    # same-row pair on one side of the wall
    with pytest.raises(ValueError):
        WalledBrauerDiagram(2, 0, (1, 0, 3, 2))
    # cross-row pair crossing the wall
    with pytest.raises(ValueError):
        WalledBrauerDiagram(1, 1, (3, 2, 1, 0))
    # not an involution
    with pytest.raises(ValueError):
        WalledBrauerDiagram(1, 1, (1, 2, 3, 0))


def test_identity_and_text_round_trip():
    e = identity(2, 1)
    assert format_diagram(e) == "t1-b1,t2-b2,t3-b3"
    assert parse_diagram(format_diagram(e), 2, 1) == e
    cc = cup_cap()
    assert parse_diagram(format_diagram(cc), 1, 1) == cc
    with pytest.raises(ValueError):
        parse_diagram("t1-b1", 1, 1)


def test_from_permutation():
    assert from_permutation((0, 1), 2, 0) == identity(2, 0)
    assert from_permutation((1, 0), 2, 0) == parse_diagram("t1-b2,t2-b1", 2, 0)
    # swapping across the wall transposes into the cup-cap diagram
    assert from_permutation((1, 0), 1, 1) == cup_cap()
    # the identity permutation stays the identity diagram
    assert from_permutation((0, 1), 1, 1) == identity(1, 1)
    with pytest.raises(ValueError):
        from_permutation((0, 0), 1, 1)


def test_partial_transpose_inverts_from_permutation():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        for perm in itertools.permutations(range(n + m)):
            sigma = from_permutation(perm, n, m)
            assert partial_transpose(sigma) == perm


def matrix_partial_transpose(M, n, m, d):
    """Transpose the last m tensor legs of a matrix on (C^d)^(n+m)."""
    N = n + m
    T = M.reshape((d,) * N + (d,) * N)
    for c in range(n, N):
        T = np.swapaxes(T, c, N + c)
    return T.reshape(d ** N, d ** N)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
def test_diagram_transpose_matches_matrix_transpose(n, m):
    # the diagram-level endpoint exchange realizes the matrix-level partial
    # transpose: psi(sigma)^T_(last m) is the permutation operator of
    # partial_transpose(sigma)
    d = 2
    for sigma in all_diagrams(n, m):
        perm = partial_transpose(sigma)
        got = matrix_partial_transpose(represent(sigma, d).toarray(), n, m, d)
        assert np.array_equal(got, perm_matrix(perm, d))


def test_permutation_round_trip():
    for perm in itertools.permutations(range(3)):
        sigma = from_permutation(perm, 2, 1)
        assert partial_transpose(sigma) == perm


def test_represent_identity_and_cupcap():
    d = 3
    assert np.array_equal(represent(identity(1, 1), d).toarray(), np.eye(d * d))
    cc = represent(cup_cap(), d).toarray()
    expected = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            expected[i * d + i, j * d + j] = 1.0
    assert np.array_equal(cc, expected)


def test_represent_counts():
    assert len(all_diagrams(1, 1)) == 2
    assert len(all_diagrams(2, 1)) == 6
    assert len(all_diagrams(2, 2)) == 24


def test_compose_identity_and_loops():
    e = identity(1, 1)
    cc = cup_cap()
    for sigma in all_diagrams(1, 1):
        assert compose(e, sigma) == (sigma, 0)
        assert compose(sigma, e) == (sigma, 0)
    assert compose(cc, cc) == (cc, 1)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
@pytest.mark.parametrize("d", [2, 3])
def test_representation_homomorphism(n, m, d):
    diagrams = all_diagrams(n, m)
    mats = {s: represent(s, d).toarray() for s in diagrams}
    rng = rng_from_seed(5)
    pairs = list(itertools.product(diagrams, diagrams))
    if len(pairs) > 200:
        pairs = [pairs[i] for i in rng.choice(len(pairs), 200, replace=False)]
    for s1, s2 in pairs:
        s, loops = compose(s1, s2)
        assert np.array_equal(mats[s1] @ mats[s2], d ** loops * mats[s])


def test_dagger_is_adjoint():
    d = 2
    for sigma in all_diagrams(2, 1):
        assert np.array_equal(represent(dagger(sigma), d).toarray(),
                              represent(sigma, d).toarray().T)


@pytest.mark.parametrize("n,m,d", [(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 2, 2)])
def test_commutes_with_mixed_tensor(n, m, d):
    rng = rng_from_seed(3)
    worst = 0.0
    for sigma in all_diagrams(n, m):
        A = represent(sigma, d).toarray()
        for _ in range(20):
            U = haar_unitary(d, rng)
            T = np.eye(1)
            for _ in range(n):
                T = np.kron(T, U)
            for _ in range(m):
                T = np.kron(T, U.conj())
            worst = max(worst, np.abs(A @ T - T @ A).max())
    assert worst < 1e-10


def test_fig_delta_pattern():
    # diagram with pairs t1-b1, t2-b3, t3-t4, t5-b4, b2-b5 on (3, 2)
    sigma = parse_diagram("t1-b1,t2-b3,t3-t4,t5-b4,b2-b5", 3, 2)
    d = 2
    M = represent(sigma, d).toarray()
    for i in itertools.product(range(d), repeat=5):
        for j in itertools.product(range(d), repeat=5):
            expected = float(i[0] == j[0] and i[1] == j[2] and i[2] == i[3]
                             and i[4] == j[3] and j[1] == j[4])
            r = int(np.ravel_multi_index(j, (d,) * 5))
            c = int(np.ravel_multi_index(i, (d,) * 5))
            assert M[r, c] == expected


def test_represent_cap():
    with pytest.raises(CapExceeded):
        represent(identity(3, 3), 5, cap=4096)
