import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinspec.linalg import (
    AntiLinOp,
    DimensionMismatch,
    DENSE_EIG_CAP,
    LinOp,
    NonHermitianInput,
    adjoint,
    anticommutator,
    block_stacks,
    commutator,
    compose,
    conj_by_antilinear,
    eig_dense,
    eig_hermitian,
    masked_columns,
    nullspace,
    op_norm,
)


def shift(dim, step):
    """Index shift k -> k + step, entries dropped at the window edge."""
    return LinOp.from_triples(
        dim, [(k + step, k, 1.0) for k in range(dim) if 0 <= k + step < dim])


def opnorm_dense(a):
    return np.linalg.norm(a.to_dense(), 2)


def test_construction_dedups_and_drops_tiny_entries():
    a = LinOp(2, {0: [(0, 1.0), (0, 2.0)], 1: [(1, 1e-20)]})
    ent = a.entries()
    assert ent[0] == ((0, 3 + 0j),)
    assert 1 not in ent  # below 1e-14 * max modulus


def test_construction_rejects_out_of_range():
    with pytest.raises(DimensionMismatch):
        LinOp(2, {0: [(5, 1.0)]})


def test_compose_identity():
    x = LinOp.from_dense(np.array([[1, 2], [3, 4]], dtype=complex))
    assert np.allclose(compose(LinOp.identity(2), x).to_dense(), x.to_dense())


def test_compose_inverse_shifts_identity_on_interior():
    s_up, s_dn = shift(6, +1), shift(6, -1)
    prod = compose(s_dn, s_up).to_dense()
    # interior columns 0..4 reproduce the identity; the edge column is lost
    assert np.allclose(prod[:5, :5], np.eye(5))
    assert np.allclose(prod[:, 5], 0)


def test_compose_diagonals():
    d = LinOp.diagonal([1, 2j, -1])
    e = LinOp.diagonal([3, 1, 5])
    assert np.allclose(compose(d, e).to_dense(), np.diag([3, 2j, -5]))


def test_compose_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(LinOp.identity(2), LinOp.identity(3))


def test_adjoint_diag_and_involution():
    d = LinOp.diagonal([1j, 1j])
    assert np.allclose(adjoint(d).to_dense(), np.diag([-1j, -1j]))
    rng = np.random.default_rng(7)
    x = LinOp.from_dense(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert np.allclose(adjoint(adjoint(x)).to_dense(), x.to_dense())


def test_adjoint_of_shift_is_unitary_on_interior():
    u = shift(7, +1)
    prod = compose(adjoint(u), u).to_dense()
    assert np.allclose(prod[:6, :6], np.eye(6))


def test_commutator_self_and_identity():
    rng = np.random.default_rng(3)
    x = LinOp.from_dense(rng.standard_normal((4, 4)))
    assert commutator(x, x).nnz == 0
    assert commutator(LinOp.identity(4), x).nnz == 0


def test_commutator_number_operator_with_shift():
    # [diag(k), shift(+1)] on index k: entries (k+1) - k = +1 on the shift,
    # so the commutator is the shift itself (direct entrywise expansion).
    n = LinOp.diagonal(np.arange(6, dtype=float))
    s = shift(6, +1)
    assert np.allclose(commutator(n, s).to_dense(), s.to_dense())


def test_commutator_antisymmetry():
    rng = np.random.default_rng(11)
    a = LinOp.from_dense(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    b = LinOp.from_dense(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lhs = commutator(a, b).to_dense()
    assert np.allclose(lhs, -commutator(b, a).to_dense(), atol=1e-12)


def test_compose_associativity():
    rng = np.random.default_rng(13)
    ops = [LinOp.from_dense(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
           for _ in range(3)]
    a, b, c = ops
    left = compose(compose(a, b), c).to_dense()
    right = compose(a, compose(b, c)).to_dense()
    scale = max(np.abs(left).max(), 1.0)
    assert np.abs(left - right).max() <= 1e-12 * scale


def test_conj_by_antilinear_pure_conjugation():
    j = AntiLinOp(LinOp.identity(3))
    t = LinOp.diagonal([1j, 1j, 1j])
    assert np.allclose(conj_by_antilinear(j, t).to_dense(), np.diag([-1j, -1j, -1j]))


def test_conj_by_antilinear_identity_fixed():
    j = AntiLinOp(shift(4, +1) + shift(4, -3))  # cyclic permutation
    out = conj_by_antilinear(j, LinOp.identity(4))
    assert np.allclose(out.to_dense(), np.eye(4))


def test_conj_by_antilinear_permutation_case():
    # linear part: cycle 0->1->2->0 with a phase on one leg; t diagonal.
    perm = LinOp.from_triples(3, [(1, 0, 1.0), (2, 1, 1j), (0, 2, 1.0)])
    j = AntiLinOp(perm)
    t = LinOp.diagonal([1 + 1j, 2.0, 3j])
    got = conj_by_antilinear(j, t).to_dense()
    # By hand: J t J^{-1} = P conj(t) P^{-1} permutes the conjugated diagonal:
    # slot 1 <- conj(t_00), slot 2 <- conj(t_11), slot 0 <- conj(t_22).
    assert np.allclose(got, np.diag([-3j, 1 - 1j, 2.0]))


def test_antilinear_apply_conjugates():
    j = AntiLinOp(LinOp.identity(2))
    assert np.allclose(j.apply([1j, 2]), [-1j, 2])


def test_eig_dense_swap():
    res = eig_dense(LinOp.from_dense(np.array([[0, 1], [1, 0]], dtype=complex)))
    assert np.allclose(res.eigenvalues, [-1, 1])
    assert res.within(1e-12)


def test_eig_dense_offdiag_block():
    # [[0, dm], [dp, 0]] has eigenvalues +-sqrt(dp*dm) (characteristic
    # polynomial lambda^2 = dp*dm), imaginary when the product is negative.
    dp, dm = 3.0, -2.0
    res = eig_dense(LinOp.from_dense(np.array([[0, dm], [dp, 0]], dtype=complex)))
    root = np.sqrt(complex(dp * dm))
    assert np.allclose(sorted(res.eigenvalues, key=lambda z: z.imag), [-root, root])


def test_eig_dense_diag():
    res = eig_dense(LinOp.diagonal([3.0, 1.0, 2.0]))
    assert np.allclose(res.eigenvalues, [1, 2, 3])


def test_eig_dense_unitary_conjugation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(3):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        before = eig_dense(LinOp.from_dense(a)).eigenvalues
        after = eig_dense(LinOp.from_dense(q @ a @ q.conj().T)).eigenvalues
        assert np.allclose(np.sort_complex(before), np.sort_complex(after), atol=1e-8)


def test_eig_hermitian_sorted_and_checked():
    res = eig_hermitian(LinOp.diagonal([2.0, 1.0]))
    assert np.allclose(res.eigenvalues, [1, 2])
    res = eig_hermitian(LinOp.from_dense(np.array([[0, 1], [1, 0]], dtype=complex)))
    assert np.allclose(res.eigenvalues, [-1, 1])
    with pytest.raises(NonHermitianInput):
        eig_hermitian(LinOp.from_dense(np.array([[0, 1], [0, 0]], dtype=complex)))


def test_mean_curvature_positivity():
    # 0.5 (A A^dag + A^dag A) is positive semidefinite for any A.
    rng = np.random.default_rng(5)
    a = LinOp.from_dense(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    h = 0.5 * (a @ adjoint(a) + adjoint(a) @ a)
    vals = eig_hermitian(h).eigenvalues.real
    assert vals.min() >= -1e-10


def test_nullspace_single_row():
    basis = nullspace(np.array([[1.0, 1.0]]))
    assert basis.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(basis[:, 0] @ expected)
    assert abs(overlap - 1) < 1e-12


def test_nullspace_empty_rows_full_space():
    basis = nullspace(np.zeros((0, 4)))
    assert basis.shape == (4, 4)
    assert np.allclose(basis @ basis.T, np.eye(4))


def test_nullspace_second_difference_affine_kernel():
    # d_{k+1} - 2 d_k + d_{k-1} = 0 over window 0..5: solving the recursion
    # d_{k+1} = 2 d_k - d_{k-1} by hand gives exactly the affine sequences.
    n = 6
    rows = np.zeros((n - 2, n))
    for k in range(1, n - 1):
        rows[k - 1, k - 1], rows[k - 1, k], rows[k - 1, k + 1] = 1.0, -2.0, 1.0
    basis = nullspace(rows)
    assert basis.shape == (6, 2)
    for target in (np.ones(n), np.arange(n, dtype=float)):
        proj = basis @ (basis.T @ target)
        assert np.linalg.norm(proj - target) < 1e-10 * np.linalg.norm(target)


def test_nullspace_residual_property():
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((4, 9))
    basis = nullspace(rows)
    if basis.size:
        assert np.abs(rows @ basis).max() <= 1e-9 * np.linalg.norm(rows)


def test_op_norm_basics():
    assert op_norm(LinOp.identity(5)) == pytest.approx(1.0)
    assert op_norm(LinOp.diagonal([3.0, -4j])) == pytest.approx(4.0)
    assert op_norm(LinOp.zeros(8)) == 0.0


def test_op_norm_matches_dense_svd_large():
    rng = np.random.default_rng(29)
    dense = rng.standard_normal((300, 300)) * (rng.random((300, 300)) < 0.02)
    a = LinOp.from_dense(dense)
    assert op_norm(a) == pytest.approx(opnorm_dense(a), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_op_norm_exact_on_permuted_block_diagonal(shapes, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    diag = sp.block_diag(blocks).toarray()
    dim = max(diag.shape)
    dense = np.zeros((dim, dim), dtype=complex)
    dense[:diag.shape[0], :diag.shape[1]] = diag
    dense = dense[rng.permutation(dim)][:, rng.permutation(dim)]
    got = op_norm(LinOp.from_dense(dense))
    assert got == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


def test_block_stacks_reassemble_the_matrix():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.03)
    for square in (False, True):
        rebuilt = np.zeros_like(dense)
        seen = []
        for rows, cols, blocks in block_stacks(sp.csc_matrix(dense), square=square):
            assert blocks.shape == rows.shape + cols.shape[1:]
            for r, c, blk in zip(rows, cols, blocks):
                rebuilt[np.ix_(r, c)] += blk.real
                seen.extend(r)
        assert np.array_equal(rebuilt, dense)
        if square:
            assert sorted(seen) == list(range(40))  # every index in one block


def test_op_norm_rejects_oversize_component():
    dim = DENSE_EIG_CAP + 1
    chain = shift(dim, 1) + LinOp.identity(dim)
    with pytest.raises(DimensionMismatch, match=f"{dim}x{dim}"):
        op_norm(chain)
    # roundoff-level violations keep the rigorous Schur bound
    assert 0.0 < op_norm(1e-14 * chain) <= 2e-14


def test_masked_columns():
    a = LinOp.from_dense(np.arange(9, dtype=float).reshape(3, 3))
    m = masked_columns(a, [True, False, True]).to_dense()
    assert np.allclose(m[:, 1], 0)
    assert np.allclose(m[:, 0], [0, 3, 6])


def test_anticommutator():
    x = LinOp.from_dense(np.array([[0, 1], [1, 0]], dtype=complex))
    z = LinOp.from_dense(np.array([[1, 0], [0, -1]], dtype=complex))
    assert anticommutator(x, z).nnz == 0
