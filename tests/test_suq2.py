import numpy as np
import pytest

from kreinspec.linalg import LinOp, commutator, masked_columns, op_norm
from kreinspec.suq2 import (
    SuqParams,
    abs_sq_sector_values,
    arrow_matrices,
    build_suq2,
    qnum,
    sector_eigenvalues,
    suq2_abs_spectrum,
    suq2_boundedness_probe,
    suq2_dirac_spectrum,
)
from kreinspec.triples import check_order_one, run_suite


def test_one_form_norm_is_exact():
    # [D, pi(a)] on the depth-1 interior at Jcut=5 has clustered top
    # singular values, where iterative estimates stop short of the norm.
    b = build_suq2(SuqParams.reduced(q=0.5, J_cut=5.0))
    op = masked_columns(commutator(b.dirac, b.generator("a")), b.truncation.interior(1))
    want = np.linalg.norm(op.to_dense(), 2)
    assert want == pytest.approx(0.7905695, abs=1e-7)
    assert op_norm(op) == pytest.approx(want, rel=1e-12)


def test_qnumbers():
    assert qnum(2, 0.5) == pytest.approx(2.5)  # q + 1/q
    assert qnum(0, 0.5) == 0.0
    assert qnum(1, 0.7) == pytest.approx(1.0)
    for x in (0.5, 1.0, 2.5, 4.0):
        assert qnum(x, 0.3) > 0.0
        assert qnum(-x, 0.3) == pytest.approx(-qnum(x, 0.3))


def test_arrow_matrix_scalar_value():
    # upper-left of the j-raising a matrix at the origin:
    # q^{-1/4} [1]^{1/2} q^{-1/2} [3/2]^{1/2} / [2]
    q = 0.5
    mats = arrow_matrices(SuqParams.reduced(q=q, J_cut=1.0), 0, 0, 0)
    want = q ** (-0.25) * np.sqrt(qnum(1, q)) * q ** (-0.5) * np.sqrt(qnum(1.5, q)) / qnum(2, q)
    assert mats["a+"][0, 0] == pytest.approx(want)
    assert np.all(mats["a-"] == 0)  # no j-lowering branch at j = 0


def test_starred_generators_from_dagger_relations():
    # building a* from the conjugate matrices (a-tilde^{-+} at the shifted
    # point, matrix-adjointed) must reproduce adjoint(pi(a)) exactly
    p = SuqParams.reduced(q=0.5, J_cut=2.5)
    b = build_suq2(p)
    basis = b.truncation.basis
    index = {bi: i for i, bi in enumerate(basis)}
    two_J = p.two_J
    triples = []
    for (tj, tmu, tn, s) in basis:
        for branch in (+1, -1):
            tj2, tmu2, tn2 = tj + branch, tmu - 1, tn - 1
            if tj2 < 0 or tj2 > two_J or abs(tmu2) > tj2 or abs(tn2) > tj2 + 1:
                continue
            key = "a-" if branch > 0 else "a+"
            mat = arrow_matrices(p, tj2, tmu2, tn2)[key].conj().T
            col = 0 if s > 0 else 1
            for row, s2 in ((0, +1), (1, -1)):
                val = mat[row, col]
                if val == 0.0:
                    continue
                tgt = (tj2, tmu2, tn2, s2)
                if tgt in index:
                    triples.append((index[tgt], index[(tj, tmu, tn, s)], val))
    rebuilt = LinOp.from_triples(b.dim, triples)
    assert op_norm(rebuilt - b.generator("a*")) < 1e-13


def test_defining_relations_on_interior():
    p = SuqParams.reduced(q=0.5, J_cut=3.0)
    b = build_suq2(p)
    mask = b.truncation.interior(2)
    q = p.q
    A, B = b.generator("a"), b.generator("b")
    As, Bs = b.generator("a*"), b.generator("b*")
    ident = LinOp.identity(b.dim)
    relations = {
        "ba = q ab": B @ A - q * (A @ B),
        "b*a = q ab*": Bs @ A - q * (A @ Bs),
        "bb* = b*b": B @ Bs - Bs @ B,
        "a*a + q^2 b*b = 1": As @ A + q * q * (Bs @ B) - ident,
        "aa* + bb* = 1": A @ As + B @ Bs - ident,
    }
    for name, expr in relations.items():
        assert op_norm(masked_columns(expr, mask)) < 1e-9, name


def test_beta_selfadjoint_and_sector_sparsity():
    p = SuqParams.reduced(q=0.5, J_cut=3.0)
    b = build_suq2(p)
    assert op_norm(b.dirac.adjoint() - b.krein @ b.dirac @ b.krein) < 1e-10
    basis = b.truncation.basis
    m = b.dirac.csc().tocoo()
    for r, c in zip(m.row, m.col):
        assert basis[r][:3] == basis[c][:3]  # never leaves a (j, mu, n) sector


def test_edge_eigenvalues_pure_imaginary():
    p = SuqParams.reduced(q=0.5, r=1.0, S=1.0, J_cut=3.0)
    report = suq2_dirac_spectrum(p)
    assert report.meta["edge_max_real_part"] < 1e-12
    assert report.meta["edge_modulus_max_deviation"] < 1e-10
    assert report.meta["closed_form_max_residual"] < 1e-10


def test_interior_closed_form_branches():
    p = SuqParams.reduced(q=0.5, r=1.0, S=1.0, J_cut=2.0)
    # S = 0: diagonal D with eigenvalues i(r_up j + R_up), -i(r_dn j + R_dn)
    p0 = SuqParams(q=0.5, r_up=1.0, r_dn=-1.0, R_up=1.5, R_dn=0.5, S=0.0, J_cut=2.0)
    vals = sector_eigenvalues(p0, 2, 0)
    assert np.allclose(sorted(vals, key=lambda z: z.imag),
                       sorted([1j * (1.0 + 1.5), 1j * (1.0 - 0.5)], key=lambda z: z.imag))
    # r = 0: the sector matrix [[0, -i Shat], [i Shat, 0]] is hermitian,
    # so the pair is real +-|Shat|
    pr = SuqParams(q=0.5, r_up=0.0, r_dn=0.0, R_up=0.0, R_dn=0.0, S=1.0, J_cut=2.0)
    report = suq2_dirac_spectrum(pr)
    assert np.abs(report.flat().imag).max() < 1e-12
    vals = sector_eigenvalues(pr, 2, 0)
    shat = pr.shat(1.0, 0.0)
    assert np.allclose(sorted(v.real for v in vals), [-shat, shat])


def test_r_zero_s_zero_dirac_vanishes():
    p = SuqParams(q=0.5, r_up=0.0, r_dn=0.0, R_up=0.0, R_dn=0.0, S=0.0, J_cut=1.5)
    assert build_suq2(p).dirac.nnz == 0


def test_abs_spectrum_exact_and_compact():
    p = SuqParams.reduced(q=0.5, r=1.0, S=1.0, J_cut=3.0)
    report = suq2_abs_spectrum(p, counting_cutoffs=[2.0, 3.0, 4.0])
    assert report.meta["exact_max_rel_residual"] < 1e-10
    assert report.meta["compactness"] == "compact-consistent"
    # the r^2 prefactor of the large-j approximation fits as 1, not 1/2
    assert report.meta["approx_r2_prefactor"] == 1.0


def test_abs_sector_values_shapes():
    p = SuqParams.reduced(q=0.5, r=1.0, S=1.0, J_cut=2.0)
    assert abs_sq_sector_values(p, 2, 3).shape == (1,)   # edge
    assert abs_sq_sector_values(p, 2, 1).shape == (2,)   # coupled sector
    vals = abs_sq_sector_values(p, 2, 1)
    alpha, delta = 1.0 + 1.5, -1.0 + 0.5
    shat = p.shat(1.0, 0.5)
    assert np.allclose(np.sort(vals), np.sort([alpha ** 2 + shat ** 2,
                                               delta ** 2 + shat ** 2]))


def test_phase_freedom_leaves_checks_invariant():
    # A j-dependent unit phase on the generator matrices is a gauge
    # freedom: every check intrinsic to the geometry is unchanged.  The
    # checks built on the flip-conjugation probe (order_zero, order_one,
    # reality_*) are reported against an arbitrary reference and are not
    # gauge quantities, so they are excluded here.
    probe_dependent = ("order_zero", "order_one", "reality", "time_orientation")
    p = SuqParams.reduced(q=0.5, J_cut=2.0)
    rng = np.random.default_rng(9)
    phases = {tj: np.exp(2j * np.pi * rng.random()) for tj in range(p.two_J + 1)}
    plain = build_suq2(p)
    twisted = build_suq2(p, branch_phase=lambda tj, branch: phases[tj])
    rep0, rep1 = run_suite(plain), run_suite(twisted)
    for name in rep0.entries:
        if rep0.entries[name].family.startswith(probe_dependent):
            continue
        v0, v1 = rep0.entries[name].violation, rep1.entries[name].violation
        assert v1 == pytest.approx(v0, abs=1e-9), name
    s0 = np.sort_complex(suq2_dirac_spectrum(p, plain).flat())
    s1 = np.sort_complex(suq2_dirac_spectrum(p, twisted).flat())
    assert np.allclose(s0, s1, atol=1e-12)


def test_beta_commutators_never_zero_but_decaying():
    p = SuqParams.reduced(q=0.5, J_cut=3.0)
    b = build_suq2(p)
    for g in ("a", "b", "a*", "b*"):
        assert op_norm(commutator(b.krein, b.generator(g))) > 1e-3


def test_boundedness_probe():
    probe = suq2_boundedness_probe(SuqParams.reduced(q=0.5, r=1.0, S=1.0, J_cut=8.0),
                                   cutoffs=(4.0, 8.0), tail_range=(3, 8))
    for g, growth in probe["one_form_worst_growth"].items():
        assert growth < 0.05, (g, growth)
    for g, growth in probe["regularity_worst_growth"].items():
        assert growth < 0.05, (g, growth)
    want = probe["beta_tail_expected_exponent"]
    assert abs(probe["beta_tail_exponent"] - want) < 0.2 * abs(want)
    assert probe["order_one_violation"] > 1e-5


def test_order_one_violation_is_structural():
    # the order-one condition genuinely fails for this geometry
    b = build_suq2(SuqParams.reduced(q=0.5, J_cut=2.5))
    entry = check_order_one(b).entries["order_one"]
    assert not entry.asserted
    assert entry.violation > 0.1


def test_classical_limit_of_off_diagonal():
    # at q -> 1 the off-diagonal coefficient approaches the round-sphere
    # form (j+n+1/2) sqrt((j-n+1/2)/(j+n+1/2)) = sqrt((j+n+1/2)(j-n+1/2))
    p = SuqParams.reduced(q=0.99, r=1.0, S=1.0, J_cut=4.0)
    for (j, n) in [(2.0, 0.5), (3.0, -1.5), (4.0, 2.5)]:
        classical = np.sqrt((j + n + 0.5) * (j - n + 0.5))
        assert p.shat(j, n) == pytest.approx(classical, rel=0.08)


def test_suite_asserted_checks_pass():
    b = build_suq2(SuqParams.reduced(q=0.5, J_cut=2.5))
    rep = run_suite(b)
    assert rep.all_asserted_passed(), rep.failures()
    # the reported-only families are present and honestly nonzero
    assert rep.entries["order_one"].violation > 0.0
    assert not rep.entries["order_one"].asserted
    assert rep.entries["krein_commutant_a"].violation > 0.0
