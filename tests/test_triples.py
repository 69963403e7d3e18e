import numpy as np
import pytest

from kreinspec.linalg import LinOp
from kreinspec.triples import (
    SpectralReport,
    abs_dirac,
    abs_dirac_eigenvalues,
    check_krein,
    compact_resolvent_probe,
    multiset_distance,
    sign_table,
)
from kreinspec.torus import TorusParams, build_torus, torus_ladder


# The full (1, q) sign table: (1-q) mod 8 -> (eps, eps', eps'').
FULL_TABLE = {
    0: (+1, +1, +1),
    1: (+1, +1, None),
    2: (+1, +1, -1),
    3: (-1, -1, None),
    4: (+1, -1, +1),
    5: (+1, -1, None),
    6: (+1, -1, -1),
    7: (-1, +1, None),
}


def test_sign_table_all_columns():
    for q in range(0, 16):
        row = FULL_TABLE[(1 - q) % 8]
        signs = sign_table(1, q)
        assert (signs.epsilon, signs.epsilon_prime) == row[:2]
        if (1 + q) % 2 == 0:
            assert signs.epsilon_dprime == row[2]
        else:
            assert signs.epsilon_dprime is None


def test_sign_table_named_rows():
    s11 = sign_table(1, 1)
    assert (s11.epsilon, s11.epsilon_prime, s11.epsilon_dprime) == (1, 1, 1)
    s12 = sign_table(1, 2)
    assert (s12.epsilon, s12.epsilon_prime, s12.epsilon_dprime) == (-1, 1, None)
    s15 = sign_table(1, 5)
    assert (s15.epsilon, s15.epsilon_prime, s15.epsilon_dprime) == (1, -1, 1)


def test_sign_table_periodicity_and_errors():
    for q in range(0, 8):
        a, b = sign_table(1, q), sign_table(1, q + 8)
        assert (a.epsilon, a.epsilon_prime, a.epsilon_dprime) == \
               (b.epsilon, b.epsilon_prime, b.epsilon_dprime)
    with pytest.raises(ValueError):
        sign_table(2, 2)


def test_truncation_interior_counts():
    b = build_torus(TorusParams(N=3))
    t = b.truncation
    # depth-k interior of the square window: (2(3-k)+1)^2 sites, two spins
    for k in (0, 1, 2):
        side = 2 * (3 - k) + 1
        assert int(t.interior(k).sum()) == 2 * side * side


def test_abs_dirac_zero():
    b = build_torus(TorusParams(N=2, tau=(0.0, 0.0, 0.0, 0.0)))
    assert abs_dirac(b).nnz == 0


def test_abs_dirac_torus_values():
    # <D> |n,m,s> = sqrt((d+^2 + d-^2)/2) |n,m,s| for the identity family:
    # value sqrt((n^2+m^2)/2); at (1,0) this is 1/sqrt(2), at (1,1) it is 1
    # with one copy per spin.
    p = TorusParams(theta=0.0, N=2)
    b = build_torus(p)
    absd = abs_dirac(b)
    dense = absd.to_dense()
    basis = list(b.truncation.basis)
    i10 = basis.index((+1, 1, 0))
    i11m = basis.index((-1, 1, 1))
    assert dense[i10, i10] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert dense[i11m, i11m] == pytest.approx(1.0, abs=1e-12)
    vals = abs_dirac_eigenvalues(b)
    assert int(np.sum(np.abs(vals - 1.0) < 1e-12)) >= 2  # both spins at (1,1)


def test_abs_dirac_matches_dense_eigh():
    b = build_torus(TorusParams(N=6))
    d = b.dirac.to_dense()
    h = 0.5 * (d @ d.conj().T + d.conj().T @ d)
    evals, evecs = np.linalg.eigh(h)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    scale = roots.max()
    root = (evecs * roots) @ evecs.conj().T
    assert np.abs(abs_dirac(b).to_dense() - root).max() <= 1e-12 * scale
    assert np.abs(abs_dirac_eigenvalues(b) - roots).max() <= 1e-12 * scale


def test_compact_probe_torus_verdicts():
    elliptic = torus_ladder(TorusParams(theta=0.0, N=4), [4, 6, 8])
    assert compact_resolvent_probe(elliptic, [0.5, 1.5])["verdict"] == "compact-consistent"
    degenerate = torus_ladder(TorusParams(theta=0.0, tau=(1, 1, 1, 1), N=4), [4, 6, 8])
    out = compact_resolvent_probe(degenerate, [0.1])
    assert out["verdict"] == "non-compact-consistent"
    counts = out["counts"]["0.1"]
    assert counts[0] < counts[1] < counts[2]


def test_broken_bundle_is_detected():
    # flip one entry of beta: the Krein square identity must fail
    b = build_torus(TorusParams(N=2))
    dense = b.krein.to_dense()
    dense[0, 0] += 0.5
    import dataclasses
    broken = dataclasses.replace(b, krein=LinOp.from_dense(dense))
    rep = check_krein(broken)
    assert not rep.entries["krein_square"].passed


def test_multiset_distance_matches_regardless_of_order():
    a = np.array([1j, -1j, 2.0])
    b = np.array([2.0, -1j, 1j])
    assert multiset_distance(a, b) == 0.0
    assert multiset_distance(a, np.array([1j, -1j, 2.5])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        multiset_distance(a, np.array([1.0]))


def test_spectral_report_grouping_and_counting():
    rep = SpectralReport.from_values([1.0, 1.0 + 1e-12, -2.0, 3j])
    assert rep.total_count == 4
    assert rep.multiplicities.max() == 2
    counts = rep.counting([1.5, 10.0])
    assert counts[1.5] == 2 and counts[10.0] == 4


def test_abs_dirac_commutes_with_symmetries():
    # <D> is a function of an equivariant operator, so it inherits the
    # symmetry: || [<D>, rho(h)] || <= 1e-10 for every generator h.
    from kreinspec.sphere import SphereParams, build_sphere
    from kreinspec.linalg import commutator, op_norm
    for bundle in (build_torus(TorusParams(N=3)),
                   build_sphere(SphereParams(L=2.0))):
        absd = abs_dirac(bundle)
        for name, rho in bundle.symmetry_generators.items():
            viol = op_norm(commutator(absd, rho))
            scale = max(1.0, op_norm(absd)) * max(1.0, op_norm(rho))
            assert viol <= 1e-10 * scale, (bundle.label, name)


def test_compact_verdict_flips_across_degeneracy_surface():
    # torus: the verdict is decided by tau1+ tau2- = tau2+ tau1-.  On the
    # surface the mean square vanishes along the lattice line
    # tau1+ n + tau2+ m = 0; a finite window only sees it when the slope is
    # rational (irrational slopes produce near-zero modes only at
    # continued-fraction scales far outside small windows), so the grid
    # walks rational-slope surface points with elliptic neighbours.
    rng = np.random.default_rng(19)
    for slope in (1, 2, 3):
        scale = rng.uniform(0.5, 1.5)
        degenerate = (1.0, float(slope), scale, slope * scale)
        sizes = [3 * slope, 4 * slope, 5 * slope]  # resolve the line's period
        ladder = torus_ladder(TorusParams(theta=0.0, tau=degenerate, N=sizes[0]),
                              sizes)
        assert compact_resolvent_probe(ladder, [0.1])["verdict"] == \
            "non-compact-consistent", slope
        off = (degenerate[0], degenerate[1], degenerate[2], degenerate[3] + 1.0)
        ladder = torus_ladder(TorusParams(theta=0.0, tau=off, N=sizes[0]), sizes)
        assert compact_resolvent_probe(ladder, [0.5])["verdict"] == \
            "compact-consistent", slope
    # sphere: the verdict is decided exactly by R |S| != 0
    from kreinspec.sphere import SphereParams, sphere_ladder
    for R, S, compact in ((1.0, 1.0, True), (0.0, 1.0, False), (1.0, 0.0, False)):
        ladder = sphere_ladder(SphereParams(theta=0.0, R=R, S=S, L=2.0),
                               [2.0, 3.0, 4.0])
        verdict = compact_resolvent_probe(ladder, [0.25, 0.75])["verdict"]
        assert (verdict == "compact-consistent") == compact, (R, S)
