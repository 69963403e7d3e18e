"""Geometry-agnostic bundle for a truncated Lorentzian spectral triple and
the numerical verification suite for its defining relations.

A bundle collects the represented algebra generators, the Dirac operator D,
the Krein fundamental symmetry beta, the real structure J (antilinear), an
optional grading gamma, the sign constants for the signature, and a
truncation descriptor.  Every check measures a violation norm restricted to
interior basis vectors, i.e. vectors far enough from the truncation
boundary that each operator word acts exactly as it would on the infinite
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import (
    AntiLinOp,
    LinOp,
    block_stacks,
    commutator,
    conj_by_antilinear,
    masked_columns,
    op_norm,
)

REL_TOL = 1e-10          # default violation threshold, relative to scale
LADDER_GROWTH_TOL = 0.05  # allowed norm growth per truncation doubling


# ---------------------------------------------------------------------------
# signature signs

# Rows of the (1, q) sign table indexed by (1 - q) mod 8: epsilon fixes
# DJ = eps JD, eps' fixes J^2, eps'' (even case only) fixes J gamma = eps''
# gamma J.
_SIGN_ROWS = {
    0: (+1, +1, +1),
    1: (+1, +1, None),
    2: (+1, +1, -1),
    3: (-1, -1, None),
    4: (+1, -1, +1),
    5: (+1, -1, None),
    6: (+1, -1, -1),
    7: (-1, +1, None),
}


@dataclass(frozen=True)
class SignatureSigns:
    epsilon: int
    epsilon_prime: int
    epsilon_dprime: int | None


def sign_table(p: int, q: int) -> SignatureSigns:
    """Sign constants for signature (p, q); only p = 1 is supported."""
    if p != 1:
        raise ValueError(f"unsupported signature ({p},{q}): only one timelike direction")
    eps, eps_p, eps_pp = _SIGN_ROWS[(1 - q) % 8]
    if (1 + q) % 2 != 0:
        eps_pp = None
    return SignatureSigns(eps, eps_p, eps_pp)


# ---------------------------------------------------------------------------
# truncation bookkeeping

@dataclass(frozen=True)
class TruncationDescriptor:
    """Ordered basis labels plus, per vector, the number of single-operator
    applications guaranteed to stay inside the truncation window.

    The distance is computed by the geometry builders from the index
    arithmetic of their shift operators; interior(depth) marks the vectors
    every word of total step cost <= depth acts on exactly.
    """

    basis: tuple
    distance: np.ndarray
    label: str = ""

    @property
    def size(self):
        return len(self.basis)

    def interior(self, depth: int) -> np.ndarray:
        return self.distance >= depth


@dataclass(frozen=True)
class CheckResult:
    violation: float
    scale: float
    threshold: float
    passed: bool
    asserted: bool
    family: str
    extra: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "violation": self.violation,
            "scale": self.scale,
            "threshold": self.threshold,
            "passed": self.passed,
            "asserted": self.asserted,
            "family": self.family,
        }
        if self.extra:
            out["details"] = _jsonable(self.extra)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


@dataclass
class AxiomReport:
    entries: dict = field(default_factory=dict)

    def add(self, name: str, result: CheckResult):
        self.entries[name] = result

    def merge(self, other: "AxiomReport"):
        self.entries.update(other.entries)

    def all_asserted_passed(self) -> bool:
        return all(r.passed for r in self.entries.values() if r.asserted)

    def failures(self):
        return [n for n, r in self.entries.items() if r.asserted and not r.passed]

    def max_violation(self, family: str) -> float:
        vals = [r.violation for r in self.entries.values() if r.family == family]
        return max(vals) if vals else 0.0

    def to_json_dict(self):
        return {name: res.to_json_dict() for name, res in sorted(self.entries.items())}


@dataclass(frozen=True)
class TripleBundle:
    """All data of one truncated Lorentzian spectral triple."""

    generators: dict
    dirac: LinOp
    krein: LinOp
    reality: AntiLinOp
    signs: SignatureSigns
    signature: tuple
    truncation: TruncationDescriptor
    grading: LinOp | None = None
    symmetry_generators: dict = field(default_factory=dict)
    # [rho(h), pi(g)] = w * pi(g) for diagonal symmetry generators h
    derivation_weights: dict = field(default_factory=dict)
    # window steps consumed by one application of each operator kind
    step_costs: dict = field(default_factory=lambda: {"gen": 1, "dirac": 0, "reality": 0})
    # check families that are reported but never asserted for this geometry
    soft_checks: frozenset = frozenset()
    label: str = ""
    params: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.dirac.dim

    def generator(self, symbol: str) -> LinOp:
        if symbol == "1":
            return LinOp.identity(self.dim)
        return self.generators[symbol]

    def commutant_rep(self, symbol: str) -> LinOp:
        """J pi(x) J^{-1}, the right-action copy of a generator."""
        return conj_by_antilinear(self.reality, self.generator(symbol))

    def cost(self, kind: str) -> int:
        return self.step_costs.get(kind, 0)

    def dirac_scale(self) -> float:
        return max(1.0, op_norm(self.dirac))


# ---------------------------------------------------------------------------
# check helpers

def _masked_norm(bundle, op, depth):
    mask = bundle.truncation.interior(depth)
    if not mask.any():
        raise ValueError(f"empty interior at depth {depth}; enlarge the truncation")
    return op_norm(masked_columns(op, mask))


def _result(bundle, family, violation, scale, threshold=REL_TOL, extra=None):
    soft = family in bundle.soft_checks
    passed = violation <= threshold * scale
    return CheckResult(float(violation), float(scale), float(threshold),
                       bool(passed), not soft, family, extra or {})


def check_krein(bundle: TripleBundle) -> AxiomReport:
    """beta^2 = -1, beta = -beta^dagger, beta gamma = -gamma beta,
    beta J = -eps^p J beta (p = 1), and commutation with the algebra."""
    rep = AxiomReport()
    beta = bundle.krein
    dim = bundle.dim
    ident = LinOp.identity(dim)
    rep.add("krein_square", _result(
        bundle, "krein", op_norm(beta @ beta + ident), 1.0))
    rep.add("krein_antihermitian", _result(
        bundle, "krein", op_norm(beta + beta.adjoint()), 1.0))
    if bundle.grading is not None:
        rep.add("krein_grading", _result(
            bundle, "krein", op_norm(beta @ bundle.grading + bundle.grading @ beta), 1.0))
    # beta J and J beta are antilinear; compare their linear parts.
    eps = bundle.signs.epsilon
    lp = bundle.reality.linear_part
    mix = beta @ lp + eps * (lp @ beta.conj())
    rep.add("krein_reality", _result(
        bundle, "krein_reality", _masked_norm(bundle, mix, 2 * bundle.cost("reality")), 1.0))
    for name in sorted(bundle.generators):
        viol = _masked_norm(bundle, commutator(beta, bundle.generator(name)),
                            bundle.cost("gen"))
        rep.add(f"krein_commutant_{name}", _result(
            bundle, "krein_commutant", viol, max(1.0, op_norm(bundle.generator(name)))))
    return rep


def check_reality(bundle: TripleBundle) -> AxiomReport:
    """J^2 = eps', J gamma = eps'' gamma J, DJ = eps JD, and the
    commutant property [J pi(a) J^{-1}, pi(b)] = 0."""
    rep = AxiomReport()
    lp = bundle.reality.linear_part
    dim = bundle.dim
    cj = bundle.cost("reality")
    eps = bundle.signs.epsilon
    sq = bundle.reality.squared() - bundle.signs.epsilon_prime * LinOp.identity(dim)
    rep.add("reality_involution", _result(
        bundle, "reality", _masked_norm(bundle, sq, 2 * cj), 1.0))
    if bundle.grading is not None and bundle.signs.epsilon_dprime is not None:
        mix = lp @ bundle.grading.conj() - bundle.signs.epsilon_dprime * (bundle.grading @ lp)
        rep.add("reality_grading", _result(
            bundle, "reality", _masked_norm(bundle, mix, cj), 1.0))
    dmix = bundle.dirac @ lp - eps * (lp @ bundle.dirac.conj())
    rep.add("reality_dirac", _result(
        bundle, "reality_dirac",
        _masked_norm(bundle, dmix, cj + bundle.cost("dirac")), bundle.dirac_scale()))
    gens = sorted(bundle.generators)
    depth = 2 * cj + 2 * bundle.cost("gen")
    worst, table = 0.0, {}
    for a in gens:
        ja = bundle.commutant_rep(a)
        for b in gens:
            v = _masked_norm(bundle, commutator(ja, bundle.generator(b)), depth)
            table[f"{a},{b}"] = v
            worst = max(worst, v)
    rep.add("order_zero", _result(bundle, "order_zero", worst, 1.0,
                                  extra={"pairs": table}))
    return rep


def check_dirac(bundle: TripleBundle) -> AxiomReport:
    """D^dagger = beta D beta, D gamma = -gamma D, and the size of the
    one-forms [D, pi(a)] on a single truncation."""
    rep = AxiomReport()
    beta, dirac = bundle.krein, bundle.dirac
    scale = bundle.dirac_scale()
    rep.add("dirac_krein_selfadjoint", _result(
        bundle, "dirac", op_norm(dirac.adjoint() - beta @ dirac @ beta), scale))
    if bundle.grading is not None:
        rep.add("dirac_grading", _result(
            bundle, "dirac",
            op_norm(dirac @ bundle.grading + bundle.grading @ dirac), scale))
    for name in sorted(bundle.generators):
        viol = _masked_norm(bundle, commutator(dirac, bundle.generator(name)),
                            bundle.cost("gen") + bundle.cost("dirac"))
        rep.add(f"dirac_one_form_{name}", CheckResult(
            viol, scale, np.inf, True, False, "dirac_one_form", {}))
    return rep


def check_order_one(bundle: TripleBundle) -> AxiomReport:
    """max over generator pairs of || [J pi(a) J^{-1}, [D, pi(b)]] || on
    interior vectors."""
    rep = AxiomReport()
    gens = sorted(bundle.generators)
    depth = 2 * bundle.cost("reality") + 2 * bundle.cost("gen") + bundle.cost("dirac")
    scale = bundle.dirac_scale()
    worst, table = 0.0, {}
    for a in gens:
        ja = bundle.commutant_rep(a)
        for b in gens:
            one_form = commutator(bundle.dirac, bundle.generator(b))
            v = _masked_norm(bundle, commutator(ja, one_form), depth)
            table[f"{a},{b}"] = v
            worst = max(worst, v)
    rep.add("order_one", _result(bundle, "order_one", worst, scale,
                                 extra={"pairs": table}))
    return rep


def abs_dirac(bundle: TripleBundle, tol: float = 1e-9) -> LinOp:
    """sqrt(0.5 (D D^dagger + D^dagger D)).

    The mean square is block diagonal for every built-in geometry, so the
    square root is taken per connected component of its sparsity graph.
    """
    h = _mean_square(bundle.dirac)
    return _sqrt_psd(h, tol)


def _mean_square(dirac: LinOp) -> LinOp:
    da = dirac.adjoint()
    return 0.5 * (dirac @ da + da @ dirac)


def _symmetrized_stacks(h: LinOp):
    """block_stacks of a Hermitian h, each block symmetrized against
    roundoff, as (indices, blocks) pairs."""
    return [(idx, 0.5 * (blocks + blocks.conj().transpose(0, 2, 1)))
            for idx, _, blocks in block_stacks(h.csc(), square=True)]


def _sqrt_psd(h: LinOp, tol: float) -> LinOp:
    scale = max(1.0, h.max_entry())
    rows, cols, vals = [], [], []
    for idx, blocks in _symmetrized_stacks(h):
        evals, evecs = np.linalg.eigh(blocks)
        if evals.min() < -tol * scale:
            raise ValueError(f"negative eigenvalue {evals.min():.3g} in mean square")
        root = (evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]) \
            @ evecs.conj().transpose(0, 2, 1)
        k, i, j = np.nonzero(root)
        rows.append(idx[k, i])
        cols.append(idx[k, j])
        vals.append(root[k, i, j])
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(h.dim, h.dim))
    return LinOp(h.dim, _mat=mat)


def abs_dirac_eigenvalues(bundle: TripleBundle) -> np.ndarray:
    """Ascending eigenvalues of <D> without assembling the square root."""
    h = _mean_square(bundle.dirac)
    evals = [np.linalg.eigvalsh(blocks).ravel() for _, blocks in _symmetrized_stacks(h)]
    return np.sort(np.sqrt(np.clip(np.concatenate(evals), 0.0, None)))


def check_regularity(bundle: TripleBundle) -> AxiomReport:
    """Norms of [<D>, [D, pi(a)]] per generator on one truncation."""
    rep = AxiomReport()
    absd = abs_dirac(bundle)
    scale = bundle.dirac_scale()
    depth = bundle.cost("gen") + 2 * bundle.cost("dirac")
    for name in sorted(bundle.generators):
        inner = commutator(bundle.dirac, bundle.generator(name))
        viol = _masked_norm(bundle, commutator(absd, inner), depth)
        rep.add(f"regularity_{name}", CheckResult(
            viol, scale, np.inf, True, False, "regularity", {}))
    return rep


def check_equivariance(bundle: TripleBundle) -> AxiomReport:
    """[rho(h), X] = 0 for X in {D, beta, gamma}; for diagonal generators
    also [rho(h), pi(a)] = w pi(a) with the declared derivation weight."""
    rep = AxiomReport()
    if not bundle.symmetry_generators:
        return rep
    scale = bundle.dirac_scale()
    worst_fix, worst_der = 0.0, 0.0
    fix_table, der_table = {}, {}
    for name, rho in sorted(bundle.symmetry_generators.items()):
        rho_scale = max(1.0, op_norm(rho))
        for sym, op, sc in (("dirac", bundle.dirac, scale),
                            ("krein", bundle.krein, 1.0),
                            ("grading", bundle.grading, 1.0)):
            if op is None:
                continue
            v = _masked_norm(bundle, commutator(rho, op), 0) / rho_scale
            fix_table[f"{name},{sym}"] = v / sc
            worst_fix = max(worst_fix, v / sc)
    for (sym, gen), weight in sorted(bundle.derivation_weights.items()):
        rho = bundle.symmetry_generators[sym]
        pi_g = bundle.generator(gen)
        dev = commutator(rho, pi_g) - complex(weight) * pi_g
        v = _masked_norm(bundle, dev, bundle.cost("gen"))
        der_table[f"{sym},{gen}"] = v
        worst_der = max(worst_der, v)
    rep.add("equivariance_fixed", _result(bundle, "equivariance", worst_fix, 1.0,
                                          extra={"pairs": fix_table}))
    if der_table:
        rep.add("equivariance_action", _result(bundle, "equivariance", worst_der, 1.0,
                                               extra={"pairs": der_table}))
    return rep


def check_time_orientation(bundle: TripleBundle, terms) -> AxiomReport:
    """Violation of beta = sum_i c_i J pi(aL_i) J^{-1} pi(a_i) [D, pi(b_i)].

    terms: iterable of (a_left symbol, a symbol, b symbol, coefficient);
    the symbol "1" resolves to the identity.
    """
    rep = AxiomReport()
    dim = bundle.dim
    total = LinOp.zeros(dim)
    depth = 0
    for a_left, a_sym, b_sym, coeff in terms:
        for sym in (a_left, a_sym, b_sym):
            if sym != "1" and sym not in bundle.generators:
                raise KeyError(f"unknown generator symbol {sym!r}")
        word = complex(coeff) * (
            bundle.commutant_rep(a_left)
            @ bundle.generator(a_sym)
            @ commutator(bundle.dirac, bundle.generator(b_sym)))
        total = total + word
        depth = max(depth, 2 * bundle.cost("reality") + 2 * bundle.cost("gen")
                    + bundle.cost("dirac"))
    viol = _masked_norm(bundle, total - bundle.krein, depth)
    rep.add("time_orientation", _result(bundle, "time_orientation", viol,
                                        bundle.dirac_scale()))
    return rep


def check_boundedness_ladder(bundles, growth_tol: float = LADDER_GROWTH_TOL,
                             include_regularity: bool = True) -> AxiomReport:
    """Norms of [D, pi(a)] and [<D>, [D, pi(a)]] across a ladder of
    truncation sizes; passes when no norm grows more than growth_tol per
    step.  The ladder must be ordered by increasing size."""
    rep = AxiomReport()
    if len(bundles) < 2:
        raise ValueError("ladder needs at least two truncation sizes")
    first = bundles[0]
    names = sorted(first.generators)
    one_form_norms = {n: [] for n in names}
    reg_norms = {n: [] for n in names}
    for b in bundles:
        absd = abs_dirac(b) if include_regularity else None
        for n in names:
            inner = commutator(b.dirac, b.generator(n))
            one_form_norms[n].append(
                _masked_norm(b, inner, b.cost("gen") + b.cost("dirac")))
            if include_regularity:
                reg_norms[n].append(
                    _masked_norm(b, commutator(absd, inner),
                                 b.cost("gen") + 2 * b.cost("dirac")))
    def _growth(seq):
        worst = 0.0
        for lo, hi in zip(seq, seq[1:]):
            base = max(lo, 1e-12)
            worst = max(worst, hi / base - 1.0)
        return worst
    for n in names:
        g = _growth(one_form_norms[n])
        rep.add(f"bounded_one_form_{n}", _result(
            first, "bounded_ladder", max(g, 0.0), 1.0, threshold=growth_tol,
            extra={"norms": one_form_norms[n]}))
        if include_regularity:
            g = _growth(reg_norms[n])
            rep.add(f"bounded_regularity_{n}", _result(
                first, "regularity_ladder", max(g, 0.0), 1.0, threshold=growth_tol,
                extra={"norms": reg_norms[n]}))
    return rep


def compact_resolvent_probe(bundles, lambdas) -> dict:
    """Counting function N(Lambda) = #{<D> eigenvalues < Lambda} across a
    ladder of truncations.  Verdict 'compact-consistent' when every count
    stabilizes between the two largest truncations, 'non-compact-consistent'
    when some count keeps growing."""
    if len(bundles) < 2:
        raise ValueError("probe needs at least two truncation sizes")
    lambdas = [float(x) for x in lambdas]
    counts = {lam: [] for lam in lambdas}
    for b in bundles:
        vals = abs_dirac_eigenvalues(b)
        for lam in lambdas:
            counts[lam].append(int(np.searchsorted(vals, lam, side="left")))
    stable = all(c[-1] == c[-2] for c in counts.values())
    growing = any(c[-1] > c[-2] for c in counts.values())
    verdict = "compact-consistent" if stable else (
        "non-compact-consistent" if growing else "inconclusive")
    return {"lambdas": lambdas, "counts": {str(k): v for k, v in counts.items()},
            "verdict": verdict}


def run_suite(bundle: TripleBundle, ladder=None, time_orientation_terms=None) -> AxiomReport:
    """All checks on one bundle, plus ladder checks when a ladder of larger
    truncations is supplied."""
    report = AxiomReport()
    report.merge(check_krein(bundle))
    report.merge(check_reality(bundle))
    report.merge(check_dirac(bundle))
    report.merge(check_order_one(bundle))
    report.merge(check_equivariance(bundle))
    report.merge(check_regularity(bundle))
    if time_orientation_terms is not None:
        report.merge(check_time_orientation(bundle, time_orientation_terms))
    if ladder is not None:
        report.merge(check_boundedness_ladder(ladder))
    return report


# ---------------------------------------------------------------------------
# spectra

def multiset_distance(a, b) -> float:
    """max |a_i - b_match(i)| under the optimal bijection of two equal-size
    complex multisets (robust against ordering ties from roundoff)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"multisets of different size {a.size} != {b.size}")
    if a.size == 0:
        return 0.0
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(a[:, None] - b[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


@dataclass
class SpectralReport:
    """Multiset of complex eigenvalues with multiplicities and residuals,
    optionally organized by invariant block."""

    values: np.ndarray
    multiplicities: np.ndarray
    residual_max: float
    blocks: list | None = None
    counting_samples: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, values, residual_max=0.0, blocks=None, tol=1e-9, meta=None):
        values = np.asarray(values, dtype=complex)
        order = np.lexsort((values.imag, values.real))
        values = values[order]
        scale = max(1.0, np.abs(values).max() if values.size else 0.0)
        reps, mults = [], []
        for v in values:
            if reps and abs(v - reps[-1]) <= tol * scale:
                mults[-1] += 1
            else:
                reps.append(v)
                mults.append(1)
        return cls(np.asarray(reps), np.asarray(mults, dtype=int),
                   float(residual_max), blocks, {}, meta or {})

    @property
    def total_count(self):
        return int(self.multiplicities.sum())

    def flat(self) -> np.ndarray:
        return np.repeat(self.values, self.multiplicities)

    def counting(self, lambdas) -> dict:
        flat = np.abs(self.flat())
        return {float(lam): int(np.sum(flat < lam)) for lam in lambdas}
