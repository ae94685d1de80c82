"""The LP oracle itself: membership, samplers, and the comparison harness."""

import ast
import inspect

import numpy as np
import pytest

from wrenchfeas import (
    Wrench,
    build_generating_matrices,
    classify,
    build_wcm,
    compare_wcm_oracle,
    force_membership_lp,
    wrench_membership_lp,
)
from wrenchfeas.errors import AnchorMismatch
from wrenchfeas.oracle import MEMBERSHIP_TOL
from wrenchfeas.simplex import solve
from wrenchfeas.wcm import WrenchConstraintMatrix

from conftest import flat_foot_config


@pytest.fixture(scope="module")
def flat_gen():
    return build_generating_matrices(flat_foot_config(), [0.0, 0.0, 0.8])


def test_oracle_never_imports_the_pipeline_it_validates():
    # Ground truth must stay structurally independent: only the contact
    # model and the LP solver may be imported.
    import wrenchfeas.oracle

    tree = ast.parse(inspect.getsource(wrenchfeas.oracle))
    local_imports = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert local_imports <= {"contacts", "errors", "simplex"}


def test_zero_wrench_is_feasible(flat_gen):
    verdict = wrench_membership_lp(
        flat_gen, Wrench([0, 0, 0], [0, 0, 0], flat_gen.anchor)
    )
    assert verdict.feasible
    assert np.max(np.abs(flat_gen.stacked() @ verdict.coefficients)) <= 1e-9


def test_constructive_wrenches_are_feasible_with_certified_residual(flat_gen):
    rng = np.random.default_rng(5)
    stacked = flat_gen.stacked()
    for _ in range(20):
        coeff = rng.exponential(size=flat_gen.n_columns)
        w6 = stacked @ coeff
        verdict = wrench_membership_lp(
            flat_gen, Wrench(w6[:3], w6[3:], flat_gen.anchor)
        )
        assert verdict.feasible
        residual = np.max(np.abs(stacked @ verdict.coefficients - w6))
        assert residual <= 1e-7 * (1.0 + np.max(np.abs(w6)))
        assert np.min(verdict.coefficients) >= -1e-10


def test_downward_pull_is_infeasible(flat_gen):
    # Every generator has nonnegative vertical force; no combination can
    # point down.
    verdict = wrench_membership_lp(
        flat_gen, Wrench([0, 0, -1.0], [0, 0, 0], flat_gen.anchor)
    )
    assert not verdict.feasible


def test_anchor_mismatch_rejected(flat_gen):
    with pytest.raises(AnchorMismatch):
        wrench_membership_lp(flat_gen, Wrench([0, 0, 1], [0, 0, 0], [0, 0, 0]))


def test_force_membership(flat_gen):
    assert force_membership_lp(flat_gen, [1.0, 0.5, 50.0]).feasible
    assert not force_membership_lp(flat_gen, [0.0, 0.0, -1.0]).feasible


def test_repeated_calls_share_one_preparation(monkeypatch):
    # Every membership solve on one GeneratingMatrices reuses one prepared
    # problem per matrix, and each verdict is exactly a fresh solve's.
    import wrenchfeas.contacts

    prepared = []
    real = wrenchfeas.contacts.prepare
    monkeypatch.setattr(
        wrenchfeas.contacts, "prepare", lambda m: prepared.append(m) or real(m)
    )
    com = np.array([0.0, 0.0, 0.8])
    cls = classify(flat_foot_config(), com)
    gen = cls.generating
    stacked = gen.stacked()
    rng = np.random.default_rng(11)
    targets = [stacked @ rng.exponential(size=gen.n_columns) for _ in range(5)]
    targets += list(rng.normal(size=(5, 6)) * 300.0)
    for w6 in targets:
        verdict = wrench_membership_lp(gen, Wrench(w6[:3], w6[3:], com))
        x, residual = solve(stacked, w6)
        assert verdict.feasible == (residual <= MEMBERSHIP_TOL)
        assert verdict.coefficients is None or np.array_equal(verdict.coefficients, x)
    assert len(prepared) == 1
    for w6 in targets:
        verdict = force_membership_lp(gen, w6[:3])
        x, residual = solve(gen.force_generators, w6[:3])
        assert verdict.feasible == (residual <= MEMBERSHIP_TOL)
        assert verdict.coefficients is None or np.array_equal(verdict.coefficients, x)
    assert len(prepared) == 2
    compare_wcm_oracle(gen, build_wcm(flat_foot_config(), com, cls.witness), 20, rng_seed=1)
    assert len(prepared) == 2


@pytest.fixture(scope="module")
def flat_wcm():
    config = flat_foot_config()
    com = np.array([0.0, 0.0, 0.8])
    cls = classify(config, com)
    return cls.generating, build_wcm(config, com, cls.witness)


class TestCompareWcmOracle:
    def test_empty_report(self, flat_wcm):
        gen, wcm = flat_wcm
        report = compare_wcm_oracle(gen, wcm, 0, rng_seed=0)
        assert report.total == 0

    def test_agreement_on_flat_foot(self, flat_wcm):
        gen, wcm = flat_wcm
        report = compare_wcm_oracle(gen, wcm, 400, rng_seed=9)
        assert report.total == 400
        assert report.disagree == 0
        assert report.agree_feasible > 0
        assert report.agree_infeasible > 0

    def test_corrupted_matrix_is_caught(self, flat_wcm):
        # Sanity of the harness: breaking one row must produce disagreements.
        gen, wcm = flat_wcm
        rows = wcm.rows.copy()
        rows[0] = -rows[0]
        broken = WrenchConstraintMatrix(rows, wcm.anchor)
        report = compare_wcm_oracle(gen, broken, 400, rng_seed=9)
        assert report.disagree > 0

    def test_anchor_mismatch(self, flat_wcm):
        gen, wcm = flat_wcm
        moved = WrenchConstraintMatrix(wcm.rows, wcm.anchor + [0, 0, 0.1])
        with pytest.raises(AnchorMismatch):
            compare_wcm_oracle(gen, moved, 10, rng_seed=0)

    def test_nan_anchor_is_a_mismatch(self, flat_wcm):
        # A NaN, even one that is not the first component, must fail the
        # anchor guard rather than slip past a ``> tol`` comparison.
        gen, wcm = flat_wcm
        anchor = wcm.anchor.copy()
        anchor[1] = np.nan
        moved = WrenchConstraintMatrix(wcm.rows, anchor)
        with pytest.raises(AnchorMismatch):
            compare_wcm_oracle(gen, moved, 10, rng_seed=0)
