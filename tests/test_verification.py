"""Randomized oracle cross-checks and the matrix-element identity report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from subvacuum import fock_oracle, verification
from subvacuum.fock_oracle import TruncationError
from subvacuum.state_families import REGISTRY, coherent_superposition_moments
from subvacuum.verification import (
    FAMILIES,
    IdentityRow,
    appendix_identity_report,
    verify_family,
)

ALL_FAMILIES = (
    "coherent-pair",
    "superposed-squeezed",
    "coherent-squeezed",
    "vacuum-squeezed",
    "barnett-radmore",
    "zhang",
    "entangled-coherent",
)


def test_family_registry():
    assert FAMILIES == ALL_FAMILIES


def test_draw_stream_is_key_by_key_then_row_by_row():
    # The verify golden digests depend on this order: each draw takes its
    # keys in turn from the family's stream, magnitudes before phases.
    family = REGISTRY["coherent-pair"]
    drawn = verification._record(family, verification._draw(family, np.random.default_rng([7, 0]), 3))
    rng = np.random.default_rng([7, 0])
    for row in range(3):
        keys = {}
        for key, upper in (("alpha", 3.0), ("delta1", 2.0 * math.pi), ("beta", 3.0),
                           ("delta2", 2.0 * math.pi), ("eta", 4.0), ("delta", 2.0 * math.pi)):
            keys[key] = rng.uniform(0.0, upper)
        expected = family.record(keys)
        assert (drawn["alpha"][row], drawn["beta"][row], drawn["eta"][row]) == (
            expected["alpha"], expected["beta"], expected["eta"]
        )


def test_draw_drops_exactly_the_candidates_below_the_guard(monkeypatch):
    # At the real guard (1e-6) no seeded draw comes near it; at 0.5, 3 of the
    # first 103 entangled-coherent candidates of the verify stream fall below.
    # The kept draws are the stream's rows in order, less exactly those whose
    # denominator 2 (1 + cos theta e^{-4 sigma^2}) is below the guard.
    monkeypatch.setattr(verification, "_DENOM_GUARD", 0.5)
    family = REGISTRY["entangled-coherent"]
    key = [7, FAMILIES.index("entangled-coherent")]
    drawn = verification._draw(family, np.random.default_rng(key), 100)
    rng, expected, dropped = np.random.default_rng(key), [], 0
    while len(expected) < 100:
        sigma, theta, delta1, delta2 = (rng.uniform(0.0, upper) for upper in family.draws.values())
        if 2.0 * (1.0 + math.cos(theta) * math.exp(-4.0 * sigma**2)) < 0.5:
            dropped += 1
        else:
            expected.append([sigma, theta, delta1, delta2])
    assert dropped == 3
    assert drawn.tolist() == expected
    assert np.all(family.moments(verification._record(family, drawn)).denominator >= 0.5)


def test_nan_closed_form_moment_fails(monkeypatch):
    # A NaN occupation compares as a NaN deviation while every tail stays finite.
    broken = dataclasses.replace(
        REGISTRY["coherent-pair"], moments=lambda p: dataclasses.replace(coherent_superposition_moments(**p), n1=np.nan)
    )
    monkeypatch.setitem(REGISTRY, "coherent-pair", broken)
    report = verify_family("coherent-pair", draws=3, seed=7)
    assert not report.passed
    assert math.isnan(report.max_abs_deviation)
    assert 0.0 < report.tail_bound <= 1e-12


class TestVerifyFamily:
    def test_barnett_radmore_draws_pass(self):
        report = verify_family("barnett-radmore", draws=5, seed=7)
        assert report.passed
        assert report.family == "barnett-radmore"
        assert report.draws == 5
        # The two-mode squeezed vacuum is diagonal in the pair basis; the
        # oracle matches it essentially to rounding.
        assert report.max_abs_deviation < 1e-12
        assert set(report.worst_params) == {"r", "delta"}

    def test_vacuum_squeezed_draws_pass(self):
        report = verify_family("vacuum-squeezed", draws=20, seed=11)
        assert report.passed
        assert report.max_abs_deviation < 1e-8
        # the worst draw in the family's own keys: no record-only alpha or delta
        assert list(report.worst_params) == ["r", "eta", "eta_phase"]

    def test_deviation_bounded_by_reported_tolerance(self):
        report = verify_family("superposed-squeezed", draws=10, seed=3)
        assert report.passed
        assert report.tolerance == max(1e-8, 10.0 * report.tail_bound)
        assert report.max_abs_deviation <= report.tolerance

    def test_zero_draws_trivially_pass(self):
        report = verify_family("zhang", draws=0, seed=0)
        assert report.passed
        assert report.draws == 0
        assert report.max_abs_deviation == 0.0
        assert report.worst_params == {}
        assert report.tail_bound == 0.0

    def test_negative_draws_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            verify_family("zhang", draws=-1, seed=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown family"):
            verify_family("thermal", draws=1, seed=0)

    def test_deterministic_given_seed(self):
        a = verify_family("entangled-coherent", draws=4, seed=21)
        b = verify_family("entangled-coherent", draws=4, seed=21)
        assert a == b

    def test_seed_changes_the_draws(self):
        a = verify_family("entangled-coherent", draws=4, seed=21)
        b = verify_family("entangled-coherent", draws=4, seed=22)
        assert a.max_abs_deviation != b.max_abs_deviation

    def test_insufficient_cutoff_cap_raises(self):
        with pytest.raises(TruncationError):
            verify_family("zhang", draws=1, seed=7, cutoff_cap=8)


class TestVerifyCommand:
    """The ``verify`` command runs verify_family once per requested family."""

    @staticmethod
    def family_rows(capsys, *argv) -> list:
        from subvacuum.cli import main

        assert main(["verify", *argv, "--format", "json"]) == 0
        return [row for row in json.loads(capsys.readouterr().out)["rows"] if row["kind"] == "family"]

    def test_respects_requested_subset_and_order(self, capsys):
        rows = self.family_rows(capsys, "--family", "zhang", "--family", "vacuum-squeezed", "--draws", "2", "--seed", "5")
        assert [row["name"] for row in rows] == ["zhang", "vacuum-squeezed"]

    def test_default_covers_every_family(self, capsys):
        rows = self.family_rows(capsys, "--draws", "1", "--seed", "5")
        assert [row["name"] for row in rows] == list(ALL_FAMILIES)
        assert all(row["passed"] for row in rows)


class TestIdentityReport:
    def test_row_layout(self):
        rows = appendix_identity_report()
        assert len(rows) == 21  # 7 identities x 3 squeeze values
        names = [row.name for row in rows if row.r == 0.5]
        assert names == [
            "overlap-opposite-squeezed",
            "occupation-opposite-squeezed",
            "pair-opposite-squeezed[tanh^2 denominator]",
            "pair-opposite-squeezed[tanh denominator]",
            "overlap-squeezed-coherent",
            "occupation-squeezed-coherent",
            "create-pair-squeezed-coherent",
        ]

    def test_required_rows_pass_to_tolerance(self):
        rows = appendix_identity_report()
        required = [row for row in rows if row.required]
        assert len(required) == 18
        assert all(row.passed for row in required)
        assert max(row.deviation for row in required) < 1e-12
        assert all(row.tolerance == 1e-10 for row in required)

    def test_rejected_denominator_variant_fails_measurably(self):
        # The competing (1 + tanh r)^{3/2} denominator misses the oracle by
        # amounts far above tolerance, shrinking as sech r at large squeeze.
        rows = {
            row.r: row
            for row in appendix_identity_report()
            if not row.required
        }
        assert set(rows) == {0.5, 1.0, 2.0}
        for row in rows.values():
            assert not row.passed
            assert "adjudication" in row.note
        assert rows[0.5].deviation == pytest.approx(0.07474839332555475, abs=1e-12)
        assert rows[1.0].deviation == pytest.approx(0.037412937085231746, abs=1e-12)
        assert rows[2.0].deviation == pytest.approx(0.0025212017987101265, abs=1e-12)

    def test_squeezed_vacuum_alone_picks_the_product_cutoff(self):
        # The report fits |r> alone and builds |alpha = 0.6> at its cutoff:
        # the coherent state's tail is negligible from the first cutoff on.
        assert fock_oracle.tail_mass(fock_oracle.coherent_vector(0.6, 32)) < 1e-40
        cutoffs = []
        for r in (0.5, 1.0, 2.0):
            alone = fock_oracle.fitted(
                lambda c: fock_oracle.squeezed_vacuum_vector(r, 0.0, c), verification._TAIL_TARGET, 4096
            )
            product = fock_oracle.fitted(
                lambda c: fock_oracle.superpose_two_mode(
                    [(1.0, fock_oracle.squeezed_vacuum_vector(r, 0.0, c), fock_oracle.coherent_vector(0.6, c))]
                ),
                verification._TAIL_TARGET,
                4096,
            )
            assert alone.cutoff == product.cutoff
            cutoffs.append(alone.cutoff)
        assert cutoffs == [64, 128, 1024]

    def test_row_dataclass_defaults(self):
        row = IdentityRow(name="x", r=1.0, deviation=0.0, tolerance=1e-10, passed=True)
        assert row.required
        assert row.note == ""
