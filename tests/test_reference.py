"""Step semantics of both chains: rates, single events, closed-form composition."""

import numpy as np
import pytest

import immunochain
from immunochain import models, reference
from immunochain.models import MatrixState, SingleColumnParams
from immunochain.reference import (
    COLUMN_ZERO,
    ENTRY_SET,
    ROW_SET,
    MatrixEvent,
    apply_event,
    compose_closed_form,
    enumerate_rates,
)

MOVED = [
    "MatrixEvent", "ROW_SET", "COLUMN_ZERO", "ENTRY_SET", "apply_event", "enumerate_rates", "compose_closed_form",
]
DELETED = ["ColumnState", "row_set", "column_zero", "entry_set"]


def test_event_vocabulary_lives_in_reference_only():
    assert models.__all__ == ["SingleColumnParams", "MatrixParams", "MatrixState"]
    for name in MOVED + DELETED:
        assert not hasattr(immunochain, name), name
        assert not hasattr(models, name), name
    for name in MOVED:
        assert name in reference.__all__ and hasattr(reference, name), name


class TestEnumerateRates:
    def test_from_zero(self):
        params = SingleColumnParams(M=2, alpha=1.0, p=0.5)
        assert enumerate_rates(0, params) == [(1, 0.5)]

    def test_interior_state(self):
        params = SingleColumnParams(M=2, alpha=1.0, p=0.5)
        assert enumerate_rates(1, params) == [(2, 0.25), (0, 0.5)]

    def test_from_top_only_reset(self):
        for M, alpha, p in [(2, 1.0, 0.5), (5, 2.0, 0.3)]:
            params = SingleColumnParams(M=M, alpha=alpha, p=p)
            assert enumerate_rates(M, params) == [(0, p)]

    def test_rate_sum_matches_formula(self):
        params = SingleColumnParams(M=7, alpha=1.7, p=0.35)
        for k in range(params.M + 1):
            total = sum(rate for _, rate in enumerate_rates(k, params))
            expected = params.alpha * params.q * (1 - k / params.M) * (k < params.M)
            expected += params.p * (k > 0)
            assert total == pytest.approx(expected, rel=1e-15)

    def test_rejects_out_of_range_state(self):
        params = SingleColumnParams(M=3, alpha=1.0, p=0.5)
        with pytest.raises(ValueError):
            enumerate_rates(4, params)
        with pytest.raises(ValueError):
            enumerate_rates(-1, params)


class TestApplyEvent:
    def test_row_set(self):
        s = MatrixState.zeros(2, 2)
        out = apply_event(s, MatrixEvent(ROW_SET, row=0))
        assert out.entries.tolist() == [[1, 1], [0, 0]]
        assert out.column_counts.tolist() == [1, 1]

    def test_column_zero(self):
        s = MatrixState.from_entries([[1, 1], [0, 0]])
        out = apply_event(s, MatrixEvent(COLUMN_ZERO, col=1))
        assert out.entries.tolist() == [[1, 0], [0, 0]]
        assert out.column_counts.tolist() == [1, 0]

    def test_entry_set(self):
        s = MatrixState.zeros(2, 2)
        out = apply_event(s, MatrixEvent(ENTRY_SET, row=1, col=0))
        assert out.entries.tolist() == [[0, 0], [1, 0]]

    def test_rejects_out_of_range(self):
        s = MatrixState.zeros(2, 3)
        with pytest.raises(ValueError):
            apply_event(s, MatrixEvent(ROW_SET, row=2))
        with pytest.raises(ValueError):
            apply_event(s, MatrixEvent(COLUMN_ZERO, col=3))
        with pytest.raises(ValueError):
            apply_event(s, MatrixEvent(ENTRY_SET, row=0, col=3))

    def test_row_and_column_events_idempotent(self):
        rng = np.random.default_rng(4)
        s = MatrixState.from_entries(rng.integers(0, 2, size=(3, 4)))
        for ev in (MatrixEvent(ROW_SET, row=1), MatrixEvent(COLUMN_ZERO, col=2)):
            once = apply_event(s, ev)
            twice = apply_event(once, ev)
            assert once == twice

    def test_original_state_untouched(self):
        s = MatrixState.zeros(2, 2)
        apply_event(s, MatrixEvent(ROW_SET, row=0))
        assert s.entries.sum() == 0


class TestComposeClosedForm:
    def test_single_add_then_delete(self):
        s = MatrixState.zeros(2, 2)
        out = compose_closed_form(s, additions=[{0}], deletions=[{1}])
        assert out.entries.tolist() == [[1, 0], [0, 0]]

    def test_identity_on_empty_steps(self):
        rng = np.random.default_rng(9)
        s = MatrixState.from_entries(rng.integers(0, 2, size=(3, 3)))
        assert compose_closed_form(s, [set()], [set()]) == s

    def test_all_columns_deleted(self):
        s = MatrixState.from_entries([[1, 1], [1, 1]])
        out = compose_closed_form(s, additions=[set(), set()], deletions=[{0}, {1}])
        assert out.entries.sum() == 0

    def test_length_mismatch_rejected(self):
        s = MatrixState.zeros(2, 2)
        with pytest.raises(ValueError):
            compose_closed_form(s, [{0}], [])

    def test_out_of_range_rejected(self):
        s = MatrixState.zeros(2, 2)
        with pytest.raises(ValueError):
            compose_closed_form(s, [{2}], [set()])
        with pytest.raises(ValueError):
            compose_closed_form(s, [set()], [{5}])

    def test_matches_sequential_replay(self):
        # Random (row-set, column-zero) step sequences, checked bit-exactly
        # against event-by-event application.
        rng = np.random.default_rng(123)
        for trial in range(60):
            M = int(rng.integers(1, 7))
            N = int(rng.integers(1, 7))
            T = int(rng.integers(0, 26))  # up to 25 steps = 50 set-events
            start = MatrixState.from_entries(rng.integers(0, 2, size=(M, N)))
            additions, deletions = [], []
            for _ in range(T):
                additions.append({int(j) for j in rng.integers(0, M, size=rng.integers(0, 3))})
                deletions.append({int(i) for i in rng.integers(0, N, size=rng.integers(0, 3))})
            replay = start
            for add, delete in zip(additions, deletions):
                for j in sorted(add):
                    replay = apply_event(replay, MatrixEvent(ROW_SET, row=j))
                for i in sorted(delete):
                    replay = apply_event(replay, MatrixEvent(COLUMN_ZERO, col=i))
            closed = compose_closed_form(start, additions, deletions)
            assert closed == replay, f"trial {trial}: composition disagrees with replay"
