"""Contract tests for parameter records, states, events, and composition."""

import numpy as np
import pytest

from immunochain.models import (
    MatrixParams,
    MatrixState,
    SingleColumnParams,
    apply_event,
    column_zero,
    compose_closed_form,
    entry_set,
    enumerate_rates,
    row_set,
)


class TestParams:
    def test_single_column_derived_fields(self):
        p = SingleColumnParams(M=4, alpha=2.0, p=0.25)
        assert p.q == 0.75
        assert p.a == pytest.approx(0.25 * 4 / (2.0 * 0.75))
        assert p.uniformization_rate == pytest.approx(0.25 + 1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0, alpha=1.0, p=0.5),
            dict(M=3, alpha=0.0, p=0.5),
            dict(M=3, alpha=-1.0, p=0.5),
            dict(M=3, alpha=1.0, p=0.0),
            dict(M=3, alpha=1.0, p=1.0),
            dict(M=3, alpha=1.0, p=1.5),
            dict(M=3, alpha=5e-324, p=0.5),  # alpha*q underflows to 0
        ],
    )
    def test_single_column_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SingleColumnParams(**kwargs)

    def test_with_a_hits_requested_exponent(self):
        for M in (2, 10, 1000):
            for a in (0.5, 1.0, 2.0):
                params = SingleColumnParams.with_a(M, a, alpha=1.3)
                assert params.a == pytest.approx(a, rel=1e-12)

    def test_matrix_derived_fields(self):
        p = MatrixParams(M=200, N=100, p=0.1, lambda_m=1.0)
        assert p.q == pytest.approx(0.9)
        assert p.q_tilde == pytest.approx(1.9)
        assert p.b == pytest.approx(0.1 * 200 / (0.9 * 100))
        assert p.b_tilde == pytest.approx(0.1 * 200 / (1.9 * 100))
        assert p.total_rate == pytest.approx(1.0 + 100 * 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0, N=1, p=0.5),
            dict(M=1, N=0, p=0.5),
            dict(M=1, N=1, p=0.0),
            dict(M=1, N=1, p=1.0),
            dict(M=1, N=1, p=0.5, lambda_m=-0.1),
        ],
    )
    def test_matrix_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MatrixParams(**kwargs)


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
        out = apply_event(s, row_set(0))
        assert out.entries.tolist() == [[1, 1], [0, 0]]
        assert out.column_counts.tolist() == [1, 1]

    def test_column_zero(self):
        s = MatrixState.from_entries([[1, 1], [0, 0]])
        out = apply_event(s, column_zero(1))
        assert out.entries.tolist() == [[1, 0], [0, 0]]
        assert out.column_counts.tolist() == [1, 0]

    def test_entry_set(self):
        s = MatrixState.zeros(2, 2)
        out = apply_event(s, entry_set(1, 0))
        assert out.entries.tolist() == [[0, 0], [1, 0]]

    def test_rejects_out_of_range(self):
        s = MatrixState.zeros(2, 3)
        with pytest.raises(ValueError):
            apply_event(s, row_set(2))
        with pytest.raises(ValueError):
            apply_event(s, column_zero(3))
        with pytest.raises(ValueError):
            apply_event(s, entry_set(0, 3))

    def test_row_and_column_events_idempotent(self):
        rng = np.random.default_rng(4)
        s = MatrixState.from_entries(rng.integers(0, 2, size=(3, 4)))
        for ev in (row_set(1), column_zero(2)):
            once = apply_event(s, ev)
            twice = apply_event(once, ev)
            assert once == twice

    def test_cached_counts_survive_random_sequences(self):
        rng = np.random.default_rng(11)
        state = MatrixState.zeros(4, 5)
        for _ in range(300):
            kind = rng.integers(0, 3)
            if kind == 0:
                ev = row_set(int(rng.integers(0, 4)))
            elif kind == 1:
                ev = column_zero(int(rng.integers(0, 5)))
            else:
                ev = entry_set(int(rng.integers(0, 4)), int(rng.integers(0, 5)))
            state = apply_event(state, ev)
            assert state.counts_consistent()

    def test_original_state_untouched(self):
        s = MatrixState.zeros(2, 2)
        apply_event(s, row_set(0))
        assert s.entries.sum() == 0


class TestIndexRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = MatrixState.from_entries(rng.integers(0, 2, size=(M, N)))
            assert MatrixState.from_index(M, N, s.to_index()) == s


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
                    replay = apply_event(replay, row_set(j))
                for i in sorted(delete):
                    replay = apply_event(replay, column_zero(i))
            closed = compose_closed_form(start, additions, deletions)
            assert closed == replay, f"trial {trial}: composition disagrees with replay"
