"""Contract tests for parameter records and matrix states."""

import numpy as np
import pytest

from immunochain.models import MatrixParams, MatrixState, SingleColumnParams


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


class TestIndexRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = MatrixState.from_entries(rng.integers(0, 2, size=(M, N)))
            assert MatrixState.from_index(M, N, s.to_index()) == s

    def test_empty_shapes_refused(self):
        for M, N in ((0, 3), (3, 0), (0, 0)):
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                MatrixState.from_index(M, N, 0)
