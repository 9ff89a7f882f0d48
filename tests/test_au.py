"""Action-unit vectors, the pain score, and score-conditioned sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painforge.errors import ParameterError
from painforge.facesynth.au import AUVector, pspi_score, sample_au_config


def brute_force_score(au4, au6, au7, au9, au10, au43):
    """The summation oracle, written directly from the scoring rule."""
    return au4 + max(au6, au7) + max(au9, au10) + au43


class TestPSPIScore:
    def test_all_zero(self):
        assert pspi_score(AUVector()) == 0

    def test_hand_case(self):
        assert pspi_score(AUVector(au4=2, au6=3, au7=1, au9=0, au10=2, au43=1)) == 8

    def test_maximum(self):
        assert pspi_score(AUVector(5, 5, 5, 5, 5, 1)) == 16

    def test_matches_brute_force_on_all_integer_configs(self):
        # All 6^5 * 2 = 15,552 integer configurations, exactly.
        count = 0
        for au4, au6, au7, au9, au10 in itertools.product(range(6), repeat=5):
            for au43 in (0, 1):
                got = pspi_score(AUVector(au4, au6, au7, au9, au10, au43))
                assert got == brute_force_score(au4, au6, au7, au9, au10, au43)
                count += 1
        assert count == 15552

    def test_continuous_intensities_round_half_up(self):
        assert pspi_score(AUVector(au4=1.5)) == 2
        assert pspi_score(AUVector(au4=1.49)) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0, 5),
           st.floats(0, 5), st.floats(0, 5), st.integers(0, 1))
    def test_range_invariant(self, a4, a6, a7, a9, a10, a43):
        score = pspi_score(AUVector(a4, a6, a7, a9, a10, a43))
        assert 0 <= score <= 16


class TestAUVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            AUVector(au4=5.1)
        with pytest.raises(ParameterError):
            AUVector(au6=-0.01)
        with pytest.raises(ParameterError):
            AUVector(au43=2)

    def test_array_round_trip(self):
        v = AUVector(1, 2, 3, 4, 5, 1)
        assert AUVector.from_array(v.as_array()) == v


class TestSampleAUConfig:
    def test_target_zero_is_forced(self):
        for seed in range(5):
            assert not sample_au_config(0, seed).as_array().any()

    def test_target_sixteen_constraints(self):
        for seed in range(5):
            v = sample_au_config(16, seed)
            assert v.au4 == 5 and v.au43 == 1
            assert max(v.au6, v.au7) == 5
            assert max(v.au9, v.au10) == 5

    def test_every_draw_hits_target(self):
        for draw in range(1000):
            v = sample_au_config(8, seed=draw)
            assert pspi_score(v) == 8

    def test_all_targets_achievable(self):
        for target in range(17):
            assert pspi_score(sample_au_config(target, seed=3)) == target

    def test_deterministic_per_seed(self):
        assert sample_au_config(7, 123) == sample_au_config(7, 123)

    def test_values_are_integers(self):
        v = sample_au_config(9, 5)
        arr = v.as_array()
        assert np.array_equal(arr, np.round(arr))

    def test_rejects_bad_target(self):
        with pytest.raises(ParameterError):
            sample_au_config(17, 0)
        with pytest.raises(ParameterError):
            sample_au_config(-1, 0)
