import numpy as np
import pytest

from gapedit.instances import (Instance, gen_large_side, gen_periodic,
                               gen_planted, load_instance, plant_edits,
                               save_instance)
from gapedit.strings import (ByteString, edit_distance_at_most,
                             edit_distance_exact)


class TestPlanted:
    def test_length_preserved_and_distance_bounded(self):
        for t in range(30):
            inst = gen_planted(120, 4, 6, seed=t)
            assert len(inst.a) == len(inst.b) == 120
            assert edit_distance_exact(inst.a, inst.b) <= 6

    def test_zero_edits_identical(self):
        inst = gen_planted(50, 4, 0, seed=1)
        assert np.array_equal(inst.a.data, inst.b.data)

    def test_exact_label(self):
        inst = gen_planted(60, 8, 4, seed=2, compute_exact=True)
        assert inst.exact_ed == edit_distance_exact(inst.a, inst.b)
        assert inst.exact_ed <= 4

    @pytest.mark.parametrize("n,edits", [(8, -2), (4, 10)])
    def test_edits_outside_zero_to_n_are_refused(self, n, edits):
        with pytest.raises(ValueError, match="edits must be in 0..n"):
            gen_planted(n, 4, edits, seed=1)

    def test_reuse_base_string(self):
        base = gen_planted(80, 4, 0, seed=3).a
        i1 = gen_planted(80, 4, 2, seed=4, base=base)
        i2 = gen_planted(80, 4, 2, seed=5, base=base)
        assert i1.a is base and i2.a is base
        assert not np.array_equal(i1.b.data, i2.b.data)

    def test_plant_edits_deterministic(self):
        base = gen_planted(100, 4, 0, seed=6).a
        b1 = plant_edits(base, 5, np.random.default_rng(9))
        b2 = plant_edits(base, 5, np.random.default_rng(9))
        assert np.array_equal(b1.data, b2.data)


class TestLargeSide:
    def test_certified_threshold(self):
        inst = gen_large_side(300, 64, 200, seed=0)
        assert inst.threshold == 200
        assert not edit_distance_at_most(inst.a, inst.b, 200)

    def test_unreachable_threshold_raises(self):
        # random binary pairs sit near 0.3 n, far below 0.8 n
        with pytest.raises(ValueError):
            gen_large_side(200, 2, 160, seed=1, max_tries=3)


class TestPeriodic:
    def test_periodicity(self):
        s = gen_periodic(100, 4, 7, seed=0)
        for i in range(1, 94):
            assert s.at(i) == s.at(i + 7)

    def test_corruptions_break_it(self):
        s = gen_periodic(100, 4, 7, seed=0)
        t = gen_periodic(100, 4, 7, seed=0, corrupt=20)
        assert not np.array_equal(s.data, t.data)

    @pytest.mark.parametrize("period,corrupt,msg", [
        (0, 0, "period must be at least 1"),
        (-3, 0, "period must be at least 1"),
        (3, -5, "corrupt must be at least 0"),
    ])
    def test_bad_period_or_corrupt_refused(self, period, corrupt, msg):
        with pytest.raises(ValueError, match=msg):
            gen_periodic(8, 4, period, seed=1, corrupt=corrupt)


class TestIO:
    def test_roundtrip(self, tmp_path):
        inst = gen_planted(64, 16, 3, seed=7, compute_exact=True)
        save_instance(inst, tmp_path / "x")
        got = load_instance(tmp_path / "x")
        assert np.array_equal(got.a.data, inst.a.data)
        assert np.array_equal(got.b.data, inst.b.data)
        assert got.label == "small"
        assert got.planted_edits == 3
        assert got.exact_ed == inst.exact_ed

    def test_large_roundtrip(self, tmp_path):
        inst = gen_large_side(128, 64, 80, seed=8)
        save_instance(inst, tmp_path / "y")
        got = load_instance(tmp_path / "y")
        assert got.threshold == 80 and got.label == "large"
