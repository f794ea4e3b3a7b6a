import math

import pytest
from hypothesis import given, strategies as st

from h2cost.errors import DomainError
from h2cost.finance import lifetime_hours_to_years, pvifa, wright_capital_cost


class TestPvifa:
    def test_matches_published_factors_after_rounding(self):
        # stack lifetimes of 60/75/40 thousand hours at full load, 7% discount
        expected = {60: 5.298125, 75: 6.281319, 40: 3.796826}
        for khr, value in expected.items():
            years = lifetime_hours_to_years(khr, 1.0)
            assert pvifa(0.07, years).value == pytest.approx(value, abs=1e-6)
        # the published parameter table rounds these to 5, 6 and 4
        assert [round(pvifa(0.07, lifetime_hours_to_years(k, 1.0)).value)
                for k in (60, 75, 40)] == [5, 6, 4]

    def test_zero_rate_limit_is_lifetime(self):
        assert pvifa(0.0, 10).value == 10

    def test_continuous_at_zero_rate(self):
        n = 23.5
        assert abs(pvifa(1e-9, n).value - n) < 1e-6 * n

    def test_rejects_negative_inputs(self):
        with pytest.raises(DomainError):
            pvifa(-0.01, 10)
        with pytest.raises(DomainError):
            pvifa(0.07, 0)

    @given(st.floats(0.01, 0.3), st.floats(1.0, 40.0), st.floats(0.1, 10.0))
    def test_strictly_increasing_in_lifetime(self, r, n, dn):
        assert pvifa(r, n + dn).value > pvifa(r, n).value

    @given(st.floats(0.01, 0.3), st.floats(0.01, 0.3), st.floats(1.0, 40.0))
    def test_strictly_decreasing_in_rate(self, r1, r2, n):
        lo, hi = sorted((r1, r2))
        if hi - lo > 1e-9:
            assert pvifa(hi, n).value < pvifa(lo, n).value


class TestLifetimeConversion:
    def test_full_load_values(self):
        assert lifetime_hours_to_years(60, 1.0) == pytest.approx(60000 / 8760)
        assert lifetime_hours_to_years(75, 1.0) == pytest.approx(75000 / 8760)

    def test_partial_load_stretches_calendar_life(self):
        assert lifetime_hours_to_years(87.6, 0.5) == pytest.approx(20.0)

    def test_rejects_zero_capacity_factor(self):
        with pytest.raises(DomainError):
            lifetime_hours_to_years(60, 0.0)

    def test_rejects_zero_lifetime(self):
        with pytest.raises(DomainError) as info:
            lifetime_hours_to_years(0.0, 1.0)
        assert str(info.value) == "lifetime must be > 0"


class TestWright:
    def test_ten_doublings(self):
        # oracle: apply the per-doubling factor ten times
        expected = 2500.0
        for _ in range(10):
            expected *= 1 - 0.105
        assert wright_capital_cost(2500, 0.105, 2, 2048) == pytest.approx(expected)
        assert wright_capital_cost(2500, 0.105, 2, 2048) == pytest.approx(824.46, abs=0.01)

    def test_ratio_one_is_identity(self):
        assert wright_capital_cost(750, 0.145, 20_000, 20_000) == 750

    def test_zero_learning_rate_is_flat(self):
        assert wright_capital_cost(1200, 0.0, 90, 9_000_000) == pytest.approx(1200)

    def test_no_forgetting(self):
        with pytest.raises(DomainError):
            wright_capital_cost(750, 0.145, 20_000, 19_999)

    @pytest.mark.parametrize("args, message", [
        ((-1.0, 0.145, 20_000, 20_000), "base unit cost must be >= 0"),
        ((750, 1.0, 20_000, 20_000), "learning rate must be in [0, 1), got 1.0"),
        ((750, -0.1, 20_000, 20_000),
         "learning rate must be in [0, 1), got -0.1"),
        ((750, 0.145, 0.0, 20_000), "cumulative base must be > 0"),
    ])
    def test_rejects_bad_inputs(self, args, message):
        with pytest.raises(DomainError) as info:
            wright_capital_cost(*args)
        assert str(info.value) == message

    @given(st.floats(100, 5000), st.floats(0.01, 0.5), st.floats(1, 1000))
    def test_one_doubling_multiplies_by_one_minus_lr(self, cost, lr, base):
        doubled = wright_capital_cost(cost, lr, base, 2 * base)
        assert doubled == pytest.approx(cost * (1 - lr), rel=1e-12)

    @given(st.floats(100, 5000), st.floats(0.01, 0.5),
           st.floats(1, 100), st.floats(1.0, 50.0), st.floats(1.0, 50.0))
    def test_path_independence(self, cost, lr, base, r1, r2):
        mid = base * r1
        end = mid * r2
        two_steps = wright_capital_cost(
            wright_capital_cost(cost, lr, base, mid), lr, mid, end)
        one_step = wright_capital_cost(cost, lr, base, end)
        assert two_steps == pytest.approx(one_step, rel=1e-9)

    @given(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0))
    def test_monotone_non_increasing_in_target(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert (wright_capital_cost(750, 0.145, 10, 10 * hi)
                <= wright_capital_cost(750, 0.145, 10, 10 * lo) + 1e-9)
