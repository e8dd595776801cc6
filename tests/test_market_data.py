import math

import pytest
from hypothesis import given, strategies as st

from fxsvol.errors import (
    DeltaOutOfRange,
    InvalidForward,
    InvariantViolation,
    NonPositivePillarVol,
    ParseError,
)
from fxsvol.market_data import (
    PILLAR_DELTAS,
    PILLARS,
    black_delta,
    build_surface,
    group_rows_by_date,
    ingest_csv,
    rates_from_quotes,
    smile_from_strategies,
    strike_from_delta,
    tenor_year_fraction,
    VolSurface,
)

from synthutil import synth_surface, write_quote_csv


class TestSmileFromStrategies:
    def test_rr_fly_decomposition(self):
        nodes = smile_from_strategies(0.10, 0.01, 0.005, 0.0, 0.0)
        assert nodes["25C"] == pytest.approx(0.110, abs=1e-15)
        assert nodes["25P"] == pytest.approx(0.100, abs=1e-15)
        assert nodes["ATM"] == 0.10

    def test_flat_smile(self):
        nodes = smile_from_strategies(0.10, 0.0, 0.0, 0.0, 0.0)
        assert all(v == 0.10 for v in nodes.vols)

    def test_zero_rr_symmetric(self):
        nodes = smile_from_strategies(0.10, 0.0, 0.004, 0.0, 0.009)
        assert nodes["10P"] == nodes["10C"] == pytest.approx(0.109)
        assert nodes["25P"] == nodes["25C"] == pytest.approx(0.104)

    def test_non_positive_wing_raises(self):
        with pytest.raises(NonPositivePillarVol):
            smile_from_strategies(0.10, 0.0, -0.11, 0.0, 0.0)

    @given(atm=st.floats(0.05, 0.5), rr25=st.floats(-0.04, 0.04),
           fly25=st.floats(0.0, 0.05), rr10=st.floats(-0.04, 0.04),
           fly10=st.floats(0.0, 0.05))
    def test_identities_invert_exactly(self, atm, rr25, fly25, rr10, fly10):
        nodes = smile_from_strategies(atm, rr25, fly25, rr10, fly10)
        v = dict(zip(PILLARS, nodes.vols))
        assert v["25C"] - v["25P"] == pytest.approx(rr25, abs=1e-15)
        assert 0.5 * (v["25C"] + v["25P"]) - v["ATM"] == pytest.approx(fly25, abs=1e-15)
        assert v["10C"] - v["10P"] == pytest.approx(rr10, abs=1e-15)
        assert 0.5 * (v["10C"] + v["10P"]) - v["ATM"] == pytest.approx(fly10, abs=1e-15)


class TestRatesFromQuotes:
    def test_zero_rates(self):
        r_d, r_f, fwd = rates_from_quotes(0.0, 0.0, 100.0, 1.0)
        assert r_d == r_f == 0.0
        assert fwd == 100.0

    def test_zero_forward_points_forces_equal_rates(self):
        r_d, r_f, _ = rates_from_quotes(0.02, 0.0, 1.25, 1.0)
        assert r_f == pytest.approx(math.log(1.02))
        assert r_d == pytest.approx(r_f)

    def test_parity_hand_computed(self):
        r_d, r_f, fwd = rates_from_quotes(0.01, 0.5, 100.0, 0.5)
        assert fwd == 100.5
        assert r_f == pytest.approx(2.0 * math.log(1.005), abs=1e-15)
        # covered interest parity to 1e-12 relative
        assert abs(100.0 * math.exp((r_d - r_f) * 0.5) - 100.5) < 1e-12 * 100.0

    def test_negative_forward_raises(self):
        with pytest.raises(InvalidForward):
            rates_from_quotes(0.0, -120.0, 100.0, 1.0)

    @given(ois=st.floats(-0.02, 0.08), pts=st.floats(-0.1, 0.1),
           spot=st.floats(0.5, 2.0), tau=st.floats(0.02, 3.0))
    def test_parity_always_holds(self, ois, pts, spot, tau):
        r_d, r_f, fwd = rates_from_quotes(ois, pts, spot, tau)
        assert abs(spot * math.exp((r_d - r_f) * tau) - fwd) < 1e-12 * spot


class TestStrikeFromDelta:
    def test_zero_vol_limit_collapses_to_forward(self):
        fwd = 1.0
        k = strike_from_delta(1.0, 0.0, 0.0, 1.0, 1e-8, 0.25)
        assert k == pytest.approx(fwd, abs=1e-7)

    def test_atm_pillar_call_convention(self):
        k = strike_from_delta(1.0, 0.0, 0.0, 1.0, 0.1, 0.5)
        assert k == pytest.approx(math.exp(0.005), rel=1e-12)

    def test_round_trip_via_black_delta(self):
        spot, r_d, r_f, tau, vol = 1.30, 0.01, 0.005, 0.25, 0.09
        k = strike_from_delta(spot, r_d, r_f, tau, vol, -0.25)
        assert black_delta(spot, k, r_d, r_f, tau, vol, -1.0) == pytest.approx(
            -0.25, abs=1e-10)
        k = strike_from_delta(spot, r_d, r_f, tau, vol, 0.10)
        assert black_delta(spot, k, r_d, r_f, tau, vol, 1.0) == pytest.approx(
            0.10, abs=1e-10)

    def test_strikes_decrease_in_signed_call_delta(self):
        spot, r_d, r_f, tau, vol = 1.30, 0.01, 0.005, 0.5, 0.10
        # signed call-delta ordering: 10C (0.1) -> 25C -> ATM -> 25P (0.75 call
        # equivalent) -> 10P; strikes must decrease monotonically
        strikes = [strike_from_delta(spot, r_d, r_f, tau, vol, d)
                   for d in (0.10, 0.25, 0.50, -0.25, -0.10)]
        assert all(a > b for a, b in zip(strikes, strikes[1:]))

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            strike_from_delta(1.0, 0.0, 0.5, 2.0, 0.1, 0.5)  # 0.5*e^{1} > 1


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("date,tenor,spot,ois,fwd_points,atm,rr25,fly25,rr10,fly10\n")
        assert ingest_csv(path) == []

    def test_completely_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        assert ingest_csv(path) == []

    def test_non_numeric_atm_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,tenor,spot,ois,fwd_points,atm,rr25,fly25,rr10,fly10\n"
            "2014-06-02,1M,1.3,0.01,0.001,oops,0,0,0,0\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.column == "atm"
        assert err.value.row == 2

    @pytest.mark.parametrize("column", ["spot", "ois", "fwd_points", "atm"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_raises_with_location(self, tmp_path, column, raw):
        cells = dict(date="2014-06-02", tenor="1M", spot="1.3", ois="0.01",
                     fwd_points="0.001", atm="10", rr25="0", fly25="0", rr10="0",
                     fly10="0")
        cells[column] = raw
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cells) + "\n" + ",".join(cells.values()) + "\n")
        with pytest.raises(ParseError, match=f"^row 2, column '{column}': not finite") as err:
            ingest_csv(path)
        assert err.value.column == column
        assert err.value.row == 2

    def test_percent_conversion_default(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(
            "date,tenor,spot,ois,fwd_points,atm,rr25,fly25,rr10,fly10\n"
            "2014-06-02,1M,1.3,0.01,0.001,10.0,-1.0,0.2,-1.8,0.6\n")
        row = ingest_csv(path)[0]
        assert row.atm == pytest.approx(0.10)
        assert row.rr25 == pytest.approx(-0.01)
        row = ingest_csv(path, vols_decimal=True)[0]
        assert row.atm == pytest.approx(10.0)

    def test_six_tenor_surface_has_30_cells(self, tmp_path, heston_median_params):
        surf = synth_surface("heston", heston_median_params)
        path = write_quote_csv(tmp_path / "q.csv", [surf], vols_decimal=True)
        rows = ingest_csv(path, vols_decimal=True)
        rebuilt = build_surface(rows)
        assert rebuilt.n_cells == 30
        assert len(rebuilt.slices) == 6

    def test_duplicate_tenor_raises(self, tmp_path, heston_median_params):
        surf = synth_surface("heston", heston_median_params, tenors=("1M",))
        path = write_quote_csv(tmp_path / "q.csv", [surf, surf], vols_decimal=True)
        rows = ingest_csv(path, vols_decimal=True)
        with pytest.raises(InvariantViolation, match="1M"):
            build_surface(rows)

    def test_percent_heuristic_warning(self, tmp_path, heston_median_params):
        surf = synth_surface("heston", heston_median_params, tenors=("1M", "2M"))
        # write percent-points but ingest them as decimals
        path = write_quote_csv(tmp_path / "q.csv", [surf], vols_decimal=False)
        rows = ingest_csv(path, vols_decimal=True)
        rebuilt = build_surface(rows)
        assert rebuilt.warnings
        assert "percentage points" in rebuilt.warnings[0]


class TestSurface:
    def test_strikes_strictly_increasing(self, heston_surface):
        for sl in heston_surface.slices:
            assert all(a < b for a, b in zip(sl.strikes, sl.strikes[1:]))

    def test_parity_invariant(self, heston_surface):
        s = heston_surface.spot
        for sl in heston_surface.slices:
            assert abs(s * math.exp((sl.r_d - sl.r_f) * sl.tau) - sl.forward) \
                < 1e-12 * s

    def test_round_trips_json(self, heston_surface):
        rebuilt = VolSurface.from_dict(heston_surface.to_dict())
        assert rebuilt.date == heston_surface.date
        for a, b in zip(rebuilt.slices, heston_surface.slices):
            assert a.vols.vols == b.vols.vols
            assert a.strikes == b.strikes

    def test_tenor_year_fraction_act365(self):
        import datetime
        d = datetime.date(2014, 6, 2)
        assert tenor_year_fraction(d, "1M") == pytest.approx(30 / 365)
        assert tenor_year_fraction(d, "1Y") == pytest.approx(365 / 365)
        # month-end clamping: Jan 31 + 1M -> Feb 28
        assert tenor_year_fraction(datetime.date(2015, 1, 31), "1M") == \
            pytest.approx(28 / 365)
        # year wrap: Dec 31 + 2M -> Feb 28; leap February: Jan 31 + 1M ->
        # Feb 29; Mar 31 + 6M -> Sep 30
        assert tenor_year_fraction(datetime.date(2014, 12, 31), "2M") == 59 / 365
        assert tenor_year_fraction(datetime.date(2016, 1, 31), "1M") == 29 / 365
        assert tenor_year_fraction(datetime.date(2014, 3, 31), "6M") == 183 / 365

    def test_group_rows_by_date_sorted(self, tmp_path, heston_median_params):
        s1 = synth_surface("heston", heston_median_params, date="2014-06-03",
                           tenors=("1M",))
        s2 = synth_surface("heston", heston_median_params, date="2014-06-02",
                           tenors=("1M",))
        path = write_quote_csv(tmp_path / "q.csv", [s1, s2], vols_decimal=True)
        groups = group_rows_by_date(ingest_csv(path, vols_decimal=True))
        assert list(groups) == ["2014-06-02", "2014-06-03"]
