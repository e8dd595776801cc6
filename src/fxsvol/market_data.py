"""OTC FX quote ingestion and volatility-surface construction.

Quotes arrive as per-(date, tenor) rows of strategy vols (ATM, 25/10-delta
risk reversals and butterflies) plus spot, OIS and forward points.  From
those we derive continuously compounded rates, the forward, the five smile
pillars and their absolute strikes.
"""

from __future__ import annotations

import calendar
import csv
import datetime as _dt
import math
from dataclasses import dataclass, field

from .errors import (
    DeltaOutOfRange,
    InvalidForward,
    InvariantViolation,
    NonPositivePillarVol,
    ParseError,
)
from .pricer import norm_cdf, norm_ppf

PILLARS = ("10P", "25P", "ATM", "25C", "10C")
PILLAR_DELTAS = {"10P": -0.10, "25P": -0.25, "ATM": 0.50, "25C": 0.25, "10C": 0.10}

TENORS = ("1M", "2M", "3M", "6M", "1Y", "2Y")
_TENOR_MONTHS = {"1M": 1, "2M": 2, "3M": 3, "6M": 6, "1Y": 12, "2Y": 24}

CSV_COLUMNS = ("date", "tenor", "spot", "ois", "fwd_points",
               "atm", "rr25", "fly25", "rr10", "fly10")


def tenor_year_fraction(date: _dt.date, tenor: str) -> float:
    """ACT/365 year fraction from `date` to the tenor's calendar end date."""
    months = _TENOR_MONTHS[tenor]
    y, m = divmod(date.month - 1 + months, 12)
    year, month = date.year + y, m + 1
    # clamp to month end (e.g. Jan 31 + 1M -> Feb 28)
    day = min(date.day, calendar.monthrange(year, month)[1])
    end = _dt.date(year, month, day)
    return (end - date).days / 365.0


# ---------------------------------------------------------------------------
# smile and rates
# ---------------------------------------------------------------------------

def smile_from_strategies(atm, rr25, fly25, rr10, fly10):
    """Pillar vols from strategy quotes.

    10P = ATM + FLY10 - RR10/2, 25P = ATM + FLY25 - RR25/2, ATM,
    25C = ATM + FLY25 + RR25/2, 10C = ATM + FLY10 + RR10/2.
    """
    vols = (
        atm + fly10 - 0.5 * rr10,
        atm + fly25 - 0.5 * rr25,
        atm,
        atm + fly25 + 0.5 * rr25,
        atm + fly10 + 0.5 * rr10,
    )
    for pillar, vol in zip(PILLARS, vols):
        if not vol > 0.0:
            raise NonPositivePillarVol(f"pillar {pillar} vol {vol!r} <= 0")
    return SmileNodes(vols)


def rates_from_quotes(ois, fwd_points, spot, tau, forward=None):
    """Rates and forward from an OIS simple rate and forward points.

    r_f is the continuously compounded equivalent of the simple OIS rate;
    the forward is spot plus forward points (or given outright); r_d is then
    fixed by covered interest parity F = S * exp((r_d - r_f) * tau).
    """
    if spot <= 0.0 or tau <= 0.0:
        raise InvariantViolation(f"need spot > 0 and tau > 0, got {spot}, {tau}")
    if 1.0 + ois * tau <= 0.0:
        raise InvariantViolation(f"1 + ois*tau = {1.0 + ois * tau} <= 0")
    r_f = math.log(1.0 + ois * tau) / tau
    fwd = spot + fwd_points if forward is None else forward
    if fwd <= 0.0:
        raise InvalidForward(f"forward {fwd} <= 0")
    r_d = r_f + math.log(fwd / spot) / tau
    return r_d, r_f, fwd


def strike_from_delta(spot, r_d, r_f, tau, vol, delta):
    """Strike for a spot-delta quoted pillar.

    K = F * exp(vol^2 tau / 2 - sgn(delta) vol sqrt(tau) N^{-1}(|delta| e^{r_f tau})).
    delta = 0.5 is treated as a call (sgn = +1).
    """
    if vol <= 0.0 or tau <= 0.0:
        raise InvariantViolation(f"need vol > 0 and tau > 0, got {vol}, {tau}")
    q = abs(delta) * math.exp(r_f * tau)
    if not 0.0 < q < 1.0:
        raise DeltaOutOfRange(f"|delta|*exp(r_f*tau) = {q} outside (0, 1)")
    sgn = -1.0 if delta < 0.0 else 1.0
    fwd = spot * math.exp((r_d - r_f) * tau)
    return fwd * math.exp(0.5 * vol * vol * tau - sgn * vol * math.sqrt(tau) * norm_ppf(q))


def black_delta(spot, strike, r_d, r_f, tau, vol, delta_sign):
    """Foreign-discounted Black spot delta; round-trips the pillar strikes."""
    d1 = (math.log(spot / strike)
          + (r_d - r_f + 0.5 * vol * vol) * tau) / (vol * math.sqrt(tau))
    return delta_sign * math.exp(-r_f * tau) * norm_cdf(delta_sign * d1)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmileNodes:
    """Five pillar vols in (10P, 25P, ATM, 25C, 10C) order."""
    vols: tuple

    def __post_init__(self):
        if len(self.vols) != 5:
            raise InvariantViolation("smile needs exactly five pillar vols")
        if any(v <= 0.0 for v in self.vols):
            raise NonPositivePillarVol(f"non-positive vol in {self.vols}")

    def __getitem__(self, pillar):
        return self.vols[PILLARS.index(pillar)]

    @property
    def atm(self):
        return self.vols[2]


@dataclass(frozen=True)
class QuoteRow:
    date: str
    tenor: str
    tau: float
    spot: float
    ois: float
    fwd_points: float
    atm: float
    rr25: float
    fly25: float
    rr10: float
    fly10: float


@dataclass(frozen=True)
class TenorSlice:
    """One maturity of the surface: rates, forward, pillar vols and strikes."""
    tenor: str
    tau: float
    r_d: float
    r_f: float
    forward: float
    vols: SmileNodes
    strikes: tuple

    def __post_init__(self):
        diffs = [b - a for a, b in zip(self.strikes, self.strikes[1:])]
        if any(d <= 0.0 for d in diffs):
            raise InvariantViolation(
                f"strikes not strictly increasing across pillars for {self.tenor}: {self.strikes}")


@dataclass(frozen=True)
class VolSurface:
    date: str
    spot: float
    slices: tuple  # TenorSlice, ordered by tau
    warnings: tuple = field(default=(), compare=False)

    def __post_init__(self):
        taus = [s.tau for s in self.slices]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InvariantViolation("tenor slices must be ordered by increasing tau")

    @property
    def n_cells(self):
        return 5 * len(self.slices)

    def to_dict(self):
        return {
            "date": self.date,
            "spot": self.spot,
            "tenors": [
                {
                    "tenor": s.tenor,
                    "tau": s.tau,
                    "r_d": s.r_d,
                    "r_f": s.r_f,
                    "forward": s.forward,
                    "nodes": [
                        {"pillar": p, "delta": PILLAR_DELTAS[p], "vol": v, "strike": k}
                        for p, v, k in zip(PILLARS, s.vols.vols, s.strikes)
                    ],
                }
                for s in self.slices
            ],
        }

    @classmethod
    def from_dict(cls, d):
        slices = []
        for t in d["tenors"]:
            nodes = {n["pillar"]: n for n in t["nodes"]}
            slices.append(TenorSlice(
                tenor=t["tenor"], tau=t["tau"], r_d=t["r_d"], r_f=t["r_f"],
                forward=t["forward"],
                vols=SmileNodes(tuple(nodes[p]["vol"] for p in PILLARS)),
                strikes=tuple(nodes[p]["strike"] for p in PILLARS),
            ))
        return cls(date=d["date"], spot=d["spot"], slices=tuple(slices))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path, vols_decimal=False):
    """Parse a quote CSV into QuoteRows.

    Vol columns are percentage points by default (10.0 -> 0.10); pass
    vols_decimal=True when the file already holds decimals.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return rows
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing columns: {missing}", row=1)
        scale = 1.0 if vols_decimal else 0.01
        for i, rec in enumerate(reader, start=2):
            rows.append(_parse_row(rec, i, scale))
    return rows


def _parse_row(rec, row_no, scale):
    def num(col):
        raw = rec.get(col)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ParseError(f"row {row_no}, column '{col}': not numeric: {raw!r}",
                             row=row_no, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"row {row_no}, column '{col}': not finite: {raw!r}",
                             row=row_no, column=col)
        return value

    tenor = (rec.get("tenor") or "").strip()
    if tenor not in TENORS:
        raise ParseError(f"row {row_no}, column 'tenor': unknown tenor {tenor!r}",
                         row=row_no, column="tenor")
    raw_date = (rec.get("date") or "").strip()
    try:
        date = _dt.date.fromisoformat(raw_date)
    except ValueError:
        raise ParseError(f"row {row_no}, column 'date': not ISO-8601: {raw_date!r}",
                         row=row_no, column="date") from None
    return QuoteRow(
        date=raw_date,
        tenor=tenor,
        tau=tenor_year_fraction(date, tenor),
        spot=num("spot"),
        ois=num("ois"),
        fwd_points=num("fwd_points"),
        atm=num("atm") * scale,
        rr25=num("rr25") * scale,
        fly25=num("fly25") * scale,
        rr10=num("rr10") * scale,
        fly10=num("fly10") * scale,
    )


def build_surface(rows):
    """Assemble the VolSurface for one date from its quote rows."""
    if not rows:
        raise InvariantViolation("no rows supplied")
    dates = {r.date for r in rows}
    if len(dates) != 1:
        raise InvariantViolation(f"rows span multiple dates: {sorted(dates)}")
    seen = set()
    warnings = []
    for r in rows:
        key = (r.date, r.tenor)
        if key in seen:
            raise InvariantViolation(f"duplicate (date, tenor) pair {key}")
        seen.add(key)
        if r.atm > 3.0:
            warnings.append(
                f"{r.date}/{r.tenor}: atm vol {r.atm:.4g} > 3; file likely in "
                "percentage points, re-ingest without --vols-decimal")
    spot = rows[0].spot
    slices = []
    for r in sorted(rows, key=lambda r: r.tau):
        r_d, r_f, fwd = rates_from_quotes(r.ois, r.fwd_points, r.spot, r.tau)
        vols = smile_from_strategies(r.atm, r.rr25, r.fly25, r.rr10, r.fly10)
        strikes = tuple(
            strike_from_delta(r.spot, r_d, r_f, r.tau, vols[p], PILLAR_DELTAS[p])
            for p in PILLARS
        )
        slices.append(TenorSlice(tenor=r.tenor, tau=r.tau, r_d=r_d, r_f=r_f,
                                 forward=fwd, vols=vols, strikes=strikes))
    return VolSurface(date=rows[0].date, spot=spot, slices=tuple(slices),
                      warnings=tuple(warnings))


def group_rows_by_date(rows):
    """Split a row list into per-date groups, preserving date order."""
    groups = {}
    for r in rows:
        groups.setdefault(r.date, []).append(r)
    return dict(sorted(groups.items()))
