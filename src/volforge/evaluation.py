"""Forecast accuracy metrics, the Diebold-Mariano test and parametric VaR.

Report rows follow the result-table conventions: MSE scaled by 1e5, RMSE and
MAE by 1e3, MAPE in percent, pairwise DM statistics against a reference
model for both squared and absolute loss, and a 10-day 95% normal VaR from
each model's last forecast.

The Student-t tail of the DM p-value and the normal quantile of the VaR come
from ``scipy.special``, the program's only scipy module.  ``dm_test`` and
``var_estimate`` import it on their first call, so ``import volforge`` and
the verbs that build no report (``ingest``, ``simulate``, ``gradcheck``)
load no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

LOSSES = ("squared", "absolute")


@dataclass(frozen=True)
class ForecastRecord:
    model_id: str
    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.actual, dtype=float)
        p = np.asarray(self.predicted, dtype=float)
        if a.shape != p.shape or a.ndim != 1:
            raise DataError("actual and predicted must be 1-d arrays of equal length")
        if len(a) < 2:
            raise DataError("forecast record needs at least 2 observations")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
            raise DataError("forecast record contains NaN or inf")
        object.__setattr__(self, "actual", a)
        object.__setattr__(self, "predicted", p)
        a.setflags(write=False)
        p.setflags(write=False)

    def __len__(self) -> int:
        return len(self.actual)


def error_metric(metric: str, actual, predicted) -> float:
    """Mean squared ("MSE") or absolute ("MAE") error, for reports and selection searches."""
    e = np.asarray(actual, dtype=float) - np.asarray(predicted, dtype=float)
    if metric == "MSE":
        return float(np.mean(e * e))
    if metric == "MAE":
        return float(np.mean(np.abs(e)))
    raise DataError(f"unknown selection metric {metric!r}, expected MSE or MAE")


def point_metrics(rec: ForecastRecord) -> dict:
    """MSE, RMSE, MAE and MAPE; MAPE is nan when an actual is zero."""
    mse = error_metric("MSE", rec.actual, rec.predicted)
    out = {"MSE": mse, "RMSE": math.sqrt(mse), "MAE": error_metric("MAE", rec.actual, rec.predicted),
           "MAPE": math.nan}
    if not np.any(rec.actual == 0):
        e = rec.actual - rec.predicted
        out["MAPE"] = float(100.0 * np.mean(np.abs(e) / np.abs(rec.actual)))
    return out


@dataclass(frozen=True)
class DmResult:
    statistic: float
    p_value: float
    loss: str


def dm_test(rec1: ForecastRecord, rec2: ForecastRecord, loss: str = "squared") -> DmResult:
    """Two-sided Diebold-Mariano test on d_t = L(e1_t) - L(e2_t) at horizon 1.

    The long-run variance truncates at lag h-1 = 0 (plain sample variance of
    d with 1/T normalization); the Harvey small-sample factor multiplies the
    statistic and the p-value comes from Student-t with T-1 dof.
    """
    if loss not in LOSSES:
        raise DataError(f"loss must be one of {LOSSES}")
    if len(rec1) != len(rec2):
        raise DataError("records have mismatched lengths")
    if not np.array_equal(rec1.actual, rec2.actual):
        raise DataError("records do not share the same evaluation window")
    t_len = len(rec1)
    if t_len < 10:
        raise DataError(f"need at least 10 observations, got {t_len}")
    e1 = rec1.actual - rec1.predicted
    e2 = rec2.actual - rec2.predicted
    if loss == "squared":
        d = e1 * e1 - e2 * e2
    else:
        d = np.abs(e1) - np.abs(e2)
    d_bar = float(np.mean(d))
    gamma0 = float(np.mean((d - d_bar) ** 2))
    if gamma0 == 0:
        raise DataError("indistinguishable forecasts: zero variance of the loss differential")
    stat = d_bar / math.sqrt(gamma0 / t_len)
    h = 1
    stat *= math.sqrt((t_len + 1 - 2 * h + h * (h - 1) / t_len) / t_len)
    from scipy.special import stdtr  # loaded here, so verbs without a report skip scipy
    p = 2.0 * float(stdtr(t_len - 1, -abs(stat)))
    return DmResult(stat, p, loss)


def var_estimate(sigma_forecast: float, horizon_periods: int = 10,
                 confidence: float = 0.95) -> float:
    """Parametric-normal VaR on unit notional, scaled by sqrt horizon."""
    if sigma_forecast < 0:
        raise DataError("sigma_forecast must be non-negative")
    if not (0.5 < confidence < 1.0):
        raise DataError(f"confidence {confidence} outside (0.5, 1)")
    if horizon_periods < 1:
        raise DataError("horizon_periods must be >= 1")
    from scipy.special import ndtri  # loaded here, so verbs without a report skip scipy
    z = float(ndtri(confidence))
    return z * sigma_forecast * math.sqrt(horizon_periods)


@dataclass(frozen=True)
class ReportRow:
    model_id: str
    mse: float
    rmse: float
    mae: float
    mape: float            # nan when actuals contain zeros
    dm_squared: object     # DmResult or None for the reference model
    dm_absolute: object
    var_10d: float         # nan when the last forecast is negative
    best_mse: bool = False
    best_mae: bool = False


@dataclass(frozen=True)
class EvalReport:
    rows: tuple
    reference: str
    failures: tuple = ()


def build_report(records, reference: str, failures=()) -> EvalReport:
    """One row per model, DM columns against the reference model, and the
    10-day 95% VaR of each model's last forecast, nan when it is negative.

    All records must share an identical evaluation window (same actuals).
    """
    records = list(records)
    if not records:
        raise DataError("no forecast records")
    by_id = {r.model_id: r for r in records}
    if reference not in by_id:
        raise DataError(f"reference model {reference!r} not among records")
    base = records[0].actual
    for r in records[1:]:
        if not np.array_equal(r.actual, base):
            raise DataError(f"record {r.model_id!r} does not share the evaluation window")
    ref = by_id[reference]
    rows = []
    for rec in records:
        m = point_metrics(rec)
        dm = [None if rec.model_id == reference else _dm_or_none(rec, ref, loss)
              for loss in LOSSES]
        last = float(rec.predicted[-1])
        rows.append(ReportRow(rec.model_id, m["MSE"], m["RMSE"], m["MAE"], m["MAPE"], *dm,
                              var_estimate(last, 10, 0.95) if last >= 0 else math.nan))
    best_mse = min(r.mse for r in rows)
    best_mae = min(r.mae for r in rows)
    rows = [replace(r, best_mse=r.mse == best_mse, best_mae=r.mae == best_mae) for r in rows]
    return EvalReport(tuple(rows), reference, tuple(failures))


def _dm_or_none(rec, ref, loss):
    """The DM test of rec against ref, None when it cannot be computed."""
    try:
        return dm_test(rec, ref, loss=loss)
    except DataError:
        return None


def _cells(row: ReportRow, digits: int, blank: str) -> list:
    """A row's ten printed cells: MSE x1e5, RMSE and MAE x1e3, MAPE and VaR at
    `digits` decimals (`blank` when nan), and the DM statistics and p-values
    at 6 decimals (*** for the reference model)."""
    def num(x):
        return blank if math.isnan(x) else f"{x:.{digits}f}"
    dm = []
    for d in (row.dm_squared, row.dm_absolute):
        dm += ["***", "***"] if d is None else [f"{d.statistic:.6f}", f"{d.p_value:.6f}"]
    return [row.model_id, num(row.mse * 1e5), num(row.rmse * 1e3), num(row.mae * 1e3),
            num(row.mape), *dm, num(row.var_10d)]


def report_csv(report: EvalReport) -> str:
    """Machine-readable report with the table scaling conventions applied."""
    lines = ["model,mse_e05,rmse_e03,mae_e03,mape,dm_stat_squared,dm_p_squared,"
             "dm_stat_absolute,dm_p_absolute,var_10d,best_mse,best_mae"]
    for r in report.rows:
        lines.append(",".join(_cells(r, 6, "") + [str(int(r.best_mse)), str(int(r.best_mae))]))
    for model_id, reason in report.failures:
        lines.append(f"{model_id},FAILED: {reason},,,,,,,,,,")
    return "\n".join(lines) + "\n"


def report_text(report: EvalReport) -> str:
    """Aligned plain-text rendering of the same rows; * marks a best MSE or MAE."""
    table = [["Model", "MSE(e-05)", "RMSE(e-03)", "MAE(e-03)", "MAPE",
              "DM(sq)", "p(sq)", "DM(abs)", "p(abs)", "VaR 10d"]]
    for r in report.rows:
        cells = _cells(r, 4, "--")
        cells[0] += "*" if r.best_mse or r.best_mae else ""
        table.append(cells)
    for model_id, reason in report.failures:
        table.append([model_id, f"FAILED: {reason}"] + [""] * 8)
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"
