"""Compare an op's report payload with the stored reference payload.

* Exact fields (ints, strings, booleans: counts, n_values, spectrum_size,
  verdicts, levels, violations) must be equal.
* Deterministic floats must agree within DET_RTOL relative.  The location
  of a maximum (t_star) gets sqrt(DET_RTOL): near a peak f(t*) - f(t) grows
  like (t - t*)^2, so a maximum known to DET_RTOL fixes its place only to
  about the square root of that.
* `visited` is a work count, not an answer, and is not compared; the
  benchmark records work units itself.
* Monte Carlo estimates (a field with a `<name>_stderr` sibling) must lie
  within MC_SIGMAS combined standard errors of the reference, so the check
  holds on any seed; their stderr fields must stay within STDERR_RTOL of
  the reference stderr.
"""

from __future__ import annotations

import math

DET_RTOL = 1e-9
MC_SIGMAS = 4.0
STDERR_RTOL = 0.5

# Monte Carlo estimate -> the sibling field holding its standard error
MC_FIELDS = {"F0": "F0_stderr", "residual": "residual_stderr",
             "volume": "volume_stderr", "scaled": "scaled_stderr",
             "limit": "limit_stderr"}
STDERR_FIELDS = {se: est for est, se in MC_FIELDS.items()}
ARGMAX_FIELDS = {"t_star"}
IGNORED_FIELDS = {"visited"}


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches between two payloads ({rows, fitted, verdicts}); [] if they agree."""
    out: list[str] = []
    _compare(got, ref, "", None, None, out)
    if "constant" in ref.get("fitted", {}):
        _check_constant(got, ref, out)
    return out


def _compare(got, ref, path, got_parent, ref_parent, out) -> None:
    key = path.rsplit(".", 1)[-1]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            out.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                       f" != {sorted(ref)}")
            return
        for k in sorted(set(ref) - IGNORED_FIELDS):
            _compare(got[k], ref[k], f"{path}.{k}", got, ref, out)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: length {len(got) if isinstance(got, list) else got!r}"
                       f" != {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{i}]", got, ref, out)
        return
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if key in MC_FIELDS and MC_FIELDS[key] in ref_parent:
            se = MC_FIELDS[key]
            tol = max(MC_SIGMAS * math.hypot(got_parent[se], ref_parent[se]),
                      DET_RTOL * abs(ref))
        elif key in STDERR_FIELDS and STDERR_FIELDS[key] in ref_parent:
            tol = max(STDERR_RTOL * abs(ref),
                      DET_RTOL * abs(ref_parent[STDERR_FIELDS[key]]))
        elif key in ARGMAX_FIELDS:
            tol = math.sqrt(DET_RTOL) * abs(ref)
        elif key == "constant":
            return  # derived from Monte Carlo residuals; see _check_constant
        else:
            if math.isclose(got, ref, rel_tol=DET_RTOL) or got == ref:
                return
            out.append(f"{path}: {got!r} != {ref!r} (rel tol {DET_RTOL})")
            return
        if not abs(got - ref) <= tol:
            out.append(f"{path}: {got!r} differs from {ref!r} by more than {tol:.3g}")
        return
    if got != ref or type(got) is not type(ref):
        out.append(f"{path}: {got!r} != {ref!r}")


def _check_constant(got: dict, ref: dict, out: list[str]) -> None:
    """The expansion's fitted constant is max |residual| / envelope; it moves
    by at most the largest residual move over the envelope."""
    def worst_stderr(p):
        return max(row["residual_stderr"] for row in p["rows"])

    tol = max(MC_SIGMAS * math.hypot(worst_stderr(got), worst_stderr(ref))
              / ref["fitted"]["envelope"],
              DET_RTOL * abs(ref["fitted"]["constant"]))
    diff = abs(got["fitted"]["constant"] - ref["fitted"]["constant"])
    if not diff <= tol:
        out.append(f".fitted.constant: differs from reference by {diff:.3g} > {tol:.3g}")


def mc_rel_stderr(payload: dict) -> float:
    """Largest stderr / |mean| over the Monte Carlo estimates in a payload
    (residuals excluded: their mean is near 0 by design); 0 when there are none."""
    worst = 0.0
    for part in (payload["rows"], [payload["fitted"]]):
        for row in part:
            for est, se in MC_FIELDS.items():
                if est != "residual" and se in row and row[est] != 0:
                    worst = max(worst, abs(row[se] / row[est]))
    return worst
