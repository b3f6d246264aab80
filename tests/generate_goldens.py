"""Regenerate tests/fixtures/golden_metrics.txt from the oracle path.

The pinned distance metrics are computed without touching the library's
posterior engine, incomplete-gamma kernel or comparison code: posterior
pmfs come from brute-force summation, gamma window masses from mpmath,
and the metrics from their textbook formulas.  Run from the repo root:

    python3 tests/generate_goldens.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from golden import golden_key  # noqa: E402
from oracles import brute_moments, brute_posterior  # noqa: E402

from gpgamma.model import derive_params  # noqa: E402

GRID_SETS = ((1.5, 0.1, -0.05), (1.5, 0.5, -0.05))
GRID_X = (5, 10, 20)
WINDOW_TAIL = 1e-13

mpmath.mp.dps = 30


def mp_gamma_windows(shape: float, scale: float, k_lo: int, k_hi: int) -> np.ndarray:
    edges = [max(k_lo - 0.5, 0.0)] + [k + 0.5 for k in range(k_lo, k_hi + 1)]
    cdf = [
        float(mpmath.gammainc(mpmath.mpf(shape), 0, mpmath.mpf(e) / mpmath.mpf(scale), regularized=True))
        for e in edges
    ]
    return np.diff(np.asarray(cdf))


def main() -> None:
    lines = [
        "# Golden distance metrics, pinned from the brute-force oracle path.",
        "# fields: a,b,c,x,kind,metric,value (12 significant digits)",
    ]
    for a, b, c in GRID_SETS:
        params = derive_params(a, b, c)
        for x in GRID_X:
            ks, probs = brute_posterior(params, x)
            mu, var = brute_moments(ks, probs)
            cumulative = np.cumsum(probs)
            k_hi = x + int(np.searchsorted(cumulative, 1.0 - WINDOW_TAIL)) + 1
            p = probs[: k_hi - x + 1]
            p = p / p.sum()
            for kind in ("theorem1", "moment_matched"):
                if kind == "theorem1":
                    shape, scale = float(x + 1), 1.0 / params.rate
                else:
                    shape, scale = mu * mu / var, var / mu
                q = mp_gamma_windows(shape, scale, x, k_hi)
                q = q / q.sum()
                tv = 0.5 * float(np.abs(p - q).sum())
                kl = float(np.sum(p * np.log(p / np.maximum(q, 1e-300))))
                sup_abs = float(np.max(np.abs(p - q)))
                for metric, value in (("tv", tv), ("kl", kl), ("sup_abs", sup_abs)):
                    key = golden_key(a, b, c, x, kind, metric)
                    lines.append(",".join([*key, format(value, ".12g")]))
                print(f"a={a} b={b} c={c} x={x} {kind}: tv={tv:.6g} kl={kl:.6g} sup={sup_abs:.6g}")
    out = Path(__file__).parent / "fixtures" / "golden_metrics.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
