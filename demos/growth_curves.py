"""Sweep the three growth families and tabulate their terminal behaviour.

Writes plot-ready CSV tables next to the script output and, when matplotlib
is importable, a quick PNG of both sweeps.
"""
import argparse
import os

import numpy as np

from growthdyn import (AXES_LINEAR, GeneralizedLogisticParams,
                       SaturatingLinearParams, emit_plot_series,
                       eval_logistic_family, eval_saturating_linear,
                       terminal_value)

T_MAX = 12.0
N_POINTS = 401


def main(out_dir):
    t = np.linspace(0.0, T_MAX, N_POINTS)

    sat_curves = []
    print("saturating-linear family, a = 1:")
    for b in (1.0, 2.0, 3.0):
        record = SaturatingLinearParams(a=1.0, b=b)
        sat_curves.append((f"b={b:g}", t, eval_saturating_linear(record, t)))
        print(f"  b = {b:g}: terminal value a/b = {terminal_value(record):.4f}")

    log_curves = []
    print("generalized logistic family, a = 5, b = 1, phi0 = 1:")
    for alpha in (0, 1, 2):
        record = GeneralizedLogisticParams(a=5.0, b=1.0, alpha=alpha, phi0=1.0)
        log_curves.append((f"alpha={alpha}", t,
                           eval_logistic_family(record, t)))
        limit = terminal_value(record)
        shown = "unbounded" if limit is None else f"{limit:.4f}"
        print(f"  alpha = {alpha}: terminal value {shown}")

    sat_path = os.path.join(out_dir, "growth_saturating.csv")
    log_path = os.path.join(out_dir, "growth_logistic.csv")
    emit_plot_series(sat_curves, AXES_LINEAR, sat_path)
    emit_plot_series(log_curves, AXES_LINEAR, log_path)
    print(f"wrote {sat_path} and {log_path}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figure")
        return

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.5))
    for label, tt, yy in sat_curves:
        ax1.plot(tt, yy, label=label)
    ax1.set_title("retardation sweep (a=1)")
    ax1.legend()
    for label, tt, yy in log_curves:
        ax2.semilogy(tt, yy, label=label)
    ax2.set_title("nonlinearity sweep (a=5, b=1)")
    ax2.legend()
    fig.tight_layout()
    png = os.path.join(out_dir, "growth_curves.png")
    fig.savefig(png, dpi=120)
    print(f"wrote {png}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="where to write outputs")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    main(args.out_dir)
