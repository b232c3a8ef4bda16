"""Classify the interior fixed point of the coupled two-population demo
system and, with matplotlib available, draw a small phase portrait around it.
"""
import argparse

import numpy as np

from growthdyn import (GrowthDynError, coupled_logistic_demo, integrate_adaptive,
                       stability_report)


def main(args):
    system = coupled_logistic_demo(args.a_r, args.b_r, args.e_rs,
                                   args.a_s, args.b_s, args.e_sr)
    report = stability_report(system, tuple(args.guess))
    fp = report.fixed_point
    print(f"fixed point: ({fp.s_c:.6f}, {fp.r_c:.6f}), "
          f"residual {fp.residual_norm:.2e}")
    print(f"jacobian: {np.round(report.jacobian, 6).tolist()}")
    print(f"trace {report.trace:.6f}, determinant {report.determinant:.6f}")
    print("eigenvalues:", ", ".join(f"{lam:.6f}" for lam in report.eigenvalues))
    print(f"classification: {report.classification}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, ax = plt.subplots(figsize=(5, 5))
    for x0 in np.linspace(0.5, 4.0, 6):
        for y0 in (0.5, 3.5):
            traj = integrate_adaptive(system, np.array([x0, y0]), 0.0, 8.0)
            ax.plot(traj.states[:, 0], traj.states[:, 1], lw=0.8, color="tab:blue")
    ax.plot([fp.s_c], [fp.r_c], "k*", ms=12)
    ax.set_xlabel("population 1")
    ax.set_ylabel("population 2")
    ax.set_title(report.classification)
    fig.tight_layout()
    fig.savefig("stability_portrait.png", dpi=120)
    print("wrote stability_portrait.png")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a-r", type=float, default=1.0)
    parser.add_argument("--b-r", type=float, default=1.0)
    parser.add_argument("--e-rs", type=float, default=0.5)
    parser.add_argument("--a-s", type=float, default=1.0)
    parser.add_argument("--b-s", type=float, default=1.0)
    parser.add_argument("--e-sr", type=float, default=0.5)
    parser.add_argument("--guess", type=float, nargs=2, default=[2.0, 2.0])
    try:
        main(parser.parse_args())
    except GrowthDynError as exc:  # one error line and exit 2, not a traceback
        parser.exit(2, f"error: {exc}\n")
