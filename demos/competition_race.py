"""Race two populations competing for one shared resource.

The winner is decided by the rate ratio alone; the integration just shows how
fast the loser is squeezed out.
"""
import argparse

import numpy as np

from growthdyn import (AXES_LINEAR, CompetitionParams, GrowthDynError, MARGINAL,
                       competition_system, emit_plot_series,
                       exclusion_verdict, integrate_adaptive, interp_states)


def main(args):
    params = CompetitionParams(a1=args.a1, a2=args.a2, d1=args.d1, d2=args.d2,
                               b=args.b, c=args.c)
    verdict = exclusion_verdict(params)
    print(f"decision ratio a1*d2 / (a2*d1) = {verdict.ratio:.4f}")
    print(f"verdict: {verdict.verdict}")
    if verdict.verdict != MARGINAL:
        print(f"survivor settles at {verdict.survivor_limit:.4f}")

    t_end = args.t_end if args.t_end else 50.0 / min(params.a1, params.a2)
    traj = integrate_adaptive(competition_system(params),
                              np.array([1.0, 1.0]), 0.0, t_end)
    grid = np.linspace(0.0, t_end, 301)
    states = interp_states(traj, grid)
    print(f"after t = {t_end:g}: phi1 = {states[-1, 0]:.6f}, "
          f"phi2 = {states[-1, 1]:.6f}")

    emit_plot_series([("phi1", grid, states[:, 0]),
                      ("phi2", grid, states[:, 1])],
                     AXES_LINEAR, "competition_race.csv")
    print("wrote competition_race.csv")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a1", type=float, default=2.0)
    parser.add_argument("--a2", type=float, default=1.0)
    parser.add_argument("--d1", type=float, default=1.0)
    parser.add_argument("--d2", type=float, default=1.0)
    parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--t-end", type=float, default=None)
    try:
        main(parser.parse_args())
    except GrowthDynError as exc:  # one error line and exit 2, not a traceback
        parser.exit(2, f"error: {exc}\n")
