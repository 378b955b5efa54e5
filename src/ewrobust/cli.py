"""Command-line front end.

Subcommands: decide (one point, one radius), evaluate (max radius for one
point), curve (fraction-SAT over a radius grid), radii (per-point max radii
with class summaries), gadget (CNF to model file), sample (raw sampler dump).

Exit codes: 0 success, 2 usage error, 3 runtime error.  Every flag value is
checked before any work: by its argparse type, or when the run's one
prototype query and test plan are built.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__, sampling
from .data import fmt, load_dataset, load_inputs, load_labels, write_report
from .decision import (SAT, UNSAT, CenterMisclassifiedError, RobustnessQuery,
                       decide, evaluate, point_check)
from .gadgets import DimacsError, build_gadget, parse_dimacs
from .nn import ModelError, dump_model, load_model, predict
from .prng import derive_subseed
from .stats import ErrorBudget, plan_test

DEFAULT_ALPHA = 0.001
DEFAULT_BETA = 0.001
MAX_GRID_RADII = 1_000_000  # a longer --radius-grid is a usage error, not a huge list


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _checked(convert, ok, what):
    """argparse type: convert(text), which must satisfy ok."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")
    return parse


_INDEX = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_COUNT = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
_RADIUS = _checked(float, lambda v: 0 <= v < math.inf, "a finite non-negative number")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise UsageError(f"bad --shape {text!r}") from None
    if not shape or any(d <= 0 for d in shape):
        raise UsageError(f"bad --shape {text!r}")
    return shape


def _parse_omega(text: str) -> frozenset[int]:
    try:
        omega = frozenset(int(l) for l in text.split(","))
    except ValueError:
        raise UsageError(f"bad --omega {text!r}") from None
    if not omega:
        raise UsageError("--omega must list at least one label")
    return omega


def _parse_clamp(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"bad --clamp {text!r}") from None
    if not lo < hi:
        raise UsageError(f"--clamp lower bound must be below upper, got {text!r}")
    return lo, hi


def _parse_grid(args) -> list[float]:
    if args.radius_grid is not None:
        try:
            lo, hi, step = (float(v) for v in args.radius_grid.split(":"))
        except ValueError:
            raise UsageError(f"bad --radius-grid {args.radius_grid!r}") from None
        span = (hi - lo) / step if step > 0 else math.nan
        if not math.isfinite(span):
            raise UsageError(f"--radius-grid needs finite lo:hi:step with step > 0, "
                             f"got {args.radius_grid!r}")
        count = math.floor(span + 1e-9) + 1
        if count > MAX_GRID_RADII:
            raise UsageError(f"--radius-grid {args.radius_grid!r} has {count} radii, "
                             f"more than {MAX_GRID_RADII}")
        grid = [lo + k * step for k in range(count)]
    elif args.radius is not None:
        try:
            grid = [float(v) for v in str(args.radius).split(",")]
        except ValueError:
            raise UsageError(f"bad --radius {args.radius!r}") from None
    else:
        grid = []
    if not grid:
        raise UsageError("no radii given (use --radius or --radius-grid)")
    if not all(0 <= r < math.inf for r in grid):
        raise UsageError("radii must be finite and non-negative")
    return grid


def _load_model_file(path: str):
    with open(path, "rb") as fh:
        return load_model(fh.read())


def _load_center(args, model):
    """Center tensor plus gold label (None when no labels are in play)."""
    shape = _parse_shape(args.shape) if args.shape else model.input_shape
    if args.input is not None:
        rows = load_inputs(args.input, shape)
        return rows[0], None
    if args.dataset is not None:
        if args.index is None:
            raise UsageError("--dataset needs --index to pick a point")
        inputs = load_inputs(args.dataset, shape)
        if not 0 <= args.index < len(inputs):
            raise UsageError(f"--index {args.index} outside dataset of {len(inputs)} rows")
        gold = None
        if args.labels is not None:
            gold = int(load_labels(args.labels, len(inputs), model.num_labels)[args.index])
        return inputs[args.index], gold
    raise UsageError("give a center via --input or --dataset with --index")


def _resolve_omega(args, model, center, gold):
    if args.omega is not None:
        return _parse_omega(args.omega)
    if gold is not None:
        return frozenset({gold})
    # fall back to the model's own prediction at the center
    return frozenset({int(predict(model, center[None])[0])})


def _prototype(args, model, center, omega, radius=0.0):
    """The run's query and test plan, built before any work; every point and
    probe varies only center, omega, seed and radius.  A flag value the plan
    or the query rejects is a usage error."""
    try:
        budget = ErrorBudget(args.alpha, args.beta)
        plan = plan_test(args.eps, budget, args.eps_prime)
        query = RobustnessQuery(
            model=model, center=center, radius=radius, norm=args.norm,
            epsilon=args.eps, omega=omega, budget=budget, seed=args.seed,
            batch_size=args.batch, epsilon_prime=args.eps_prime,
            clamp=_parse_clamp(args.clamp) if args.clamp else None)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return query, plan


def _load_sweep(args, command):
    """Model, dataset, --omega override and prototype query of curve/radii."""
    model = _load_model_file(args.model)
    if args.dataset is None or args.labels is None or args.shape is None:
        raise UsageError(f"{command} needs --dataset, --labels and --shape")
    dataset = load_dataset(args.dataset, args.labels,
                           _parse_shape(args.shape), model.num_labels)
    omega = _parse_omega(args.omega) if args.omega else None
    query, _ = _prototype(args, model, dataset.inputs[0],
                          omega or {int(dataset.labels[0])})
    return model, dataset, omega, query


def _run_metadata(args, plan=None) -> list[str]:
    md = [f"ewrobust {__version__}",
          f"seed={args.seed} norm={args.norm} eps={args.eps} "
          f"eps_prime={args.eps_prime} alpha={args.alpha} beta={args.beta}",
          f"clamp={args.clamp or 'off'} batch={args.batch} "
          f"workers={getattr(args, 'workers', 1)}"]
    if plan is not None:
        md.append(f"plan: N={plan.N} c={fmt(plan.c)} eps_prime={fmt(plan.epsilon_prime)}")
    return md


# --- subcommands -------------------------------------------------------------

def cmd_decide(args) -> int:
    model = _load_model_file(args.model)
    center, gold = _load_center(args, model)
    omega = _resolve_omega(args, model, center, gold)
    query, plan = _prototype(args, model, center, omega, args.radius)
    t0 = time.perf_counter()
    if args.radius == 0.0:
        decision = SAT if point_check(model, center, omega) else UNSAT
        print(decision, "(point check, r=0)")
        successes = drawn = int(decision == SAT)
        plan = None
    else:
        verdict = decide(query)
        decision, successes, drawn = verdict.decision, verdict.successes, verdict.samples_drawn
        print(f"{decision} successes={successes} drawn={drawn} "
              f"N={plan.N} c={fmt(plan.c)}")
    wall = time.perf_counter() - t0
    if args.out:
        header = ["id", "gold", "omega", "decision", "successes", "samples_drawn"]
        row = [args.index if args.index is not None else 0,
               gold if gold is not None else "",
               ";".join(str(l) for l in sorted(omega)), decision, successes, drawn]
        if args.timings:
            header.append("wall_time_s")
            row.append(wall)
        write_report(args.out, _run_metadata(args, plan), header, [row])
    return 0


def cmd_evaluate(args) -> int:
    model = _load_model_file(args.model)
    center, gold = _load_center(args, model)
    omega = _resolve_omega(args, model, center, gold)
    query, _ = _prototype(args, model, center, omega)
    result = evaluate(query, args.radius_max, args.precision)
    print(f"r_star={fmt(result.r_star)} probes={len(result.probes)}")
    for r, verdict in result.probes:
        print(f"  probe r={fmt(r)} -> {verdict.decision}")
    if args.out:
        rows = [[k, r, v.decision, v.successes, v.samples_drawn]
                for k, (r, v) in enumerate(result.probes)]
        rows.append(["r_star", result.r_star, "", "", ""])
        write_report(args.out, _run_metadata(args),
                     ["probe", "radius", "decision", "successes", "samples_drawn"], rows)
    return 0


def cmd_curve(args) -> int:
    model, dataset, omega, prototype = _load_sweep(args, "curve")
    grid = _parse_grid(args)

    keep = list(range(len(dataset)))
    if args.correct_only:
        # --batch rows at a time: the same labels (rows are independent) in
        # bounded memory
        predictions = np.concatenate([predict(model, dataset.inputs[k:k + args.batch])
                                      for k in range(0, len(dataset), args.batch)])
        keep = [i for i in keep if predictions[i] == dataset.labels[i]]
        if not keep:
            raise UsageError("--correct-only left no dataset points")

    def point(ri, radius, pi):
        point_omega = omega or frozenset({int(dataset.labels[pi])})
        if radius == 0.0:
            return point_check(model, dataset.inputs[pi], point_omega)
        query = replace(prototype, center=dataset.inputs[pi], omega=point_omega,
                        radius=radius, seed=derive_subseed(derive_subseed(args.seed, ri), pi))
        return decide(query).decision == SAT

    rows = []
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        for ri, radius in enumerate(grid):
            n_sat = sum(pool.map(lambda pi: point(ri, radius, pi), keep))
            rows.append([radius, len(keep), n_sat, n_sat / len(keep)])
    write_report(args.out or sys.stdout, _run_metadata(args),
                 ["radius", "n_points", "n_sat", "fraction_sat"], rows)
    return 0


def cmd_radii(args) -> int:
    _, dataset, omega, prototype = _load_sweep(args, "radii")

    def point(pi):
        gold = int(dataset.labels[pi])
        query = replace(prototype, center=dataset.inputs[pi], omega=omega or {gold},
                        seed=derive_subseed(args.seed, pi))
        try:
            return gold, evaluate(query, args.radius_max, args.precision).r_star
        except CenterMisclassifiedError:
            return gold, None  # flagged, excluded from summaries

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(point, range(len(dataset))))

    rows = []
    by_class: dict[int, list[float]] = {}
    for pid, (gold, r_star) in zip(dataset.ids, results):
        flagged = r_star is None
        rows.append(["point", pid, gold,
                     None if flagged else r_star, int(flagged), None, None])
        if not flagged:
            by_class.setdefault(gold, []).append(r_star)
    for gold in sorted(by_class):
        values = np.array(by_class[gold])
        rows.append(["class_summary", None, gold, None, None,
                     float(values.mean()), float(values.std())])  # population std
    metadata = _run_metadata(args)
    metadata.append("summary std convention: population (divide by n)")
    write_report(args.out or sys.stdout, metadata,
                 ["kind", "id", "gold", "r_star", "misclassified", "mean", "std"], rows)
    return 0


def cmd_gadget(args) -> int:
    with open(args.cnf, encoding="utf-8") as fh:
        try:
            cnf = parse_dimacs(fh.read())
        except DimacsError as exc:
            raise UsageError(f"{args.cnf}: {exc}") from None
    gadget = build_gadget(cnf)
    text = dump_model(gadget.model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"variables={cnf.num_vars} clauses={gadget.clause_count}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    if args.start + args.count > 2**64:
        raise UsageError("sample indices --start .. --start+--count-1 must stay below 2**64")
    shape = _parse_shape(args.shape)
    n = math.prod(shape)
    if args.input is not None:
        center = load_inputs(args.input, shape)[0].ravel()
    else:
        center = np.zeros(n)
    clamp = _parse_clamp(args.clamp) if args.clamp else None
    header = ["index"] + [f"x{j}" for j in range(n)]
    rows = []
    if args.count > 0:
        spec = sampling.BallSpec(center, args.radius, args.norm)
        stream = sampling.SampleStream(args.seed, radial=args.radial)
        batch = sampling.sample_batch(spec, stream, args.start, args.count, clamp=clamp)
        rows = [[i + args.start] + [float(v) for v in row]
                for i, row in enumerate(batch)]
    metadata = [f"ewrobust {__version__}",
                f"seed={args.seed} norm={args.norm} radius={args.radius} "
                f"radial={args.radial} clamp={args.clamp or 'off'}"]
    write_report(args.out or sys.stdout, metadata, header, rows)
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(sub, *, sweep=False):
    """Flags of decide and evaluate (one point), or of curve and radii (a
    sweep over a dataset)."""
    sub.add_argument("--model", required=True, help="model file (JSON)")
    sub.add_argument("--dataset", help="inputs CSV, one flattened tensor per row")
    sub.add_argument("--labels", help="gold labels, one integer per line")
    sub.add_argument("--shape", help="tensor shape, e.g. 3,32,32")
    sub.add_argument("--omega", help="allowed labels, e.g. 1,9 (default: gold or predicted)")
    sub.add_argument("--norm", default="inf", choices=sampling.NORMS, help="ball norm")
    sub.add_argument("--seed", type=_INDEX, default=0, help="64-bit stream seed")
    sub.add_argument("--clamp", help="clip samples into lo,hi (changes the measure)")
    sub.add_argument("--out", help="CSV output path (default: stdout where applicable)")
    sub.add_argument("--eps", type=float, required=True,
                     help="tolerated wrong-classification fraction in (0,1)")
    sub.add_argument("--eps-prime", type=float, default=None,
                     help="relaxed boundary in (0, eps); default eps-min(eps(1-eps),0.005)")
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                     help="type I error bound")
    sub.add_argument("--beta", type=float, default=DEFAULT_BETA,
                     help="type II error bound")
    sub.add_argument("--batch", type=_POSITIVE_INT, default=256, help="samples per batch")
    if sweep:
        sub.add_argument("--workers", type=_POSITIVE_INT, default=os.cpu_count() or 1,
                         help="parallel workers (default: CPU count); never changes results")
    else:
        sub.add_argument("--input", help="single-point CSV (first row used)")
        sub.add_argument("--index", type=int, help="row index into --dataset")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ewrobust",
        description="Statistical epsilon-weakened robustness decision and "
                    "evaluation for feed-forward classifiers.")
    parser.add_argument("--version", action="version", version=f"ewrobust {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decide", help="decide robustness at one radius")
    _add_common(p)
    p.add_argument("--radius", type=_RADIUS, required=True, help="perturbation radius")
    p.add_argument("--timings", action="store_true",
                   help="include a wall-time column (breaks byte reproducibility)")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("evaluate", help="maximum robust radius for one point")
    _add_common(p)
    p.add_argument("--radius-max", type=_POSITIVE, required=True, help="search upper bound")
    p.add_argument("--precision", type=_POSITIVE, required=True, help="bisection precision")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("curve", help="fraction-SAT over a radius grid")
    _add_common(p, sweep=True)
    p.add_argument("--radius", help="comma-separated radius list")
    p.add_argument("--radius-grid", help="min:max:step inclusive grid")
    p.add_argument("--correct-only", action="store_true",
                   help="restrict to points the model classifies correctly")
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("radii", help="per-point maximum radii with class summaries")
    _add_common(p, sweep=True)
    p.add_argument("--radius-max", type=_POSITIVE, required=True, help="search upper bound")
    p.add_argument("--precision", type=_POSITIVE, required=True, help="bisection precision")
    p.set_defaults(func=cmd_radii)

    p = subs.add_parser("gadget", help="compile DIMACS CNF into a gadget model file")
    p.add_argument("--cnf", required=True, help="DIMACS CNF path")
    p.add_argument("--out", help="model file output path (default: stdout)")
    p.set_defaults(func=cmd_gadget)

    p = subs.add_parser("sample", help="dump raw ball samples as CSV")
    p.add_argument("--norm", required=True, choices=sampling.NORMS, help="ball norm")
    p.add_argument("--radius", type=_RADIUS, required=True)
    p.add_argument("--count", type=_COUNT, required=True)
    p.add_argument("--seed", type=_INDEX, default=0)
    p.add_argument("--start", type=_INDEX, default=0, help="first sample index")
    p.add_argument("--shape", required=True, help="tensor shape, e.g. 784 or 3,32,32")
    p.add_argument("--input", help="center point CSV (default: origin)")
    p.add_argument("--clamp", help="clip samples into lo,hi")
    p.add_argument("--radial", default=sampling.RADIAL_GAMMA,
                   choices=[sampling.RADIAL_GAMMA, sampling.RADIAL_UNIFORM],
                   help="l2 radius law (cross-check switch)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a failed Python allocation carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ModelError, CenterMisclassifiedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
