"""Command-line front end.

Subcommands: decide (one point, one radius), evaluate (max radius for one
point), curve (fraction-SAT over a radius grid), radii (per-point max radii
with class summaries), gadget (CNF to model file), sample (raw sampler dump).

Exit codes: 0 success, 2 usage error, 3 runtime error.  Every flag value is
checked before any work: argparse checks each value by its type as it parses
(and takes no prefix of a flag for the flag), and the checks that span flags
follow before the first file is opened.  Only the checks that need a file
(--shape against the model's input shape, omega against its labels, --index
against the dataset) run when it is loaded.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, sampling
from .data import fmt, load_dataset, load_inputs, load_labels, write_report
from .decision import (SAT, UNSAT, CenterMisclassifiedError, RobustnessQuery,
                       decide, evaluate, point_check)
from .gadgets import DimacsError, build_gadget, parse_dimacs
from .nn import dump_model, load_model, predict
from .prng import derive_subseed
from .stats import ErrorBudget, plan_test

DEFAULT_ALPHA = 0.001
DEFAULT_BETA = 0.001
MAX_GRID_RADII = 1_000_000  # a longer --radius-grid is a usage error, not a huge list


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # also each subparser: a flag's prefix is no flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


def _split(convert, sep=","):
    return lambda text: tuple(convert(v) for v in text.split(sep))


_INDEX = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_COUNT = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
_RADIUS = _checked(float, lambda v: 0 <= v < math.inf, "a finite non-negative number")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")
_SHAPE = _checked(_split(int), lambda s: min(s) > 0, "positive integers like 3,32,32")
_OMEGA = _checked(lambda text: frozenset(_split(int)(text)), lambda v: True,
                  "integer labels like 1,9")
_CLAMP = _checked(_split(float), lambda b: len(b) == 2 and b[0] < b[1], "lo,hi with lo < hi")
_RADII = _checked(_split(float), lambda rs: all(0 <= r < math.inf for r in rs),
                  "finite non-negative radii like 0.1,0.2")
_GRID_BOUNDS = _checked(_split(float, ":"), lambda g: len(g) == 3 and 0 <= g[0] and 0 < g[2]
                        and math.isfinite((g[1] - g[0]) / g[2]),
                        "finite lo:hi:step with lo >= 0 and step > 0")


def _grid(text: str) -> list[float]:
    """argparse type of --radius-grid: the inclusive grid lo:hi:step."""
    lo, hi, step = _GRID_BOUNDS(text)
    count = math.floor((hi - lo) / step + 1e-9) + 1
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r} has hi below lo")
    if count > MAX_GRID_RADII:
        raise argparse.ArgumentTypeError(f"{text!r} has {count} radii, more than {MAX_GRID_RADII}")
    return [lo + k * step for k in range(count)]


def _load_model_file(args):
    """The model of --model; a --shape other than its input shape is a usage
    error."""
    with open(args.model, "rb") as fh:
        model = load_model(fh.read())
    if args.shape not in (None, model.input_shape):
        raise UsageError(f"--shape {args.shape} does not match model input {model.input_shape}")
    return model


def _checked_plan(args):
    """The run's one test plan, from the statistics flags, checked before
    the first file is opened."""
    try:
        return plan_test(args.eps, ErrorBudget(args.alpha, args.beta), args.eps_prime)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _query(args, model, plan, center, omega, seed, radius=0.0):
    """The run's query at one center: its plan, --norm, --clamp and --batch
    are the run's.  An omega the model's labels do not hold is a usage
    error."""
    try:
        ball = sampling.BallSpec(center, radius, args.norm, args.clamp)
        return RobustnessQuery(model, ball, omega, plan, seed, args.batch)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_point(args, radius=0.0):
    """Query of decide/evaluate and the center's gold label (None when no
    labels are in play).  Omega defaults to the gold label, else the model's
    own prediction at the center."""
    if args.input is not None:
        if any(v is not None for v in (args.dataset, args.index, args.labels)):
            raise UsageError("--input excludes --dataset, --index and --labels")
    elif args.dataset is None:
        raise UsageError("give a center via --input or --dataset with --index")
    elif args.index is None:
        raise UsageError("--dataset needs --index to pick a point")
    plan = _checked_plan(args)
    model = _load_model_file(args)
    gold = None
    if args.input is not None:
        center = load_inputs(args.input, model.input_shape)[0]
    else:
        inputs = load_inputs(args.dataset, model.input_shape)
        if not 0 <= args.index < len(inputs):
            raise UsageError(f"--index {args.index} outside dataset of {len(inputs)} rows")
        center = inputs[args.index]
        if args.labels is not None:
            gold = int(load_labels(args.labels, len(inputs), model.num_labels)[args.index])
    omega = args.omega or {gold if gold is not None else int(predict(model, center[None])[0])}
    return _query(args, model, plan, center, omega, args.seed, radius), gold


def _load_sweep(args):
    """Model, inputs and labels of curve/radii, and each dataset point's
    query: its omega is --omega, else the point's gold label, and point p's
    seed is derive_subseed(--seed, p)."""
    plan = _checked_plan(args)
    model = _load_model_file(args)
    inputs, labels = load_dataset(args.dataset, args.labels, model.input_shape, model.num_labels)
    queries = [_query(args, model, plan, center, args.omega or {int(gold)},
                      derive_subseed(args.seed, pid))
               for pid, (center, gold) in enumerate(zip(inputs, labels))]
    return model, inputs, labels, queries


def _clamp_text(args) -> str:
    return ",".join(fmt(v) for v in args.clamp) if args.clamp else "off"


def _run_metadata(args, plan=None) -> list[str]:
    md = [f"ewrobust {__version__}",
          f"seed={args.seed} norm={args.norm} eps={args.eps} "
          f"eps_prime={args.eps_prime} alpha={args.alpha} beta={args.beta}",
          f"clamp={_clamp_text(args)} batch={args.batch}"]
    if plan is not None:
        md.append(f"plan: N={plan.N} c={fmt(plan.c)} eps_prime={fmt(plan.epsilon_prime)}")
    return md


# --- subcommands -------------------------------------------------------------

def cmd_decide(args) -> int:
    query, gold = _load_point(args, args.radius)
    plan = query.plan
    t0 = time.perf_counter()
    if args.radius == 0.0:
        decision = SAT if point_check(query) else UNSAT
        print(decision, "(point check, r=0)")
        successes, drawn = int(decision == SAT), 1
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
               ";".join(str(l) for l in sorted(query.omega)), decision, successes, drawn]
        if args.timings:
            header.append("wall_time_s")
            row.append(wall)
        write_report(args.out, _run_metadata(args, plan), header, [row])
    return 0


def cmd_evaluate(args) -> int:
    query, _ = _load_point(args)
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
    model, inputs, labels, queries = _load_sweep(args)

    keep = list(range(len(labels)))
    if args.correct_only:
        # --batch rows at a time: the same labels (rows are independent) in
        # bounded memory
        predictions = np.concatenate([predict(model, inputs[k:k + args.batch])
                                      for k in range(0, len(inputs), args.batch)])
        keep = [i for i in keep if predictions[i] == labels[i]]
        if not keep:
            raise UsageError("--correct-only left no dataset points")

    rows = []
    for ri, radius in enumerate(args.grid):
        if radius == 0.0:
            n_sat = sum(point_check(queries[pi]) for pi in keep)
        else:
            seed = derive_subseed(args.seed, ri)
            n_sat = sum(decide(queries[pi].at_radius(radius, derive_subseed(seed, pi)))
                        .decision == SAT for pi in keep)
        rows.append([radius, len(keep), n_sat, n_sat / len(keep)])
    write_report(args.out or sys.stdout, _run_metadata(args),
                 ["radius", "n_points", "n_sat", "fraction_sat"], rows)
    return 0


def cmd_radii(args) -> int:
    _, _, labels, queries = _load_sweep(args)

    rows = []
    by_class: dict[int, list[float]] = {}
    for pid, query in enumerate(queries):
        gold = int(labels[pid])
        try:
            r_star = evaluate(query, args.radius_max, args.precision).r_star
        except CenterMisclassifiedError:
            r_star = None  # flagged, excluded from summaries
        flagged = r_star is None
        rows.append(["point", pid, gold, r_star, int(flagged), None, None])
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
    with open(args.cnf, encoding="utf-8-sig") as fh:
        try:
            cnf = parse_dimacs(fh.read())
        except DimacsError as exc:
            raise UsageError(f"{args.cnf}: {exc}") from None
    text = dump_model(build_gadget(cnf))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"variables={cnf.num_vars} clauses={len(cnf.clauses)}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    if args.start + args.count > 2**64:
        raise UsageError("sample indices --start .. --start+--count-1 must stay below 2**64")
    n = math.prod(args.shape)
    if args.input is not None:
        center = load_inputs(args.input, args.shape)[0].ravel()
    else:
        center = np.zeros(n)
    header = ["index"] + [f"x{j}" for j in range(n)]
    rows = []
    if args.count > 0:
        spec = sampling.BallSpec(center, args.radius, args.norm, args.clamp)
        batch = sampling.sample_batch(spec, args.seed, args.start, args.count)
        rows = [[i + args.start] + [float(v) for v in row]
                for i, row in enumerate(batch)]
    metadata = [f"ewrobust {__version__}",
                f"seed={args.seed} norm={args.norm} radius={args.radius} "
                f"clamp={_clamp_text(args)}"]
    write_report(args.out or sys.stdout, metadata, header, rows)
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(sub, *, sweep=False):
    """Flags of decide and evaluate (one point), or of curve and radii (a
    sweep over a dataset)."""
    sub.add_argument("--model", required=True, help="model file (JSON)")
    sub.add_argument("--dataset", required=sweep, help="inputs CSV, one flattened tensor per row")
    sub.add_argument("--labels", required=sweep, help="gold labels, one integer per line")
    sub.add_argument("--shape", type=_SHAPE, help="the model's input shape, e.g. 3,32,32")
    sub.add_argument("--omega", type=_OMEGA,
                     help="allowed labels, e.g. 1,9 (default: gold or predicted)")
    sub.add_argument("--norm", default="inf", choices=sampling.NORMS, help="ball norm")
    sub.add_argument("--seed", type=_INDEX, default=0, help="64-bit stream seed")
    sub.add_argument("--clamp", type=_CLAMP, help="clip samples into lo,hi (changes the measure)")
    sub.add_argument("--out", help="CSV output path (default: stdout where applicable)")
    sub.add_argument("--eps", type=float, required=True,
                     help="tolerated wrong-classification fraction in (0,1)")
    sub.add_argument("--eps-prime", type=float, default=None,
                     help="relaxed boundary in (0, eps); default eps-min(eps(1-eps),0.005)")
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                     help="type I error bound")
    sub.add_argument("--beta", type=float, default=DEFAULT_BETA,
                     help="type II error bound")
    sub.add_argument("--batch", type=_POSITIVE_INT, default=256,
                     help="largest number of samples per batch")
    if sweep:
        sub.add_argument("--workers", type=_POSITIVE_INT,
                         help="accepted and ignored: queries run in order on the "
                              "calling thread, and only the BLAS runs threads")
    else:
        sub.add_argument("--input", help="single-point CSV (first row used)")
        sub.add_argument("--index", type=_COUNT, help="row index into --dataset")


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
    radii = p.add_mutually_exclusive_group(required=True)
    radii.add_argument("--radius", type=_RADII, dest="grid", metavar="RADIUS",
                       help="comma-separated radius list")
    radii.add_argument("--radius-grid", type=_grid, dest="grid", metavar="RADIUS_GRID",
                       help="min:max:step inclusive grid")
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
    p.add_argument("--shape", type=_SHAPE, required=True, help="tensor shape, e.g. 784 or 3,32,32")
    p.add_argument("--input", help="center point CSV (default: origin)")
    p.add_argument("--clamp", type=_CLAMP, help="clip samples into lo,hi")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed --help or --version
            return exc.code
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a failed Python allocation carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
