"""BAPS replay benchmark: four workloads, checked outputs, per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1001 --seconds 28 --trace 0

``--trace 0`` times repeated units of the workload untraced and reports
the end-to-end metrics; ``--trace 1`` runs the same untraced window,
then one traced unit, and reports the per-layer metrics instead (spans
are written to ``perfbench/out/``).  Every unit's output is checked against
the workload's oracle after the timed window.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from time import perf_counter

#: taken before any other import, so set-up time includes the imports.
T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIB = 1024 * 1024
#: inputs are built this many times; set-up time uses the median build.
SETUP_REPEATS = 5

#: (name, unit) of the end-to-end metrics, reported by untraced runs.
END_TO_END = (("setup_s", "s"), ("requests_per_s", "req/s"), ("peak_rss_mib", "MiB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-sweep", "stream-clients", "federated-digest", "mrc-sizing"),
    )
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the calibrated profile seed)")
    parser.add_argument("--seconds", type=float, default=28.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib(pool_workers: int) -> float:
    """This process's peak resident set plus *pool_workers* times the
    largest terminated child's (an upper bound for a pool, since forked
    workers share pages with the parent).  Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) * 1024 / MIB


def timed_units(workload, inputs, seconds: float):
    """Run units until *seconds* have passed; the unit running then
    finishes.  Returns their outputs and durations."""
    outputs, durations = [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        t = perf_counter()
        outputs.append(workload.unit(inputs))
        durations.append(perf_counter() - t)
    return outputs, durations


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(HERE)]
    import layers
    import workloads
    from tracer import Tracer

    import_s = perf_counter() - T0
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]()

    builds = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous build go before making the next
        t = perf_counter()
        inputs = workload.setup(seed)
        builds.append(perf_counter() - t)
    setup_s = import_s + statistics.median(builds)

    check = workloads.Check()
    outputs, durations = [], []
    try:
        outputs, durations = timed_units(workload, inputs, args.seconds)
    except Exception:
        traceback.print_exc()
        check.item(False, "timed unit raised")
    rss = peak_rss_mib(workload.timed_workers)
    per_unit = workload.requests(inputs)
    requests_per_s = per_unit * len(durations) / sum(durations) if durations else 0.0

    if args.trace:
        tracer = Tracer()
        layer_values = {"traces.generate_s": statistics.median(builds)}
        if outputs:
            layers.install(tracer)
            try:
                with tracer.span(f"{workload.name}.unit"):
                    t = perf_counter()
                    traced = workload.unit(inputs, tracer)
                    traced_s = perf_counter() - t
            except Exception:
                traceback.print_exc()
                check.item(False, "traced unit raised")
            else:
                check.item(workload.same(traced, outputs[0]), "traced output differs from the untraced output")
                untraced_s = statistics.median(
                    workload.serial_seconds(o, d) for o, d in zip(outputs, durations)
                )
                layer_values["trace.overhead_share"] = traced_s / untraced_s - 1.0
                layer_values.update(workload.layer_metrics(inputs, outputs, traced))
            finally:
                tracer.uninstall()

    t = perf_counter()
    try:
        oracle = workload.oracle(inputs)
    except Exception:
        traceback.print_exc()
        check.item(False, "oracle raised")
    else:
        for output in outputs:
            check.merge(workload.check(output, oracle))
    oracle_s = perf_counter() - t

    report = {
        "workload": workload.name,
        "seed": seed,
        "units": len(durations),
        "unit_s": durations,
        "requests_per_unit": per_unit,
        "failed_share": check.failed / max(check.attempted, 1),
        "hit_ratio_error": check.hit_ratio_error,
        "problems": check.problems,
    }
    if args.trace:
        layer_values["check.oracle_s"] = oracle_s
        layer_values = layers.metrics(tracer, layer_values)
        report["not_observable"] = layers.NOT_OBSERVABLE
        spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
        tracer.dump(spans_path, {"report": report, "per_layer": layer_values})
        report["spans"] = str(spans_path.relative_to(ROOT))
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER + workload.extra_layer
        }
    else:
        values = {"setup_s": setup_s, "requests_per_s": requests_per_s, "peak_rss_mib": rss}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": check.failed == 0 and check.attempted > 0,
                "attempted": max(check.attempted, 1),
                "failed": check.failed if check.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
