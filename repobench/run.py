"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 repobench/run.py --workload em3d --seed 1994 --seconds 40 --trace 0
    python3 repobench/run.py --workload sweep --seed 7 --seconds 40 --trace 1

``--trace 0`` reports the end-to-end metrics (medians over the run's
gated samples); ``--trace 1`` reports the per-layer metrics from a
separate traced run. The last line of standard output is the result
object; the lines before it carry provenance, host-noise readings, one
line per sample and the simulated digest for the seed. Everything the
run writes stays under ``.repobench/`` in the checkout (the spans of a
traced run and a JSON report of every run are kept there).

Exit codes: 0 when every sample passed its correctness gate, 1 when
one failed (the result line is still printed), 2 for a usage error or
a checkout without the program's source.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("em3d", "lcp", "sweep")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".repobench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep every file the run or the program writes inside the checkout,
    # and ignore caller settings that would point the program elsewhere.
    os.environ["TMPDIR"] = str(tmp)
    for name in ("REPRO_CACHE_DIR", "REPRO_SPECS_DIR", "REPRO_LAKE_PATH"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repobench import bench, host, workloads

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    host.check_workers(1)  # every run below is jobs=1, in this process
    label = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = work / f"run-{label}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed)
    noise = host.NoiseProbe()
    if args.trace:
        result, recorder = bench.traced_run(workload, workdir, ROOT)
        recorder.write(work / f"spans-{label}.json")
    else:
        result = bench.untraced_run(workload, workdir, ROOT, args.seconds)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": host.provenance(ROOT),
        "noise": noise.finish(),
        "detail": result.detail,
        "samples": [
            {
                "index": s.index, "ok": s.ok, "errors": s.errors,
                "wall_s": s.wall_s, "events": s.events,
                "warm_passes_s": s.warm_passes, "query_passes_s": s.query_passes,
                "digest": s.digest,
                "claims_failed": s.claims,
            }
            for s in result.samples
        ],
    }
    (work / f"report-{label}.json").write_text(json.dumps(report, indent=1))
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("noise " + json.dumps(report["noise"], sort_keys=True))
    for s in result.samples:
        state = "ok" if s.ok else "FAILED " + "; ".join(s.errors)
        print(f"sample {s.index}: wall {s.wall_s:.4f}s events {s.events} "
              f"warm passes {len(s.warm_passes)} lake passes "
              f"{len(s.query_passes)} {state}")
    claims = result.samples[0].claims if result.samples else []
    if claims and not workload.gate_claims:
        print(f"claims (reported, not gated): {len(claims)} shape checks miss")
        for claim in claims:
            print(f"  - {claim}")
    print(f"digest {args.workload} seed={args.seed} "
          f"{result.detail.get('digest')}")
    print(result.line())
    return 0 if result.failed == 0 and result.samples else 1


if __name__ == "__main__":
    sys.exit(main())
