"""The repo's one benchmark. See README.md beside this file.

    python3 benchmarks/e2e/run.py                     # six workloads, end to end
    python3 benchmarks/e2e/run.py --trace             # ... and the per-layer run
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke | --check-noise | --determinism

Every workload runs in its own subprocess with a scrubbed environment.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORKLOADS = (
    "fig11_exec", "lusgs_exec", "compile_plain", "compile_verified",
    "service_warm", "service_mixed",
)
SMOKE_SECONDS = 1.0
#: Variables that would change what the compiler or runtime does.
SCRUBBED = (
    "REPRO_THREADS", "REPRO_VERIFY", "REPRO_MACHINE", "REPRO_BENCH_SMOKE",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Child: one workload, in this process.
# ---------------------------------------------------------------------------


def child(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}/src/repro: the program under test is not here")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads as W

    import_s = time.perf_counter() - _T0
    if args.imports_only:
        print(json.dumps(import_s))
        return 0
    tmp = Path(os.environ["REPRO_CACHE_DIR"])
    if args.determinism:
        print(json.dumps(determinism_dump(W, args.seed)))
        return 0
    spec = W.WORKLOADS[args.workload]
    if args.trace:
        out = W.run_traced(spec, args.seed, args.seconds, tmp)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{spec.name}.json").write_text(
            json.dumps(out.pop("tracer").chrome_trace())
        )
    else:
        # Set-up starts with the imports; like every other timing they
        # are taken several times, here in throwaway interpreters.
        imports = [import_s] + [
            spawn(["--imports-only"])
            for _ in range(0 if args.smoke else W.SETUP_REPEATS - 1)
        ]
        out = W.run_untraced(
            spec, args.seed, args.seconds, tmp, min(imports),
            smoke=args.smoke,
        )
    tally = out.pop("tally")
    out.update(
        workload=spec.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, attempted=tally.attempted, failed=tally.failed,
        bit_equal=tally.bit_equal, errors=tally.errors,
        versions={"python": platform.python_version(),
                  "numpy": np.__version__},
    )
    print(json.dumps(out))
    return 0


def determinism_dump(W, seed: int) -> dict:
    """Fingerprint, generated source and exact counts of every program
    of every workload, compiled once in this process."""
    import hashlib

    from harness import Tracer, staged_compile

    dump = {}
    tmp = Path(os.environ["REPRO_CACHE_DIR"])
    for spec in W.WORKLOADS.values():
        if spec.verify:
            continue  # same programs as compile_plain, 10x the time
        state = W.set_up(spec, seed, tmp)
        W.fresh_caches(state, tmp / spec.name)
        for p in state.programs:
            out = staged_compile(p, p.options, Tracer(spec.name))
            dump[f"{spec.name}/{p.name}"] = {
                "fingerprint": out["fingerprint"],
                "source_sha256": hashlib.sha256(
                    out["kernel"].source.encode()).hexdigest(),
                **out["counts"],
            }
    return dump


# ---------------------------------------------------------------------------
# Parent: subprocesses, reporting, ledger.
# ---------------------------------------------------------------------------


def spawn(extra, hashseed: str = "0") -> dict:
    """Run this file as a child with a scrubbed environment and every
    cache directory pointed into a temp dir under ``results/``."""
    RESULTS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(PYTHONHASHSEED=hashseed, REPRO_CACHE_DIR=tmp)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", *extra],
            env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    extra = ["--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))]
    return spawn(extra + (["--smoke"] if smoke else []))


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "date": time.strftime("%Y-%m-%d")}


def with_units(result: dict, contract: dict) -> dict:
    """Attach each metric's declared unit and check the run against
    ``BENCHMARK.json``: every declared metric, and no other."""
    declared = {
        m["name"]: m
        for m in contract["per_layer" if result["trace"] else "end_to_end"]
    }
    got = result["metrics"]
    if set(got) != set(declared):
        raise SystemExit(
            f"{result['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(got))}, "
            f"undeclared {sorted(set(got) - set(declared))}"
        )
    result["metrics"] = {
        name: {**got[name], "unit": m["unit"]} for name, m in declared.items()
    }
    return result


def show(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"\n{result['workload']}  seed {result['seed']}  {kind}  "
          f"measured {result['measured_s']:.1f} s  "
          f"checked {result['attempted']}  failed {result['failed']}  "
          f"bit-equal {result['bit_equal']}")
    for name, m in result["metrics"].items():
        line = f"  {name:<42} {m['value']:>14.6g} {m['unit']:<7}"
        if "n" in m:
            line += f" n={m['n']}"
        if "median" in m:
            line += f"  median={m['median']:.6g}"
        if "tail" in m:
            line += f"  p{m['tail']['p']:g}={m['tail']['value']:.6g}"
        print(line)
    for error in result["errors"]:
        print(f"  FAILED {error}")


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def ledger_rows(result: dict, stamp: dict, set_id=None):
    for name, m in result["metrics"].items():
        row = {**stamp, **result["versions"], "workload": result["workload"],
               "seed": result["seed"], "seconds": result["seconds"],
               "trace": result["trace"], "metric": name,
               "value": m["value"], "unit": m["unit"],
               "rounds": m.get("n"), "median": m.get("median"),
               "quartiles": m.get("quartiles"), "tail": m.get("tail")}
        if set_id is not None:
            row["set"] = set_id
        yield {k: v for k, v in row.items() if v is not None}


def run_all(args, contract, set_id=None) -> dict:
    stamp = provenance()
    results = {}
    for name in args.workloads:
        for trace in args.modes:
            result = with_units(
                run_workload(name, args.seed, args.seconds, trace,
                             args.smoke), contract)
            show(result)
            results.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"] = result
            if args.ledger:
                with open(args.ledger, "a") as fh:
                    for row in ledger_rows(result, stamp, set_id):
                        fh.write(json.dumps(row) + "\n")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(
        json.dumps({"provenance": stamp, "workloads": results}, indent=1))
    return results


def failures(results: dict) -> int:
    return sum(r["failed"] for w in results.values() for r in w.values())


def check_noise(args, contract) -> int:
    """Every workload twice, back to back; an end-to-end metric whose
    two readings disagree by more than its bound fails."""
    first = run_all(args, contract, set_id=1)
    second = run_all(args, contract, set_id=2)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    bad = failures(first) + failures(second)
    print(f"\n{'workload':<18}{'metric':<26}{'a':>12}{'b':>12}"
          f"{'|a-b|/min':>11}{'bound':>7}")
    for name in args.workloads:
        for metric, bound in bounds.items():
            a = first[name]["end_to_end"]["metrics"][metric]["value"]
            b = second[name]["end_to_end"]["metrics"][metric]["value"]
            gap = abs(a - b) / min(a, b)
            flag = "" if gap <= bound else "  DISAGREE"
            bad += gap > bound
            print(f"{name:<18}{metric:<26}{a:>12.5g}{b:>12.5g}"
                  f"{gap:>11.3f}{bound:>7.2f}{flag}")
    return 1 if bad else 0


def determinism(args) -> int:
    """Compile every program in two fresh processes with different
    hash seeds: fingerprints, generated source and counts must match,
    which is what lets BENCHMARK.json call the counts exact."""
    extra = ["--determinism", "--seed", str(args.seed)]
    a, b = spawn(extra, hashseed="1"), spawn(extra, hashseed="2")
    differing = [k for k in a if a[k] != b.get(k)] + \
        [k for k in b if k not in a]
    for key in differing:
        print(f"NOT DETERMINISTIC {key}: {a.get(key)} != {b.get(key)}")
    print(f"determinism: {len(a)} programs compiled twice, "
          f"{len(differing)} differ")
    return 1 if differing else 0


def main() -> int:
    contract = load_contract()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(contract["run_seconds"]))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads at minimum repeats")
    ap.add_argument("--ledger", metavar="PATH",
                    help="append one JSON line per workload x metric")
    ap.add_argument("--check-noise", action="store_true")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--imports-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.determinism:
        return determinism(args)
    # With --workload (the driver's form) --trace picks the one run to
    # make; without it the traced runs follow the untraced ones.
    args.workloads = (args.workload,) if args.workload else WORKLOADS
    args.modes = (args.trace,) if args.workload or not args.trace else (0, 1)
    if args.check_noise:
        return check_noise(args, contract)
    results = run_all(args, contract)
    if args.workload:
        (result,) = results[args.workload].values()
        print(final_line(result))
    return 1 if failures(results) else 0


if __name__ == "__main__":
    sys.exit(main())
