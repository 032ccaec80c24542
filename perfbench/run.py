"""polycenter benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload {cli_mix,sweep_large,warm_cuts}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Run from the root of a source checkout.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is a report with the run environment, every failed check by
name, the known defects, the tail percentile and its sample count,
``ops_failed_ratio`` and the latencies in milliseconds.
Per-op results go to ``.perfbench/results/``; ``--compare`` prints the
largest coordinate difference and every sweep-count and exit-code
difference between two such files.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()

# pinned for the benchmark and every child before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    That is the 11th largest sample; with 10 or fewer samples no such
    percentile exists and the maximum is reported.  Returns
    ``(value, percentile, samples)``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def environment(seed, calib_ms):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "host.calib_ms": calib_ms,
    }


def setup(name, seed, run_dir):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, run_dir)
    workload.warmup()
    return workload


def measure_setup(name, seed, run_dir):
    """Wall time of fresh processes doing the run's set-up, in seconds:
    interpreter start, imports, input generation and the warm-up op."""
    samples = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only", str(run_dir / f"setup{k}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(samples), samples


def timed_phase(workload, seconds, trace, tracer):
    """Closed loop, one op at a time, until ``seconds`` have passed (and,
    traced, until the exact-count window is full).  Every op is bracketed
    by the workload's calibration; ``rel`` holds each untraced op's latency
    as a multiple of the mean of the calibrations just before and just
    after it.  Traced runs do every op twice, traced and untraced, in
    alternating order."""
    lat, rel, lat_traced, records, failures, ref_dists = [], [], [], [], [], []
    calib, host = [], []

    def calibrate():
        cal, host_s = workload.calibrate()
        calib.append(cal)
        host.append(host_s)

    calibrate()
    end = time.perf_counter() + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= end and (not trace or i >= workload.count_window):
            break
        inp = workload.prepare(i)
        modes = ((i % 2 == 0, i % 2 == 1) if trace else (False,))
        for traced in modes:
            if traced:
                tracer.op = i
                tracer.install()
                try:
                    latency, out = workload.run(inp, tracer)
                finally:
                    tracer.uninstall()
                lat_traced.append(latency)
            else:
                latency, out = workload.run(inp)
                lat.append(latency)
            record, failed, ref = workload.check(inp, out, traced)
            if not traced:
                kept, kept_record = out, record
            record["traced"] = traced
            record["latency_ms"] = latency * 1e3
            records.append(record)
            failures.append(failed)
            if ref is not None:
                ref_dists.append(ref)
        calibrate()
        cal = (calib[-2] + calib[-1]) / 2
        rel.append(lat[-1] / cal)
        kept_record["calib_ms"] = cal * 1e3
        workload.commit(inp, kept)
        i += 1
    return {
        "lat": lat,
        "rel": rel,
        "lat_traced": lat_traced,
        "records": records,
        "failures": failures,
        "ref_dists": ref_dists,
        "calib": calib,
        "host": host,
        "ops": i,
    }


def _median_wall(cmd, env):
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _import_times(env):
    """Median cumulative import time of polycenter.cli and of numpy, ms."""
    cli, numpy = [], []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polycenter.cli"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("polycenter.cli", "numpy"):
                ms = int(parts[1]) / 1e3
                if parts[2].strip() == "numpy":
                    numpy.append(ms)
                else:
                    cli.append(ms)
    return statistics.median(cli), statistics.median(numpy)


def cli_probes(seed, run_dir):
    """Workload-independent CLI layer probes: bare interpreter start, import
    times, and every cli_mix command once in one traced process, with the
    number of them whose exit status is not the documented one."""
    from tracing import rebase
    from workloads import cli_env, write_cli_inputs

    env = cli_env()
    interp_ms = _median_wall([sys.executable, "-c", "pass"], env)
    import_ms, numpy_ms = _import_times(env)
    ops, _ = write_cli_inputs(seed, run_dir)
    spans_path = run_dir / "probe_spans.json"
    traced_cli = Path(__file__).resolve().parent / "traced_cli.py"
    proc = subprocess.run(
        [sys.executable, str(traced_cli), str(spans_path), json.dumps([argv for _, argv, _ in ops])],
        cwd=ROOT, env=env, check=True, capture_output=True,
    )
    codes = json.loads(proc.stdout.splitlines()[-1])
    mismatches = sum(code != want for code, (_, _, want) in zip(codes, ops))
    spans = rebase(json.loads(spans_path.read_text()), "probe", 0)
    probes = {"interp_ms": interp_ms, "import_ms": import_ms, "numpy_ms": numpy_ms,
              "exit_mismatches": mismatches}
    return probes, spans


def layer_metrics(res, spans, probe_spans, probes, window):
    """Per-layer metrics from the traced ops' spans.  A layer the workload
    never calls is measured on the CLI probe pass instead; the returned
    list names those metrics."""
    from tracing import self_times

    selfs = dict(zip(map(id, spans), self_times(spans)))
    pselfs = dict(zip(map(id, probe_spans), self_times(probe_spans)))
    from_probe = []
    busy = sum(res["lat_traced"])

    def pick(name, metric):
        own = [s for s in spans if s[0] == name]
        if own:
            return own, selfs, True
        from_probe.append(metric)
        return [s for s in probe_spans if s[0] == name], pselfs, False

    def dur(ss):
        return [s[2] - s[1] for s in ss]

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    def counted(ss, own):
        # exact counts come from the first ``window`` ops only, so they
        # repeat for a seed whatever the host speed
        return [s for s in ss if not own or s[4] < window]

    def infos(ss, own):
        # what each counted call returned; calls that raised return nothing
        return [s[5] for s in counted(ss, own) if s[5] is not None]

    m = {}
    for layer in ("lines.section", "harmonic.solve"):
        ss, _, own = pick(layer, f"{layer}_us")
        m[f"{layer}_us"] = mean(dur(ss)) * 1e6
        m[f"{layer}_calls_per_op"] = len(counted(ss, own)) / window
        m[f"{layer}_share"] = sum(dur(ss)) / busy
    ss, _, own = pick("harmonic.solve", "harmonic.newton_iters_per_solve")
    m["harmonic.newton_iters_per_solve"] = mean([i[0] for i in infos(ss, own)])
    m["harmonic.unconverged_solves"] = sum(1 for i in infos(ss, own) if not i[1])

    ss, _, _ = pick("center.cs_step", "center.sweep_ms")
    m["center.sweep_ms"] = mean(dur(ss)) * 1e3
    ss, sl, own = pick("center.harmonic_center", "center.sweeps_per_solve")
    m["center.sweeps_per_solve"] = mean([i[0] for i in infos(ss, own)])
    m["center.loop_self_share"] = sum(sl[id(s)] for s in ss) / sum(dur(ss))
    ss, _, _ = pick("center.f_norm", "center.fnorm_us")
    m["center.fnorm_us"] = mean(dur(ss)) * 1e6
    m["center.fnorm_share"] = sum(dur(ss)) / busy
    ss, _, own = pick("center.bi_center", "center.bi_ms")
    m["center.bi_ms"] = mean(dur(ss)) * 1e3
    m["center.bi_sweeps_per_solve"] = mean([i[0] for i in infos(ss, own)])
    m["center.bi_budget_hits"] = sum(1 for i in infos(ss, own) if not i[1])
    m["center.ref_dist_max"] = max(res["ref_dists"])

    for metric, name, scale in (
        ("model.parse_ms", "model.parse", 1e3),
        ("model.interior_search_ms", "model.interior_search", 1e3),
        ("model.polytope_build_us", "model.polytope_build", 1e6),
        ("svg.emit_ms", "svg.emit", 1e3),
    ):
        ss, _, _ = pick(name, metric)
        m[metric] = mean(dur(ss)) * scale
    ss, sl, _ = pick("cli.main", "cli.main_ms")
    m["cli.main_ms"] = mean(dur(ss)) * 1e3
    m["cli.main_self_share"] = sum(sl[id(s)] for s in ss) / sum(dur(ss))
    m["cli.import_ms"] = probes["import_ms"]
    m["cli.import_numpy_ms"] = probes["numpy_ms"]
    m["cli.interp_ms"] = probes["interp_ms"]
    m["cli.exit_mismatches"] = probes["exit_mismatches"]
    startup = probes["interp_ms"] + probes["import_ms"]
    m["cli.startup_share"] = startup / (startup + m["cli.main_ms"])
    m["host.calib_ms"] = statistics.median(res["host"]) * 1e3
    m["trace.overhead_ratio"] = statistics.median(res["lat_traced"]) / statistics.median(res["lat"])
    return m, sorted(set(from_probe))


def summarize_failures(res):
    """``(ops with a failure, ops with a failure other than a known defect's
    exit code, unexpected failure names, failures by name)``."""
    by_name = {}
    failed = unexpected_ops = 0
    for names in res["failures"]:
        failed += bool(names)
        unexpected_ops += any(not n.endswith(":known_exit") for n in names)
        for n in names:
            by_name[n] = by_name.get(n, 0) + 1
    unexpected = sorted(n for n in by_name if not n.endswith(":known_exit"))
    return failed, unexpected_ops, unexpected, by_name


def bench(args):
    from tracing import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = setup(args.workload, args.seed, run_dir)
        setup_self_s = time.perf_counter() - _T_START
        tracer = Tracer()
        res = timed_phase(workload, args.seconds, args.trace, tracer)
        if args.workload == "cli_mix":
            peak_rss_mb = workload.peak_rss_kb / 1024.0
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            probes, probe_spans = cli_probes(args.seed, run_dir)
        setup_s, setup_samples = measure_setup(args.workload, args.seed, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed, unexpected_ops, unexpected, by_name = summarize_failures(res)
    attempted = len(res["records"])
    calib_ms = statistics.median(res["calib"]) * 1e3
    tail_rel, tail_pct, tail_n = tail(res["rel"])
    e2e = {
        "setup_s": setup_s,
        "op_p50_rel": statistics.median(res["rel"]),
        "op_tail_rel": tail_rel,
        "ops_per_calib": len(res["rel"]) / sum(res["rel"]),
        "peak_rss_mb": peak_rss_mb,
    }
    # metric names and units come from BENCHMARK.json, the benchmark's contract
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)

    def with_units(values, section):
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in contract[section]}

    report = {
        "workload": args.workload,
        "env": environment(args.seed, statistics.median(res["host"]) * 1e3),
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": res["ops"],
        "end_to_end": {
            **with_units(e2e, "end_to_end"),
            "ops_failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        },
        "op_tail": {"percentile": tail_pct, "samples": tail_n},
        "latency_ms": {
            "calib_p50": calib_ms,
            "op_p50": statistics.median(res["lat"]) * 1e3,
            "op_tail": tail([x * 1e3 for x in res["lat"]])[0],
            "ops_per_s": len(res["lat"]) / sum(res["lat"]),
        },
        "failures": by_name,
        "known_defects": {
            k: {"expected_exit": v[0], "exit_at_writing": v[1], "ops": by_name.get(f"{k}:known_exit", 0)}
            for k, v in KNOWN_DEFECTS.items()
        } if args.workload == "cli_mix" else {},
        "unexpected_failures": unexpected,
        "setup_samples_s": setup_samples,
        "setup_self_s": setup_self_s,
    }
    if args.trace:
        layers, from_probe = layer_metrics(
            res, tracer.spans, probe_spans, probes, workload.count_window
        )
        report["per_layer"] = with_units(layers, "per_layer")
        report["per_layer_from_cli_probe"] = from_probe
        (results_dir / f"{args.workload}-seed{args.seed}.spans.json").write_text(
            json.dumps(tracer.spans)
        )
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl", "w") as fh:
        fh.write(json.dumps({"env": report["env"], "workload": args.workload}) + "\n")
        for rec in res["records"]:
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": unexpected_ops,
        "metrics": report["per_layer"] if args.trace else with_units(e2e, "end_to_end"),
    }))
    return 0


def compare(path_a, path_b):
    """Largest coordinate difference and every sweep-count or exit-code
    difference between the per-op records of two runs, matched by op."""

    def load(path):
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        return {(r["op"], r["traced"]): r for r in lines[1:]}

    a, b = load(path_a), load(path_b)
    common = sorted(set(a) & set(b))
    max_diff = 0.0
    sweeps, exits, inputs = [], [], []
    for key in common:
        ra, rb = a[key], b[key]
        if ra["input"] != rb["input"]:
            inputs.append(key[0])
            continue
        if "point" in ra and "point" in rb:
            max_diff = max(max_diff, max(abs(x - y) for x, y in zip(ra["point"], rb["point"])))
        for field, diffs in (("sweeps", sweeps), ("bi_sweeps", sweeps), ("exit", exits)):
            if ra.get(field) != rb.get(field):
                diffs.append({"op": key[0], "field": field, "a": ra.get(field), "b": rb.get(field)})
    print(json.dumps({
        "ops_compared": len(common),
        "max_coord_diff": max_diff,
        "sweep_differences": sweeps,
        "exit_differences": exits,
        "input_mismatches": inputs,
    }, indent=1))
    return 1 if sweeps or exits or inputs else 0


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cli_mix", "sweep_large", "warm_cuts"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "polycenter" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no polycenter sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        run_dir = Path(args.setup_only)
        try:
            setup(args.workload, args.seed, run_dir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
