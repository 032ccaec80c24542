"""The three workloads: seeded inputs, one op, and the checks on its output.

Every workload has the same shape.  ``prepare(i)`` draws the inputs of
op ``i`` from the seed (ops are prepared in order), ``run(inp, tracer)``
performs the op and returns ``(latency_s, out)`` with only the op itself
inside the timer, ``check(inp, out, with_ref)`` returns the per-op result
record, the names of failed checks and the distance to the reference
center (or None), and ``commit(inp, out)`` advances any state the next op
depends on.  ``warmup()`` is the set-up op run before timing starts.
``calibrate()`` times fixed work that no polycenter code is part of and
returns ``(calibration_s, host_loop_s)``; the runner calls it before and
after every op and also reports op latencies as multiples of it, which
cancels most of the host's speed drift.  The solver workloads calibrate
with ``host_loop`` itself; ``CliMix`` starts a bare interpreter that
imports numpy.

Library calls go through module attributes (``center.harmonic_center``)
so that the tracer's wrappers see them.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import analytic_center
from tracing import rebase

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Paper tables, copied from tests/conftest.py so that a test edit cannot
# move the checks.  TABLE1: start -> (sweep-1 point, final point or None).
TABLE1 = {
    (9.0, 6.0): ((6.01, 5.55), None),
    (3.0, 0.25): ((3.31, 5.47), (6.02, 5.55)),
    (2.0, 7.5): ((3.46, 5.48), (6.02, 5.55)),
    (5.0, 1.0): ((3.91, 5.49), (6.02, 5.55)),
    (7.0, 3.0): ((5.07, 5.52), (6.03, 5.55)),
    (5.0, 7.0): ((4.86, 5.51), (6.03, 5.55)),
}
TABLE2 = (
    ((1.00, 2.00, 2.50, 1.30), 1.013),
    ((1.70, 2.68, 4.10, 2.11), 0.185),
    ((1.66, 2.82, 4.03, 2.05), 0.016),
    ((1.68, 2.83, 4.05, 2.03), 0.007),
)
TABLE_TOL = 0.02


# Fixed arrays of the host calibration loop.
_CAL_BIG = np.arange(40000, dtype=float).reshape(200, 200) / 40000.0
_CAL_A = np.linspace(-1.0, 1.0, 300).reshape(30, 10)
_CAL_B = np.full(30, 3.0)


def host_loop(passes=3):
    """Wall time of a fixed loop, in seconds: host speed, not program speed.

    It mixes the three kinds of work the solver workloads do, with no
    polycenter code: a 200x200 matrix-vector pass, a Python loop over small
    numpy operations, and plain interpreter work.  The median over
    ``passes`` passes is returned.
    """
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for _ in range(10):
            s = 1.0 + np.abs(_CAL_BIG @ _CAL_BIG[0])
            (_CAL_BIG / s[:, None]).sum(axis=0)
        x = np.zeros(10)
        for _ in range(60):
            s = _CAL_B - _CAL_A @ x
            x = x - 1e-3 * (_CAL_A / s[:, None]).sum(axis=0)
        d, t = {}, 0
        for k in range(6000):
            t += (k * 7) % 13
            d[k & 255] = t
        times.append(time.perf_counter() - t0)
    return sorted(times)[passes // 2]


def random_polytope(rng, n, extra):
    """Box around a random anchor plus ``extra`` random halfspaces.

    Same construction and the same random draws as ``random_polytope`` in
    ``tests/conftest.py``; kept here so that a test edit cannot move the
    workload.  Rows are unit vectors.  Returns ``(A, b, anchor)``.
    """
    anchor = rng.uniform(-1.0, 1.0, size=n)
    rows, rhs = [], []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        rows.append(e.copy())
        rhs.append(anchor[k] + rng.uniform(1.0, 2.5))
        rows.append(-e)
        rhs.append(-(anchor[k] - rng.uniform(1.0, 2.5)))
    for _ in range(extra):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        rows.append(a)
        rhs.append(float(a @ anchor) + rng.uniform(0.4, 2.0))
    return np.array(rows), np.array(rhs), anchor


def random_interior_point(rng, A, b, anchor, frac=0.6):
    """Point at most ``frac`` of the way from ``anchor`` to the boundary
    along a random direction (the draws of the conftest helper)."""
    u = rng.normal(size=A.shape[1])
    u /= np.linalg.norm(u)
    s = b - A @ anchor
    g = A @ u
    d_plus = np.min(s[g > 1e-12] / g[g > 1e-12])
    d_minus = np.max(s[g < -1e-12] / g[g < -1e-12])
    return anchor + rng.uniform(frac * d_minus, frac * d_plus) * u


def fnorm_check(A, b, x):
    """f-norm and smallest slack at ``x``, recomputed with plain numpy."""
    s = b - A @ x
    if np.min(s) <= 0.0:
        return np.inf, float(np.min(s))
    return float(np.linalg.norm((A / s[:, None]).sum(axis=0))), float(np.min(s))


def read_poly(path):
    """Unit-row ``(A, b)`` of a ``.poly`` file, parsed with numpy only."""
    rows = []
    for line in Path(path).read_text().splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#") or tok[0] == "dims":
            continue
        rows.append([float(t) for t in tok if _is_number(t)])
    M = np.array(rows)
    norms = np.linalg.norm(M[:, :-1], axis=1)
    return M[:, :-1] / norms[:, None], M[:, -1] / norms


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


class SweepLarge:
    """Cold ``harmonic_center`` at n=200, m=1000, stop_tol 1e-6.

    Sweep counts depend on the polytope's shape (22 to 54 sweeps over 32
    shapes drawn by the conftest generator) far more than on the start, so
    a pool drawn per seed made the median op time move by about a tenth
    between seeds.  The shape is therefore drawn once, from ``SHAPE_KEY``,
    and each op sees it under a fresh seeded row order, axis reflection
    and translation (which leave coordinate search's path unchanged up to
    rounding) from a fresh seeded start.  No two ops get the same numbers.
    """

    name = "sweep_large"
    n, extra = 200, 600
    SHAPE_KEY = 2004
    stop_tol, max_iter = 1e-6, 1000
    count_window = 4

    def __init__(self, seed, run_dir):
        from polycenter import center, model

        self.center, self.model = center, model
        A, b, anchor = random_polytope(np.random.default_rng(self.SHAPE_KEY), self.n, self.extra)
        self.A, self.b, self.anchor = A, b, anchor
        self.ref = None
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])

    def _instance(self, rng, i):
        start = random_interior_point(rng, self.A, self.b, self.anchor)
        perm = rng.permutation(self.A.shape[0])
        flip = rng.choice((-1.0, 1.0), size=self.n)
        shift = rng.uniform(-1.0, 1.0, size=self.n)
        A = self.A[perm] * flip
        b = self.b[perm] + A @ shift
        return {
            "op": i,
            "A": A,
            "b": b,
            "start": flip * start + shift,
            "flip": flip,
            "shift": shift,
        }

    def prepare(self, i):
        return self._instance(self.rng, i)

    def warmup(self):
        inp = self._instance(self.warm_rng, -1)
        self.run(inp)

    def calibrate(self):
        # a longer calibration for ops of 1-2 s
        t = host_loop(9)
        return t, t

    def run(self, inp, tracer=None):
        poly = self.model.normalize_rows(self.model.Polytope(inp["A"], inp["b"]))
        t0 = time.perf_counter()
        point, trace = self.center.harmonic_center(
            poly, inp["start"], stop_tol=self.stop_tol, max_iter=self.max_iter
        )
        return time.perf_counter() - t0, (point, trace)

    def check(self, inp, out, with_ref):
        point, trace = out
        fn, smin = fnorm_check(inp["A"], inp["b"], point)
        failures = []
        if not trace.converged:
            failures.append("not_converged")
        if not (fn <= self.stop_tol and smin > 0.0):
            failures.append("fnorm_or_slack")
        record = {
            "op": inp["op"],
            "input": "sweep",
            "point": [float(v) for v in point],
            "sweeps": trace.iterations,
            "fnorm": fn,
            "exit": 0,
        }
        ref_dist = None
        if with_ref:
            if self.ref is None:
                self.ref = analytic_center(self.A, self.b, self.anchor)
            ref_dist = float(np.linalg.norm(point - (inp["flip"] * self.ref + inp["shift"])))
        return record, failures, ref_dist

    def commit(self, inp, out):
        pass


class WarmCuts:
    """Analytic-center cutting-plane sequences at n=10.

    Each op adds one seeded cut that keeps the previous center strictly
    interior, builds a fresh Polytope and warm-starts ``harmonic_center``
    from the previous center; every fourth op also runs ``bi_center`` and
    ``harmonic_hyperplane`` from that start.  Every ``cuts_per_sequence``
    cuts the sequence returns to a fresh base polytope, whose first center
    is the reference analytic center.  At n=10 ``bi_center`` rarely
    exhausts its 100-sweep budget (at n=20 and n=50 it often does, on these
    generators); budget hits are counted, not failed.

    Sweep counts depend on the base and its cuts: with both drawn from the
    seed, the median sweeps per op of a 30 s run ranged 21 to 25 over ten
    seeds.  Sequence k therefore draws its base and cuts from
    ``[POOL_KEY, k]``, and the seed gives each sequence an axis reflection
    and translation and each op a row order, which leave coordinate
    search's path unchanged up to rounding.  No two seeds give the same
    numbers, and every seed gives the same work.
    """

    name = "warm_cuts"
    n, extra = 10, 20
    cuts_per_sequence = 30
    stop_tol, max_iter = 1e-6, 1000
    bi_tol, bi_max_iter = 0.01, 100
    count_window = 60
    POOL_KEY = 2002

    def __init__(self, seed, run_dir):
        from polycenter import center, model

        self.center, self.model = center, model
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng([seed, 1])
        self.seq_rng = self.A0 = self.b0 = self.prev = self.flip = self.shift = None
        self.cuts = []

    def calibrate(self):
        t = host_loop()
        return t, t

    def warmup(self):
        A, b, anchor = random_polytope(self.warm_rng, self.n, self.extra)
        poly = self.model.normalize_rows(self.model.Polytope(A, b))
        c = self.center
        c.harmonic_center(poly, anchor, stop_tol=self.stop_tol, max_iter=self.max_iter)
        c.bi_center(poly, anchor, stop_tol=self.bi_tol, max_iter=self.bi_max_iter)
        c.harmonic_hyperplane(poly, anchor)

    def prepare(self, i):
        # A0, b0 and the cuts are in the sequence's own frame, the previous
        # center in the seed's: x_seed = flip * x_own + shift
        if i % self.cuts_per_sequence == 0:
            self.seq_rng = np.random.default_rng([self.POOL_KEY, i // self.cuts_per_sequence])
            self.A0, self.b0, anchor = random_polytope(self.seq_rng, self.n, self.extra)
            self.flip = self.rng.choice((-1.0, 1.0), size=self.n)
            self.shift = self.rng.uniform(-1.0, 1.0, size=self.n)
            self.prev = self.flip * analytic_center(self.A0, self.b0, anchor) + self.shift
            self.cuts = []
        prev = self.flip * (self.prev - self.shift)
        a = self.seq_rng.normal(size=self.n)
        a /= np.linalg.norm(a)
        A = np.vstack([self.A0] + [c[0][None, :] for c in self.cuts] + [a[None, :]])
        b = np.concatenate([self.b0, [c[1] for c in self.cuts]])
        depth = self.seq_rng.uniform(0.1, 0.5) * float(np.min(b - A[:-1] @ prev))
        cut = (a, float(a @ prev) + depth)
        perm = self.rng.permutation(A.shape[0])
        A = A[perm] * self.flip
        return {
            "op": i,
            "A": A,
            "b": np.append(b, cut[1])[perm] + A @ self.shift,
            "start": self.prev,
            "cuts": self.cuts + [cut],
            "with_bi": i % 4 == 0,
        }

    def run(self, inp, tracer=None):
        c = self.center
        t0 = time.perf_counter()
        poly = self.model.normalize_rows(self.model.Polytope(inp["A"], inp["b"]))
        point, trace = c.harmonic_center(
            poly, inp["start"], stop_tol=self.stop_tol, max_iter=self.max_iter
        )
        bi = hp = None
        if inp["with_bi"]:
            bi = c.bi_center(poly, inp["start"], stop_tol=self.bi_tol, max_iter=self.bi_max_iter)
            hp = c.harmonic_hyperplane(poly, inp["start"])
        return time.perf_counter() - t0, (point, trace, bi, hp)

    def check(self, inp, out, with_ref):
        point, trace, bi, hp = out
        A, b = inp["A"], inp["b"]  # unit rows: base rows and cut normals
        fn, smin = fnorm_check(A, b, point)
        failures = []
        if not trace.converged:
            failures.append("not_converged")
        if not (fn <= self.stop_tol and smin > 0.0):
            failures.append("fnorm_or_slack")
        record = {
            "op": inp["op"],
            "input": f"cut{inp['op'] % self.cuts_per_sequence}",
            "point": [float(v) for v in point],
            "sweeps": trace.iterations,
            "fnorm": fn,
            "exit": 0,
        }
        if bi is not None:
            record["bi_sweeps"] = bi[1].iterations
            if fnorm_check(A, b, bi[0])[1] <= 0.0:
                failures.append("bi_slack")
            s = b - A @ inp["start"]
            fvec = (A / s[:, None]).sum(axis=0)
            if not (
                np.allclose(hp.normal, fvec, rtol=1e-9, atol=1e-12)
                and np.isclose(hp.offset, float(fvec @ inp["start"]), rtol=1e-9, atol=1e-12)
            ):
                failures.append("hyperplane")
        ref_dist = None
        if with_ref:
            ref_dist = float(np.linalg.norm(point - analytic_center(A, b, inp["start"])))
        return record, failures, ref_dist

    def commit(self, inp, out):
        self.cuts = inp["cuts"]
        self.prev = out[0]


# cli_mix commands: (name, argv, documented exit code).  ``{run}`` is the
# run's scratch directory and ``{exterior}`` a seeded point outside the
# square.  The fixtures commands are the README's; the rest are error paths.
CLI_OPS = (
    ("center_table_ex1", ["center", "data/example1.poly", "--start", "3,0.25"], 0),
    (
        "center_json_ex2_trace",
        ["center", "data/example2.poly", "--start", "1,2,2.5,1.3", "--format", "json",
         "--trace", "{run}/ex2.csv"],
        0,
    ),
    (
        "center_csv_ex1_svg",
        ["center", "data/example1.poly", "--start", "5,1", "--format", "csv",
         "--trace", "{run}/ex1.csv", "--svg", "{run}/ex1.svg"],
        0,
    ),
    ("center_auto_square", ["center", "data/square.poly", "--format", "json"], 0),
    ("center_json_simplex", ["center", "data/simplex.poly", "--start", "0.2,0.2", "--format", "json"], 0),
    ("point_axis", ["point", "data/square.poly", "--start", "0.25,0.5", "--axis", "1"], 0),
    ("point_dir", ["point", "data/square.poly", "--start", "0.25,0.5", "--dir", "2,0"], 0),
    ("hyperplane", ["hyperplane", "data/square.poly", "--start", "0.25,0.5"], 0),
    ("compare_bi", ["compare-bi", "data/example1.poly", "--start", "9,6"], 0),
    ("check", ["check", "data/square.poly", "--start", "0.5,0.5"], 0),
    ("malformed", ["center", "{run}/malformed.poly"], 1),
    ("exterior_start", ["center", "data/square.poly", "--start", "{exterior}"], 2),
    ("open_axis", ["center", "{run}/open.poly", "--start", "1,0.5"], 3),
    ("budget", ["center", "data/example2.poly", "--start", "1,2,2.5,1.3", "--tol", "1e-12",
                "--max-iter", "2"], 4),
    ("hyperplane_at_center", ["hyperplane", "data/square.poly", "--start", "0.5,0.5"], 1),
    ("nan_rhs", ["center", "{run}/nan.poly"], 1),
    ("inf_rhs", ["center", "{run}/inf.poly", "--start", "0.5,0"], 1),
    ("open_strip", ["center", "{run}/strip.poly", "--start", "0.5,0"], 3),
)

# Inputs that get the wrong exit code at the time the benchmark was written
# (the documented code first, the observed one second).  They stay in the
# mix.  Exiting with the observed code is reported by name, as a
# ``<name>:known_exit`` failure that counts in ``ops_failed_ratio`` but not
# in the failed ops of the result line; any other wrong code is a failure.
KNOWN_DEFECTS = {"nan_rhs": (1, 2), "inf_rhs": (1, 4), "open_strip": (3, 4)}

_MALFORMED = (
    "dims 4 2\n-1 0 0\n0 -1 0\n1 0 one\n0 1 1\n",
    "dims 4 2\n-1 0 0\n0 -1 0\n1 0 1 2 3\n0 1 1\n",
    "dims 4 2\n-1 0 0\n0 -1 0\n1 0 1\n",
)
_FIXED_FILES = {
    "open.poly": "# open along +x\ndims 3 2\n-1 0 0\n0 -1 0\n0 1 1\n",
    "nan.poly": "# square with a nan right-hand side\ndims 4 2\n-1 0 0\n0 -1 0\n1 0 nan\n0 1 1\n",
    "inf.poly": "# strip closed by a face at infinity\ndims 4 2\n1 -1 1\n-1 1 1\n-1 -1 0\n1 1 inf\n",
    "strip.poly": "# strip x-y<=1, y-x<=1, x+y>=0: unbounded along (1,1)\ndims 3 2\n1 -1 1\n-1 1 1\n-1 -1 0\n",
}


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_cli_inputs(seed, run_dir):
    """Write the error-path input files into ``run_dir``.  Returns the
    seeded ``(name, argv, documented exit)`` of every op and the generator
    that goes on to order them."""
    rng = np.random.default_rng(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    files = dict(_FIXED_FILES)
    files["malformed.poly"] = _MALFORMED[int(rng.integers(len(_MALFORMED)))]
    for name, text in files.items():
        (run_dir / name).write_text(text)
    ext = rng.uniform(1.1, 2.0, size=2)
    subs = {
        "{run}": os.path.relpath(run_dir, ROOT),
        "{exterior}": f"{ext[0]:.6f},{ext[1]:.6f}",
    }
    ops = []
    for name, argv, code in CLI_OPS:
        out = []
        for tok in argv:
            for key, val in subs.items():
                tok = tok.replace(key, val)
            out.append(tok)
        ops.append((name, out, code))
    return ops, rng


class CliMix:
    """One ``python -m polycenter.cli`` process per op, cycling through
    ``CLI_OPS`` in a fresh seeded order each cycle."""

    name = "cli_mix"
    count_window = len(CLI_OPS)

    def __init__(self, seed, run_dir):
        self.run_dir = run_dir
        self.ops, self.rng = write_cli_inputs(seed, run_dir)
        self.order = []
        self.first = {}
        self.fixtures = {
            f: read_poly(ROOT / "data" / f)
            for f in ("example1.poly", "example2.poly", "square.poly", "simplex.poly")
        }
        self.refs = {}
        self.peak_rss_kb = 0

    def warmup(self):
        self.run({"op": -1, "name": self.ops[0][0], "argv": self.ops[0][1], "expect": self.ops[0][2]})
        self.calibrate()

    def calibrate(self):
        """Wall time of ``python -c "import numpy"``, in seconds: the
        interpreter start and the numpy import every CLI op pays, without
        any polycenter code.  ``host_loop`` is timed after it."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=cli_env(), check=True)
        return time.perf_counter() - t0, host_loop()

    def prepare(self, i):
        if not self.order:
            self.order = [int(k) for k in self.rng.permutation(len(self.ops))]
        name, argv, code = self.ops[self.order.pop(0)]
        return {"op": i, "name": name, "argv": argv, "expect": code}

    def _outputs(self, argv):
        return [ROOT / argv[k + 1] for k, tok in enumerate(argv) if tok in ("--trace", "--svg")]

    def run(self, inp, tracer=None):
        for path in self._outputs(inp["argv"]):
            path.unlink(missing_ok=True)
        spans_path = self.run_dir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "polycenter.cli", *inp["argv"]]
        else:
            spans_path.unlink(missing_ok=True)
            traced_cli = Path(__file__).resolve().parent / "traced_cli.py"
            cmd = [sys.executable, str(traced_cli), str(spans_path), json.dumps(inp["argv"])]
        with open(self.run_dir / "stdout", "wb") as out, open(self.run_dir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            spans = json.loads(spans_path.read_text())
            tracer.spans.extend(rebase(spans, tracer.op, len(tracer.spans)))
        stdout = (self.run_dir / "stdout").read_bytes()
        files = [p.read_bytes() if p.exists() else b"" for p in self._outputs(inp["argv"])]
        return latency, (proc.returncode, stdout, files)

    def check(self, inp, out, with_ref):
        code, stdout, files = out
        name = inp["name"]
        failures = []
        if code != inp["expect"]:
            known = KNOWN_DEFECTS.get(name, (None, None))[1] == code
            failures.append(f"{name}:known_exit" if known else f"{name}:exit")
        digest = hashlib.sha256(stdout + b"\0".join(files)).hexdigest()
        if self.first.setdefault(name, digest) != digest:
            failures.append(f"{name}:not_identical")
        record = {"op": inp["op"], "input": name, "exit": code, "stdout_sha256": digest}
        ref_dist = None
        try:
            point, sweeps = self._check_values(name, stdout, files, failures)
        except (ValueError, KeyError, IndexError, StopIteration):
            failures.append(f"{name}:unreadable_output")
            point = sweeps = None
        if point is not None:
            record["point"] = [float(v) for v in point]
            fixture = inp["argv"][1].rsplit("/", 1)[-1]
            A, b = self.fixtures[fixture]
            fn, smin = fnorm_check(A, b, point)
            record["fnorm"] = fn
            if not (fn <= 0.01 and smin > 0.0):
                failures.append(f"{name}:fnorm_or_slack")
            if with_ref:
                if fixture not in self.refs:
                    self.refs[fixture] = analytic_center(A, b, point)
                ref_dist = float(np.linalg.norm(np.asarray(point) - self.refs[fixture]))
        if sweeps is not None:
            record["sweeps"] = sweeps
        return record, failures, ref_dist

    def _check_values(self, name, stdout, files, failures):
        """Checks against the paper tables; returns (full-precision center
        or None, sweep count or None)."""
        text = stdout.decode()

        def near(got, want):
            return np.allclose(got, want, atol=TABLE_TOL)

        if name == "center_table_ex1":
            line = next(l for l in text.splitlines() if l.startswith("center:"))
            got = [float(v) for v in line.split("(")[1].rstrip(")").split(",")]
            if not near(got, TABLE1[(3.0, 0.25)][1]):
                failures.append(f"{name}:table1")
            return None, None
        if name == "center_json_ex2_trace":
            res = json.loads(text)
            rows = [r.split(",") for r in files[0].decode().splitlines()[1:]]
            ok = len(rows) == len(TABLE2) and all(
                near([float(v) for v in r[1:-1]], coords) and abs(float(r[-1]) - fn) <= TABLE_TOL
                for r, (coords, fn) in zip(rows, TABLE2)
            )
            if not ok or not near(res["center"], TABLE2[-1][0]):
                failures.append(f"{name}:table2")
            return res["center"], res["iterations"]
        if name == "center_csv_ex1_svg":
            rows = [r.split(",") for r in text.splitlines()[1:]]
            first, final = TABLE1[(5.0, 1.0)]
            if not (near([float(v) for v in rows[1][1:-1]], first)
                    and near([float(v) for v in rows[-1][1:-1]], final)):
                failures.append(f"{name}:table1")
            if files[0] != stdout or not files[1].startswith(b"<svg"):
                failures.append(f"{name}:files")
            return [float(v) for v in rows[-1][1:-1]], int(rows[-1][0])
        if name in ("center_auto_square", "center_json_simplex"):
            res = json.loads(text)
            return res["center"], res["iterations"]
        return None, None

    def commit(self, inp, out):
        pass


WORKLOADS = {w.name: w for w in (CliMix, SweepLarge, WarmCuts)}
