"""The three workloads: seeded inputs, one operation each, independent checks.

Inputs are made with numpy alone and handed to the program as arrays (library
workloads) or as JSON documents in a scratch directory (CLI workload). Every
operation is checked against a reference that does not come from kvmflow:
the paper's two-decimal limits, or ``numpy.linalg.eigvalsh``.
"""

import itertools
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from reference import reference_process_seconds, reference_seconds

# limits printed in the paper, rounded to two decimals
PAPER_LIMITS = {
    "ex1": [1.26, 0.0, -7.96],
    "ex2": [-0.21, 0.0, 2.71, 0.0, -10.48, 0.0, 12.34, 0.0, 14.36],
    "ex3": [
        0.0, 2.81, 0.0, 2.98, 0.0, 4.17, 0.0, 4.66, 0.0, 4.84, 0.0, -6.26, 0.0,
        9.29, 0.0, -10.84, 0.0, 11.53, 0.0, 11.83, 0.0, 12.48, 0.0, 17.11, 0.0,
        17.98, 0.0, -18.85,
    ],
}
PAPER_TOL = 0.01
ORACLE_INPUTS = 1000
CLI_TIMEOUT_S = 60  # a hung process is killed and counts as failed
MAX_ROWS = 10_000  # IntegratorConfig.max_rows default: the CSV row ceiling
HERE = Path(__file__).resolve().parent


class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is right, else a one-line reason.
    """

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _traced_call(tracer, fn):
    if tracer is None:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def _embed(a):
    return np.diag(a, 1) + np.diag(a, -1)


def _fixture(root: Path, name: str) -> np.ndarray:
    doc = json.loads((root / "fixtures" / f"{name}.json").read_text())
    return np.asarray(doc["offdiag"], dtype=np.float64)


def _signed_fixtures(root: Path, rng) -> dict:
    """Paper matrices with a seeded sign pattern, and their signed limits.

    The flow is equivariant under entry sign flips, so the work per input is
    the same for every seed and only the signs of the limit change.
    """
    out = {}
    for name, limit in PAPER_LIMITS.items():
        a = _fixture(root, name)
        signs = rng.choice([-1.0, 1.0], a.size)
        out[name] = (a * signs, np.asarray(limit) * signs)
    return out


def _limit_error(final, limit, tol) -> str | None:
    final = np.asarray(final, dtype=np.float64)
    if final.shape != limit.shape or not np.all(np.isfinite(final)):
        return f"final state {final!r} is not finite with shape {limit.shape}"
    dev = float(np.abs(final - limit).max())
    return None if dev <= tol else f"final state off by {dev:.3e} (tol {tol:.3e})"


def _report_error(report, limit, tol, status=None) -> str | None:
    if not report.overall:
        bad = [c.name for c in report.checks if not c.passed]
        return f"verify_run checks failed: {bad}"
    if status is not None and report.meta["status"] != status:
        return f"status {report.meta['status']!r}, expected {status!r}"
    return _limit_error(report.meta["final_offdiag"], limit, tol)


class Examples:
    """verify_run with the default config on the three paper matrices.

    One operation is one matrix; a round is one paper pass (ex1, ex2, ex3).
    """

    name = "examples"

    def __init__(self, root: Path, seed: int, workdir: Path):
        import kvmflow.verify  # noqa: F401  (import is part of setup)

        self.inputs = _signed_fixtures(root, np.random.default_rng(seed))
        self.ops = [self._op(name) for name in self.inputs]

    def _op(self, name):
        a, limit = self.inputs[name]

        def run(tracer):
            from kvmflow import verify

            return _traced_call(tracer, lambda: verify.verify_run(a))

        return Op(name, run, lambda report: _report_error(report, limit, PAPER_TOL))

    def warm_up(self):
        self.ops[0].run(None)

    def rounds(self):
        while True:
            yield self.ops

    def reference(self) -> float:
        return reference_seconds(1)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def oracle_inputs(seed: int, count: int = ORACLE_INPUTS) -> list:
    """Seeded (a0, expected limit) pairs, n cycling through 3..12.

    Entries are +-U[0.5, 10]; a draw is kept when consecutive squared
    magnitudes (and, for odd n, the smallest one) are at least 0.35 apart,
    which bounds the time to equilibrium. The expected limit places the
    eigvalsh magnitudes, ascending, on the live slots with the signs of a0.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = 3 + len(out) % 10
        a0 = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        mags = np.linalg.eigvalsh(_embed(a0))[n - n // 2:]
        sq = mags * mags
        gaps = np.diff(sq)
        if n % 2 == 1:
            gaps = np.concatenate([[sq[0]], gaps])
        if gaps.min() < 0.35:
            continue
        slots = np.arange(0, n - 1, 2) if n % 2 == 0 else np.arange(1, n - 1, 2)
        limit = np.zeros(n - 1)
        limit[slots] = np.sign(a0[slots]) * mags
        out.append((a0, limit))
    return out


class Oracle:
    """One verify_run per seeded input, config of acceptance criterion 4."""

    name = "oracle"

    def __init__(self, root: Path, seed: int, workdir: Path):
        from kvmflow import IntegratorConfig

        self.inputs = oracle_inputs(seed)
        self.configs = [IntegratorConfig(t_max=150.0,
                                         eq_eps=1e-9 * (1.0 + float(np.sum(a0 * a0))),
                                         max_rows=160)
                        for a0, _ in self.inputs]

    def _op(self, i):
        a0, limit = self.inputs[i]
        cfg = self.configs[i]
        tol = 1e-6 * (1.0 + float(np.linalg.norm(a0)))

        def run(tracer):
            from kvmflow import verify

            return _traced_call(tracer, lambda: verify.verify_run(a0, cfg))

        return Op(f"oracle[{i}] n={a0.size + 1}", run,
                  lambda report: _report_error(report, limit, tol, "converged"))

    def warm_up(self):
        self._op(0).run(None)

    def rounds(self):
        for i in itertools.cycle(range(len(self.inputs))):
            yield [self._op(i)]

    def reference(self) -> float:
        return reference_seconds(1)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliRun:
    """What one kvmflow process left behind."""

    def __init__(self, returncode, stdout: Path, spans, main_s):
        self.returncode = returncode
        self.stdout = stdout
        self.spans = spans  # spans recorded in the child (traced runs only)
        self.main_s = main_s


def _spectrum_error(values, a, what, coeff=1e-8) -> str | None:
    ref = np.linalg.eigvalsh(a if a.ndim == 2 else _embed(a))
    values = np.asarray(values, dtype=np.float64)
    tol = coeff * (1.0 + float(np.linalg.norm(ref)))
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return f"{what}: spectrum has shape {values.shape}, expected {ref.shape}"
    dev = float(np.abs(values - ref).max())
    return None if dev <= tol else f"{what}: spectrum off by {dev:.3e} (tol {tol:.3e})"


def _csv_error(path: Path, a0, final) -> str | None:
    lines = path.read_text().splitlines()
    k = a0.size
    header = lines[0].split(",")
    if header[0] != "t" or len(header) != k + 4:
        return f"CSV header has {len(header)} columns, expected {k + 4}"
    rows = len(lines) - 1
    if not 2 <= rows <= MAX_ROWS:
        return f"CSV has {rows} rows, expected 2..{MAX_ROWS}"
    first = np.array(lines[1].split(","), dtype=np.float64)
    last = np.array(lines[-1].split(","), dtype=np.float64)
    if first[0] != 0.0 or not np.array_equal(first[1:k + 1], a0):
        return "first CSV row is not the input at t=0"
    if not np.array_equal(last[1:k + 1], np.asarray(final, dtype=np.float64)):
        return "last CSV row differs from the summary's final state"
    return None


class Cli:
    """``python -m kvmflow.cli`` processes, one at a time, five commands a round."""

    name = "cli"

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_rss_kb = 0
        self.fx = _signed_fixtures(root, rng)
        H = rng.normal(size=(8, 8))
        self.sym = 0.5 * (H + H.T)
        for name, (a, _) in self.fx.items():
            doc = {"label": name, "n": a.size + 1, "offdiag": a.tolist()}
            (workdir / f"{name}.json").write_text(json.dumps(doc))
        (workdir / "sym8.json").write_text(json.dumps({"symmetric": self.sym.tolist()}))
        self.csv = workdir / "ex3.csv"
        self.summary = workdir / "ex3.summary.json"
        self.ops = [
            self._op("predict", ["predict", "--input", "ex1.json"], self._check_predict),
            self._op("verify", ["verify", "--input", "ex2.json"], self._check_verify),
            self._op("evolve", ["evolve", "--input", "ex3.json", "--out-csv", self.csv.name,
                                "--out-summary", self.summary.name], self._check_evolve),
            self._op("spectrum", ["spectrum", "--input", "ex3.json"], self._check_spectrum),
            self._op("evolve-sym", ["evolve-sym", "--input", "sym8.json", "--t-max", "2"],
                     self._check_evolve_sym),
        ]

    def _spawn(self, label, argv, tracer) -> CliRun:
        stdout = self.workdir / f"{label}.out"
        spans_file = self.workdir / f"{label}.spans.json"
        for stale in (self.csv, self.summary):  # no pass on a previous run's files
            stale.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "kvmflow.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *argv]
        with open(stdout, "wb") as out, open(self.workdir / f"{label}.err", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reaps the child and gives its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        spans, main_s = [], 0.0
        if tracer is not None and spans_file.exists():
            dump = json.loads(spans_file.read_text())
            spans, main_s = dump["spans"], dump["main_s"]
            spans_file.unlink()
        return CliRun(proc.returncode, stdout, spans, main_s)

    def _op(self, label, argv, check):
        def checked(run: CliRun):
            if run.returncode != 0:
                err = (self.workdir / f"{label}.err").read_text().strip()[-300:]
                return f"exit code {run.returncode}, expected 0: {err}"
            return check(run)

        return Op(label, lambda tracer: self._spawn(label, argv, tracer), checked)

    @staticmethod
    def _summary(path: Path) -> dict:
        return json.loads(path.read_text())

    def _check_predict(self, run):
        a, limit = self.fx["ex1"]
        s = self._summary(run.stdout)
        return (_spectrum_error(s["spectrum"], a, "predict")
                or _limit_error(s["predicted_limit"], limit, PAPER_TOL))

    def _check_verify(self, run):
        a, limit = self.fx["ex2"]
        s = self._summary(run.stdout)
        if s["overall"] is not True or s["status"] != "converged":
            return f"verify: overall={s['overall']!r} status={s['status']!r}"
        return _limit_error(s["final_offdiag"], limit, PAPER_TOL)

    def _check_evolve(self, run):
        a, limit = self.fx["ex3"]
        s = self._summary(self.summary)
        if s["status"] not in ("converged", "horizon_reached"):
            return f"evolve: status {s['status']!r}"
        return (_limit_error(s["final_offdiag"], limit, PAPER_TOL)
                or _limit_error(s["predicted_limit"], limit, PAPER_TOL)
                or _csv_error(self.csv, a, s["final_offdiag"]))

    def _check_spectrum(self, run):
        a, _ = self.fx["ex3"]
        s = self._summary(run.stdout)
        if s["paired"] is not True:
            return "spectrum: not reported as paired"
        return _spectrum_error(s["spectrum"], a, "spectrum")

    def _check_evolve_sym(self, run):
        s = self._summary(run.stdout)
        if s["status"] not in ("converged", "horizon_reached"):
            return f"evolve-sym: status {s['status']!r}"
        final = np.asarray(s["final_matrix"], dtype=np.float64)
        if final.shape != self.sym.shape or np.abs(final - final.T).max() > 1e-12:
            return "evolve-sym: final matrix is not symmetric 8x8"
        # the dense flow is isospectral; its drift bound is 1e-7 per eigenvalue
        return _spectrum_error(np.linalg.eigvalsh(final), self.sym, "evolve-sym", 1e-6)

    def warm_up(self):
        self.ops[0].run(None)  # predict: the cheapest command

    def rounds(self):
        while True:
            yield self.ops

    def reference(self) -> float:
        return reference_process_seconds(self.workdir)

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (Examples, Oracle, Cli)}
