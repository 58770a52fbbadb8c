"""kvmflow benchmark: one command, three workloads, a separate traced run.

Run from the repository root (no install needed; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload {examples,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

One process is the only caller and waits for each operation before sending
the next (closed loop, one client). Inputs are made from ``--seed`` before
the timed loop; every operation's output is checked, outside its timing,
against a reference that does not come from kvmflow.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
operation twice, untraced and then traced, and prints the per-layer metrics
(see layers.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, each metric with its unit and sample count, and failures.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import PROCESS_S, reference_process_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
E2E_UNITS = {
    "latency_ref": "x_ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed for the reader but not in the result: on a shared host they follow
# the other tenants' load, which swings one operation's time by up to 1.9x
INFO_UNITS = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ref_ms": "ms",
    "setup_wall_s": "s",
}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kvmflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import kvmflow

    return {
        "workload": workload,
        "seed": seed,
        "lane": kvmflow.lane(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(),
    }


def _import_program():
    """Import kvmflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import kvmflow

    where = Path(kvmflow.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"kvmflow imported from {where}, not from {SRC}")


def _set_up(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed, workdir)
    wl.warm_up()
    return wl


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, makes the inputs and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("setup failed: " + proc.stderr.decode()[-500:])
    return wall


class _Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.base = ROOT / ".perfbench_work"
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(wl, seconds: float, tracer=None, probe=None, probes: int = 0) -> dict:
    """Closed loop over the workload's rounds until ``seconds`` have passed.

    The deadline is checked after each round, so a round (one CLI command of
    each kind) is never cut and at least one runs. Before each operation the
    workload's reference (reference.py) runs and is timed apart. With a
    tracer every operation runs untraced and then traced on the same input.

    ``probe`` (timing a setup) runs ``probes`` times between rounds, spread
    evenly over the run, so its median sees the host as the operations do.
    """
    plain, traced, ref, setup, failures = [], [], [], [], []
    startup = 0.0
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    for ops in wl.rounds():
        if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(probe())
        for op in ops:
            ref.append(wl.reference())
            for t in ((None, tracer) if tracer is not None else (None,)):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.run(t)
                except Exception as exc:  # a crash is a failed operation
                    out, err = None, f"{type(exc).__name__}: {exc}"
                else:
                    err = None
                wall = time.perf_counter() - t0
                if err is None:
                    try:
                        err = op.check(out)
                    except Exception as exc:  # unreadable output fails the check
                        err = f"unreadable output: {type(exc).__name__}: {exc}"
                if err is not None:
                    failures.append(f"{op.label}: {err}")
                if t is None:
                    plain.append(wall)
                    continue
                if hasattr(out, "main_s"):  # a CLI process traced in the child
                    t.adopt(out.spans)
                    startup += wall - out.main_s
                traced.append(wall)
        if time.perf_counter() >= deadline:
            break
    setup += [probe() for _ in range(probes - len(setup))]  # a run cut short
    return {"plain": plain, "traced": traced, "ref": ref, "setup": setup,
            "failures": failures, "attempted": attempted, "startup": startup}


def end_to_end(wl, m: dict) -> tuple:
    """The gated metrics, and the host-dependent ones printed beside them.

    ``latency_ref`` is the mean operation time over the mean time of the
    workload's reference, run just before each operation (see reference.py).
    ``setup_s`` is set-up wall time scaled to a host on which the reference
    process takes PROCESS_S: the median over the setup processes of
    wall time x PROCESS_S / (the reference process run before it).
    """
    setup, setup_ref = np.asarray(m["setup"]).T
    lat = np.asarray(m["plain"])
    ref = np.asarray(m["ref"])
    gated = {
        "latency_ref": float(lat.mean() / ref.mean()),
        "setup_s": float(np.median(setup * PROCESS_S / setup_ref)),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    info = {
        "ops_per_s": lat.size / float(lat.sum()),
        "latency_ms_p50": 1e3 * float(np.percentile(lat, 50)),
        "latency_ms_p90": 1e3 * float(np.percentile(lat, 90)),
        "ref_ms": 1e3 * float(ref.mean()),
        "setup_wall_s": float(np.median(setup)),
    }
    return gated, info


def per_layer(tracer, m: dict) -> dict:
    from layers import layer_metrics

    ops = len(m["traced"])
    out = layer_metrics(tracer.spans, ops, tracer.available)
    covered = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    out["cli.startup_ms"] = 1e3 * m["startup"] / ops
    out["trace.coverage"] = covered / float(np.sum(m["traced"]))
    # each traced run follows its untraced twin, so both see the same host
    out["trace.overhead_ratio"] = float(np.sum(m["traced"]) / np.sum(m["plain"]))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, out=sys.stdout) -> dict:
    """Set up, measure and report one run; returns the final JSON object."""
    _import_program()
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}", file=out)
    print("env " + json.dumps(environment(workload, seed)), file=out)
    with _Workdir() as workdir:
        wl = _set_up(workload, seed, workdir)
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()

        def probe():  # a setup process and the reference process right before it
            ref = reference_process_seconds(workdir)
            return setup_seconds(workload, seed), ref

        m = measure(wl, seconds, tracer, probe, 0 if trace else setup_repeats)
        info = {}
        if trace:
            metrics = per_layer(tracer, m)
            from layers import LAYER_METRICS as table

            units = {name: unit for name, (unit, _, _) in table.items()}
            notes = {name: f"moves {moves}" for name, (_, _, moves) in table.items()}
            for name in tracer.missing:
                print(f"absent: program has no {name}; its metrics are left out",
                      file=out)
        else:
            metrics, info = end_to_end(wl, m)
            notes = {"setup_s": f"median of {len(m['setup'])} processes, "
                                f"scaled to a {PROCESS_S} s reference process",
                     "latency_ref": "mean latency over mean reference time"}
            notes.update(dict.fromkeys(INFO_UNITS, "host-dependent, not gated"))
            units = {**E2E_UNITS, **INFO_UNITS}
    n = len(m["traced"] if trace else m["plain"])
    print(f"samples: {n} {'traced ' if trace else ''}operations, "
          f"{len(m['ref'])} reference runs", file=out)
    for name, value in {**metrics, **info}.items():
        print(f"{name:34s} {value:14.6g} {units[name]:8s} {notes.get(name, '')}",
              file=out)
    attempted, failed = m["attempted"], len(m["failures"])
    print(f"{'fail_ratio':34s} {failed / attempted:14.6g} {'ratio':8s} "
          f"({failed}/{attempted})", file=out)
    for line in m["failures"][:10]:
        print(f"FAIL {line}", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, make the inputs and warm up (times setup_s)")
    args = p.parse_args(argv)

    missing = [p for p in (SRC / "kvmflow" / "__init__.py", ROOT / "fixtures")
               if not p.exists()]
    if missing:
        print(f"perfbench: program not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _import_program()
        with _Workdir() as workdir:
            _set_up(args.workload, args.seed, workdir)
        return 0
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
