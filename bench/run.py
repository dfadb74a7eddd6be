"""Ground-truth verdict benchmark for the hermitia CLI.

    python3 bench/run.py --workload small-verdicts --seed 1 --seconds 20 --trace 0

Builds a seeded corpus of HTEN files whose verdicts are known by
construction, then drives ``hermitia.cli.run(argv)`` in-process (one client,
closed loop, one job at a time) over the workload's fixed job mix in whole
passes for about ``--seconds`` seconds.  Every job's verdict is compared with
the known one and every emitted file is re-checked with numpy alone.
Passes after the first must reproduce its verdicts and CSOS iteration counts
(and, traced, its call counts) exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes and then traced passes, and reports per-layer metrics and the tracing
overhead.  A summary goes to stdout; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every
job, the environment) go to ``.bench_out/``.  Exit status: 0 when every job
is correct, 1 when a verdict or re-check failed or a pass did not reproduce
the first, 2 when the program cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = {"HERMITIA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15  # at least this many fresh interpreters time setup_s
SETUP_EVERY_S = 2.5  # one of them between jobs this often
MIN_PASSES = 2  # so that every run can check that a pass reproduces the first
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
WARMUP_S = 0.5


def _fail_setup(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def tail_percentile(samples: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND of ``samples`` above it."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / samples))


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "pinned": {k: os.environ.get(k) for k in PINNED}}


class SetupTimer:
    """Times a fresh interpreter running ``hermitia info`` on the smallest
    corpus file, at nominal machine speed.  Launches are spread over the
    run, one every SETUP_EVERY_S between jobs, so that their median samples
    the whole run rather than one moment of a shared machine."""

    def __init__(self, smallest: str, probe):
        self.argv = [sys.executable, "-m", "hermitia.cli", "info", smallest]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.probe = probe
        self.spans: list[tuple[float, float]] = []
        self._last = -math.inf

    def launch(self) -> None:
        self.probe.probe()
        start = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        self._last = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"hermitia info exited {proc.returncode}: {proc.stderr.strip()}")
        self.spans.append((start, self._last))
        self.probe.probe()

    def maybe_launch(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.launch()

    def median(self) -> float:
        while len(self.spans) < SETUP_REPEATS:
            self.launch()
        return statistics.median((end - start) * self.probe.scale(start, end)
                                 for start, end in self.spans)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        import workloads
        from hermitia import cli
        from speed import SpeedProbe

        self.wl = workloads
        self.cli = cli
        self.probe = SpeedProbe()
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir)
        self.entries, self.jobs = workloads.build_corpus(workload, seed, workdir)
        self.argvs = [workloads.job_argv(j, self.entries[j.entry], seed, self.outdir)
                      for j in self.jobs]

    def _run_job(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            return None, None, (start, time.perf_counter()), repr(exc)
        span = (start, time.perf_counter())
        lines = out.getvalue().strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            report = None
        return code, report, span, err.getvalue().strip()

    def run_pass(self, between=None) -> dict:
        """One timed pass over the job mix, then judging outside the clock.

        Speed probes (and ``between``, if given) run between jobs; each job's
        latency is reported at nominal machine speed (see speed.py), its raw
        wall time alongside.
        """
        raw = []
        self.probe.probe()
        for argv in self.argvs:
            self.probe.maybe_probe()
            if between is not None:
                between()
            raw.append(self._run_job(argv))
        self.probe.probe()
        results, written, walls = [], 0, []
        for job, (code, report, (start, end), err) in zip(self.jobs, raw):
            walls.append(end - start)
            elapsed = (end - start) * self.probe.scale(start, end)
            entry = self.entries[job.entry]
            try:
                res = self.wl.judge(job, entry, code, report, self.outdir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res = self.wl.Outcome("failed", f"exit {code}", f"re-check error: {exc!r}")
            if code is None:
                res.detail = err
            out = self.wl.out_path(job, self.outdir)
            if out and os.path.exists(out):
                written += os.path.getsize(out)
            results.append((job, code, elapsed, res))
        for name in os.listdir(self.outdir):
            os.remove(os.path.join(self.outdir, name))
        return {"wall": sum(walls), "results": results, "bytes": written}


def signature(p: dict) -> list:
    return [(f"{j.entry}:{j.verb}:{j.field}", code, r.verdict, r.iterations)
            for j, code, _, r in p["results"]]


def run_passes(runner: Runner, seconds: float, on_pass=None, between=None) -> list[dict]:
    """Whole passes, at least MIN_PASSES, while the next one is expected to
    end within ``seconds``."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        if on_pass is not None:
            on_pass()
        passes.append(runner.run_pass(between))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall"] > seconds:
            return passes


def hd_quantile(x, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics, which does not jump from one
    sample to the next as a plain sample quantile does."""
    import numpy as np

    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 20000
    mid = (np.arange(cells) + 0.5) / cells
    dens = np.exp((a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid))
    cdf = np.concatenate([[0.0], np.cumsum(dens)])
    cdf /= cdf[-1]
    edges = cdf[np.rint(np.arange(n + 1) * cells / n).astype(int)]
    return float(np.diff(edges) @ x)


def job_metrics(passes: list[dict]) -> dict:
    """End-to-end job metrics of a run, over every (job, pass) sample.

    The first pass runs cold and later ones warm, and every pass counts, so
    a cache kept inside the process shows only in the passes after the
    first.  ``jobs_per_s`` is the number of samples over the sum of their
    latencies; the latency quantiles are Harrell-Davis estimates over them.
    """
    lat = [el for p in passes for _, _, el, _ in p["results"]]
    outcomes = [r.outcome for p in passes for _, _, _, r in p["results"]]
    n = len(outcomes)
    tail_pct = tail_percentile(n)
    return {
        "jobs_per_s": n / math.fsum(lat),
        "wall_jobs_per_s": n / sum(p["wall"] for p in passes),
        "job_p50_s": hd_quantile(lat, 0.5),
        "job_tail_s": hd_quantile(lat, tail_pct / 100.0),
        "tail_percentile": tail_pct,
        "resolved_frac": outcomes.count("ok") / n,
        "unresolved_frac": outcomes.count("unresolved") / n,
        "failed_frac": outcomes.count("failed") / n,
        "samples": n,
    }


def layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer values, per traced pass."""
    k = len(traced)
    calls, self_s = tracer.self_times()

    def s(*names):
        return sum(self_s.get(nm, 0.0) for nm in names) / k

    reads = ("io.load_hten", "io.loads_hten", "io.load_hdec", "io.loads_hdec")
    writes = tuple(nm for nm in tracer.names if nm.startswith(("io.save_", "io.dumps_")))
    sep_calls = calls.get("separability.separable_search", 0)

    def rate(ps):  # as jobs_per_s
        return job_metrics(ps)["jobs_per_s"]

    counted = ("linalg.herm_eig", "linalg.matrix_rank", "linalg.psd_project",
               "spectral.herm_eigenpair", "spectral.mode_matrix",
               "separability.separable_search", "psd_sos.multiplier_hsos_test",
               "real_herm.is_real_decomposable")
    timed = counted + ("spectral.orthogonal_decompose", "psd_sos.csos_test", "psd_sos.hsos_test",
                       "flatten.hrank_lower_bound", "decomposition.jennrich_decompose",
                       "decomposition.kruskal_certify", "cli.run")
    out = {f"{name}.calls": calls.get(name, 0) / k for name in counted}
    out.update({f"{name}.self_s": s(name) for name in timed})
    out["linalg.herm_eig.n3_sum"] = tracer.n3 / k
    out["separability.separable_search.certified_ratio"] = (
        tracer.sep_certified / sep_calls if sep_calls else 0.0)
    out["psd_sos.csos_test.iterations"] = tracer.csos_iterations / k
    out["io.read.self_s"] = s(*reads)
    out["io.write.self_s"] = s(*writes)
    out["io.bytes_written"] = sum(p["bytes"] for p in traced) / k
    out["trace.jobs_per_s"] = rate(traced)
    out["trace.untraced_jobs_per_s"] = rate(untraced)
    out["trace.overhead_frac"] = rate(untraced) / rate(traced) - 1.0
    return out


# (per-layer metric, workloads on which it is predicted to be 0)
PREDICTED_ZEROS = (("linalg.psd_project.calls", ("small-verdicts", "wide-flatten")),
                   ("spectral.herm_eigenpair.calls", ("wide-flatten", "csos-solve")))

# summary values that are not metrics of BENCHMARK.json
EXTRA_UNITS = {"wall_jobs_per_s": "1/s", "unresolved_frac": "share", "failed_frac": "share"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hermitia" / "cli.py").is_file():
        return _fail_setup(f"no hermitia sources at {SRC}; run from a full checkout")
    os.environ.update(PINNED)  # before numpy is imported, so BLAS sees it
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hermitia

    if Path(hermitia.__file__).resolve().parent != SRC / "hermitia":
        return _fail_setup(f"imported hermitia from {hermitia.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; "
                           f"known: {', '.join(workloads.WORKLOADS)}")

    # a terminated run still removes its work directory and reaps its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: str) -> int:
    runner = Runner(args.workload, args.seed, workdir)
    smallest = min(runner.entries.values(), key=lambda e: os.path.getsize(e.path)).path
    env = environment()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    warm_until = time.perf_counter() + WARMUP_S
    with contextlib.redirect_stdout(io.StringIO()):
        while time.perf_counter() < warm_until:  # lazy set-up, and a busy CPU before timing
            runner.cli.run(["info", smallest])

    if args.trace:
        from tracing import Tracer
        import hermitia

        untraced = run_passes(runner, args.seconds / 2.0)
        tracer = Tracer(hermitia)
        tracer.install()
        marks: list[int] = []
        try:
            traced = run_passes(runner, args.seconds - sum(p["wall"] for p in untraced),
                                on_pass=lambda: marks.append(tracer.mark()))
        finally:
            tracer.uninstall()
        passes = untraced + traced
        marks.append(len(tracer.spans))
        call_sigs = [tracer.counts(a, b) for a, b in zip(marks, marks[1:])]
        values = layer_metrics(tracer, traced, untraced)
        tracer.write(str(ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-spans.tsv.gz"))
    else:
        setup = SetupTimer(smallest, runner.probe)
        passes = run_passes(runner, args.seconds, between=setup.maybe_launch)
        call_sigs = []
        values = job_metrics(passes)
        values["setup_s"] = setup.median()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the run does not measure: {sorted(missing)}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    problems = []
    first = signature(passes[0])
    for i, p in enumerate(passes[1:], start=2):
        if signature(p) != first:
            problems.append(f"pass {i} verdicts or CSOS iterations differ from pass 1")
    for i, sig in enumerate(call_sigs[1:], start=2):
        if sig != call_sigs[0]:
            problems.append(f"traced pass {i} call counts differ from traced pass 1")

    results = [(j, code, el, r) for p in passes for j, code, el, r in p["results"]]
    failed = sum(r.outcome == "failed" for *_, r in results)
    attempted = len(results)
    summary = job_metrics(passes)
    _print_summary(args, env, metrics, summary, passes, results, problems)
    _write_details(args, env, metrics, summary, results, problems, runner.entries)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def _print_summary(args, env, metrics, summary, passes, results, problems):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs/pass {len(passes[0]['results'])}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"tail percentile p{summary['tail_percentile']} over {summary['samples']} samples")
    for key, unit in EXTRA_UNITS.items():
        print(f"  {key:48s} {summary[key]:.6g} {unit}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    seen = set()
    for job, code, _, r in results:
        key = (job.entry, job.verb, job.field)
        if r.outcome != "ok" and key not in seen:
            seen.add(key)
            print(f"  {r.outcome.upper():10s} {job.entry} {job.verb} {job.field}: "
                  f"{r.verdict} {r.detail}".rstrip())
    for name, workloads in PREDICTED_ZEROS:
        if name in metrics and args.workload in workloads:
            held = "holds" if metrics[name][0] == 0 else "VIOLATED"
            print(f"  predicted zero {name}: {held}")
    for msg in problems:
        print(f"  NONDETERMINISM {msg}")


def _write_details(args, env, metrics, summary, results, problems, entries):
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "tail_percentile": summary["tail_percentile"],
           "samples": summary["samples"], "wall_jobs_per_s": summary["wall_jobs_per_s"],
           "unresolved_frac": summary["unresolved_frac"], "failed_frac": summary["failed_frac"],
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "problems": problems,
           "truths": {name: e.truth for name, e in entries.items()},
           "jobs": [{"entry": j.entry, "verb": j.verb, "field": j.field, "exit": code,
                     "seconds": el, "outcome": r.outcome, "verdict": r.verdict,
                     "detail": r.detail, "iterations": r.iterations}
                    for j, code, el, r in results]}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
