"""Workload definitions: which corpus entries exist, which CLI jobs run on
them, and how each job's outcome is judged against the known truth.

A job's outcome is one of

* ``ok``: the verdict matches the truth and any emitted file re-checks;
* ``unresolved``: the truth is known but the program answered UNKNOWN,
  INCONCLUSIVE or INFEASIBLE_HINT (or missed a negative direction it was
  searching for);
* ``failed``: the job raised, exited 64/65, contradicted the truth, or
  emitted a file that failed the independent re-check.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

import corpus
import recheck

C, R = "COMPLEX", "REAL"
SMALL = [(2, 2), (3, 3), (2, 2, 2), (4, 4)]
WIDE = [(8, 8), (4, 4, 4), (2, 2, 2, 2, 2, 2)]

# CSOS iteration caps.  300 leaves the [2,2] (up to ~210 iterations) and
# [2,2,2] (~125) inputs room to finish; the singular [3,3] input makes no
# progress (hermitia 0.1.0), so a lower cap bounds its cost.
CSOS_ITERS = 300
CSOS_ITERS_SINGULAR = 100

# Construction seed of the class parameters of small-verdicts and
# csos-solve; the run's seed draws local frames (see README.md).
MASTER_SEED = 20191215


@dataclass(frozen=True)
class EntrySpec:
    kind: str
    dims: tuple[int, ...]
    r: int = 0
    copy: int = 0  # tells apart entries of one class and shape

    @property
    def name(self) -> str:
        base = f"{self.kind}{self.r or ''}-{'x'.join(map(str, self.dims))}"
        return f"{base}.{self.copy}" if self.copy else base


@dataclass(frozen=True)
class JobSpec:
    entry: str  # EntrySpec.name
    verb: str
    field: str = C
    out: str = ""  # extension of the file the job writes ("" for none)
    flags: tuple[str, ...] = ()


def _small():
    entries, jobs = [], []

    def add(kind, dims, r, *verbs):
        e = EntrySpec(kind, dims, r)
        entries.append(e)
        for verb, field in verbs:
            jobs.append(JobSpec(e.name, verb, field, "sepv" if verb == "sep-pipeline" else ""))

    psd_c, psd_r = ("psd", C), ("psd", R)
    sep_c, sep_r = ("sep-pipeline", C), ("sep-pipeline", R)
    eig, real = ("eig", C), ("real-check", C)
    for dims in SMALL:
        add("nonpsd", dims, 0, psd_c, sep_c, real, eig, *((psd_r,) if dims == (2, 2) else ()))
        add("sep", dims, 2, sep_c)
        add("rpsd", dims, 0, psd_c, sep_r, *((psd_r, eig, real) if dims == (2, 2) else ()))
    for dims in ((2, 2), (4, 4)):
        add("sep", dims, 1, sep_c, psd_c)
    # r = 3 is left out on [2, 2]: there the search is certified after
    # 0.07 s or after 1.4 s depending on the frame, which alone moved a run's
    # jobs_per_s by 14% and its tail by 30% between seeds
    for dims in ((3, 3), (2, 2, 2)):
        add("sep", dims, 3, sep_c)
    for dims in ((2, 2), (3, 3), (4, 4)):
        add("sep-real", dims, 2, sep_r, psd_r, real)
    add("sep-close", (2, 2), 2, sep_c)
    for dims in ((2, 2), (3, 3)):
        add("werner", dims, 0, sep_c, psd_c)
    add("csos", (2, 2), 0, psd_c, eig, sep_c)
    add("csos", (2, 2, 2), 0, sep_c)
    return entries, jobs


def _wide():
    entries, jobs = [], []
    for dims in WIDE:
        r = min(3, min(dims))
        rnd, low, orth = (EntrySpec("random", dims), EntrySpec("lowrank", dims, r),
                          EntrySpec("orthogonal", dims, r))
        entries += [rnd, low, orth]
        # the N x N eigenproblems (hsos, ortho, bounds' Hermitian flattening)
        # cost the same on every shape, so they run on [8, 8] only; the
        # Kronecker flattening, Jennrich and the writes differ per shape
        if dims == (8, 8):
            jobs += [JobSpec(rnd.name, "hsos", out="gram"), JobSpec(rnd.name, "ortho"),
                     JobSpec(low.name, "bounds")]
        jobs += [JobSpec(rnd.name, "bounds"),
                 JobSpec(rnd.name, "flatten", out="mtxc", flags=("--map", "kappa")),
                 JobSpec(rnd.name, "real-check"),
                 JobSpec(low.name, "hsos", out="gram"),
                 JobSpec(low.name, "jennrich", out="hdec", flags=("--rmax", str(r))),
                 JobSpec(low.name, "kruskal"),
                 JobSpec(low.name, "unitary-check", out="hdec"),
                 JobSpec(orth.name, "hsos", out="gram"),
                 JobSpec(orth.name, "unitary-check", out="hdec"),
                 JobSpec(orth.name, "real-check")]
    return entries, jobs


def _csos():
    entries, jobs = [], []
    inputs = ([("csos", (2, 2), i) for i in range(12)]
              + [("nonpsd", (2, 2), 0), ("csos", (2, 2, 2), 0), ("csos-singular", (3, 3), 0)])
    for kind, dims, copy in inputs:
        e = EntrySpec(kind, dims, 0, copy)
        entries.append(e)
        cap = CSOS_ITERS_SINGULAR if kind == "csos-singular" else CSOS_ITERS
        jobs.append(JobSpec(e.name, "csos", out="gram", flags=("--iters", str(cap))))
    return entries, jobs


WORKLOADS = {"small-verdicts": _small, "wide-flatten": _wide, "csos-solve": _csos}


@dataclass
class Entry:
    name: str
    dims: tuple[int, ...]
    mat: np.ndarray
    truth: dict
    path: str


def build_corpus(workload: str, seed: int, workdir: str):
    """Write the workload's HTEN files; return (entries by name, job specs).

    small-verdicts and csos-solve draw class parameters from MASTER_SEED and
    local frames from ``seed``; wide-flatten draws everything from ``seed``.
    """
    specs, jobs = WORKLOADS[workload]()
    fixed = workload != "wide-flatten"
    entries: dict[str, Entry] = {}
    for spec in specs:
        name = spec.name
        # keyed by name, so adding or removing an entry leaves the others
        key = zlib.crc32(name.encode())
        master = np.random.default_rng([MASTER_SEED if fixed else seed, key])
        frame = np.random.default_rng([seed, key])
        mat, truth = corpus.build(spec.kind, spec.dims, spec.r, master, frame)
        path = os.path.join(workdir, name + ".hten")
        corpus.write_hten(path, spec.dims, mat)
        entries[name] = Entry(name, spec.dims, mat, truth, path)
    return entries, jobs


def out_path(job: JobSpec, outdir: str) -> str:
    return os.path.join(outdir, f"{job.entry}.{job.verb}.{job.out}") if job.out else ""


def _jennrich_hdec(entry: Entry, outdir: str) -> str:
    return os.path.join(outdir, f"{entry.name}.jennrich.hdec")


def job_argv(job: JobSpec, entry: Entry, seed: int, outdir: str) -> list[str]:
    target = _jennrich_hdec(entry, outdir) if job.verb == "kruskal" else entry.path
    argv = ["--seed", str(seed), "--json", job.verb, target, *job.flags]
    if job.verb in ("psd", "sep-pipeline"):
        argv += ["--field", job.field]
    if job.out:
        argv += ["--out", out_path(job, outdir)]
    return argv


@dataclass
class Outcome:
    outcome: str  # ok | unresolved | failed
    verdict: str
    detail: str = ""
    iterations: int = 0


def _expect(status: str, yes: str, no: str, truth, unresolved=("UNKNOWN",)) -> str:
    if truth is None:
        raise ValueError("job on an entry whose truth is not known")
    want = yes if truth else no
    if status == want:
        return "ok"
    if status in unresolved:
        return "unresolved"
    return "failed"


def judge(job: JobSpec, entry: Entry, code, report: dict | None, outdir: str) -> Outcome:
    """Compare one job's exit code, JSON report and emitted file with the truth."""
    t, h, dims, verb = entry.truth, entry.mat, entry.dims, job.verb
    out = out_path(job, outdir)
    if verb == "kruskal" and code == 65 and not os.path.exists(_jennrich_hdec(entry, outdir)):
        return Outcome("unresolved", "no HDEC", "jennrich wrote no decomposition")
    if code is None or code in (64, 65):
        return Outcome("failed", f"exit {code}", "raised or exited with a usage/input error")
    rep = report or {}

    if verb == "psd":
        status = rep.get("status", "")
        res = _expect(status, "PSD_CERTIFIED", "NOT_PSD_WITNESS", t["psd_" + job.field[0]])
        if res == "ok" and status == "NOT_PSD_WITNESS" and not rep.get("witness_value", 0.0) < 0.0:
            return Outcome("failed", status, "witness value is not negative")
        return Outcome(res, status)

    if verb == "sep-pipeline":
        status = rep.get("status", "")
        res = _expect(status, "SEPARABLE_CERTIFIED", "ENTANGLED_WITNESS", t["sep_" + job.field[0]])
        err = None
        if status in ("SEPARABLE_CERTIFIED", "ENTANGLED_WITNESS"):
            err = recheck.check_sepv(out, dims, h, status, job.field)
        return Outcome("failed" if err else res, status, err or "")

    if verb == "eig":
        lams = [tup["lambda"] for tup in rep.get("tuples", [])]
        lo = min(lams) if lams else math.inf
        floor = 1e-8 * max(1.0, float(np.linalg.norm(h)))
        if t["psd_C"]:
            res = "ok" if lo >= -floor else "failed"
        else:
            res = "ok" if lo < -floor else "unresolved"
        return Outcome(res, f"min={'neg' if lo < -floor else 'nonneg'}")

    if verb == "real-check":
        got = code == 0
        return Outcome("ok" if got == t["real_dec"] else "failed", f"real={got}")

    if verb == "csos":
        status = rep.get("status", "")
        its = int(rep.get("iterations", 0))
        # no csos output certifies infeasibility, so a non-CSOS input is at
        # best unresolved
        res = _expect(status, "FEASIBLE", "", t["csos"], unresolved=("UNKNOWN", "INFEASIBLE_HINT"))
        err = recheck.check_gram(out, dims, h) if status == "FEASIBLE" else None
        return Outcome("failed" if err else res, status, err or "", its)

    if verb == "hsos":
        got = bool(rep.get("hsos"))
        err = recheck.check_gram(out, dims, h) if got else None
        if got != t["hsos"]:
            err = err or f"hsos={got}, truth {t['hsos']}"
        return Outcome("failed" if err else "ok", f"hsos={got}", err or "")

    if verb in ("bounds", "flatten"):
        m_rank, k_rank = recheck.flattening_ranks(dims, h)
        if verb == "bounds":
            got = (rep.get("m_rank"), rep.get("kappa_rank"), rep.get("lower_bound"))
            want = (m_rank, k_rank, max(m_rank, k_rank))
            err = None if got == want else f"bounds {got}, numpy ranks {want}"
        else:
            err = recheck.check_mtxc_kappa(out, dims, h)
            if not err and rep.get("rank") != k_rank:
                err = f"kappa rank {rep.get('rank')}, numpy rank {k_rank}"
        if not err and "rank" in t and m_rank != t["rank"]:
            err = f"flattening rank {m_rank} differs from the constructed rank {t['rank']}"
        return Outcome("failed" if err else "ok", "ranks", err or "")

    if verb == "ortho":
        w = np.linalg.eigvalsh(h)
        top = float(np.abs(w).max())
        want = np.sort(w[np.abs(w) > 1e-8 * top])
        got = np.sort([term["lambda"] for term in rep.get("terms", [])])
        ok = got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-8 * top)
        return Outcome("ok" if ok else "failed", f"terms={got.size}",
                       "" if ok else "spectrum differs from numpy's eigvalsh")

    if verb == "unitary-check":
        status = rep.get("status", "")
        res = _expect(status, "YES", "NO", t["unitary"], unresolved=("INCONCLUSIVE",))
        err = recheck.check_hdec(out, dims, h, positive=False)[0] if status == "YES" else None
        return Outcome("failed" if err else res, status, err or "")

    if verb == "jennrich":
        status = rep.get("status", "")
        res = _expect(status, "DECOMPOSED", "", True)
        err = None
        if status == "DECOMPOSED":
            err, terms = recheck.check_hdec(out, dims, h, positive=False)
            if not err and len(terms) != t["rank"]:
                err = f"{len(terms)} terms for a tensor of rank {t['rank']}"
        return Outcome("failed" if err else res, status, err or "")

    if verb == "kruskal":
        # generic (or orthonormal) vectors: Kruskal rank min(r, n_k) per mode
        got = bool(rep.get("certified"))
        r = t["rank"]
        want = sum(min(r, n) for n in dims) >= r + len(dims)
        _, terms = recheck.check_hdec(_jennrich_hdec(entry, outdir), dims, h, positive=False)
        if recheck.kruskal_certified(dims, terms) != want:
            return Outcome("failed", f"certified={got}", "numpy Kruskal ranks disagree with the construction")
        if got != want or code != (0 if want else 2):
            return Outcome("failed", f"certified={got}", f"Kruskal certificate {got}, expected {want}")
        return Outcome("ok", f"certified={got}")

    raise ValueError(f"no judge for verb {verb!r}")
