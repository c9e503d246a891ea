"""Benchmark of the fibrewise command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {ladder,basescan,roundtrip} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Each round first generates the
workload's model documents from the seed (set-up), then makes one pass
over them: a closed loop with one client, where each document goes
through `fibrewise hopf|ls -o` and then `fibrewise verify` on the emitted
certificate, called in-process through `fibrewise.cli.run_command`.
Rounds repeat while another fits in S seconds.  Every command's exit code,
outcome, target and witness is checked.  With --trace 1 one more pass runs
under the outside-in layer trace of `layertrace.py`.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it are a readable report.  A full report (and,
traced, the raw spans) goes to `.bench_out/` in the checkout.  The exit
code is 1 when any operation was wrong or the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
LADDER_MODELS = 2
LADDER_CANDIDATES = 12
BASESCAN_MODELS = 8
BASESCAN_CANDIDATES = 16
ROUNDTRIP_SEEDS = 27
PERTURB_MODES = ("change-of-generators", "both")

SRC = ROOT / "src"
if not (SRC / "fibrewise" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fibrewise sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

from fibrewise import (  # noqa: E402
    Comultiplication,
    PerturbationSpec,
    associativity_defect,
    perturb,
)
from fibrewise import io as fio  # noqa: E402
from fibrewise.cli import run_command  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Job:
    """One model document and the pipelines a user runs on it.  A forced
    job expects an obstruction (exit 3) with a known witness instead of a
    certificate."""

    name: str
    doc: dict
    pipelines: tuple[str, ...]
    standard_c: dict | None = None
    force: bool = False
    witness: list | None = None
    stage: str | None = None


@dataclass
class ModelRun:
    """One completed model: a pipeline command plus its verification."""

    job: str
    pipeline: str
    latency: float
    normalize_s: float
    verify_s: float
    cert_steps: int
    digest: bytes


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


# -- set-up ---------------------------------------------------------------------


def _standard_c(model) -> dict:
    standard = Comultiplication.standard(model.table)
    return fio.model_to_document(model, standard)["comultiplication"]


def _select(seed: int, count: int, candidates: int, make, keep) -> list[tuple]:
    """(s, model, comul) for the first `count` perturbation seeds `s` drawn
    from `seed` whose `make(s) = (model, comul)` satisfies `keep`.  At least
    `candidates` seeds are always drawn, so set-up does the same work for
    almost every benchmark seed."""
    chosen = []
    for tried, s in enumerate(workloads.derived_seeds(seed, 100 * count), 1):
        model, comul = make(s)
        if len(chosen) < count and keep(model, comul):
            chosen.append((s, model, comul))
        if len(chosen) == count and tried >= candidates:
            return chosen
    raise RuntimeError(f"seed {seed}: fewer than {count} perturbations of the wanted shape")


def ladder_jobs(seed: int, count: int = LADDER_MODELS) -> list[Job]:
    """Perturbations of L(6) whose `ls` certificate is two homotopies.

    Exact-homotopy perturbations keep D(W) = 0, so every model eliminates
    the same tensor-cube matrices; with changes of generators as well,
    verify time varied 3.6x between models.  `ls` certifies one homotopy
    per word length of each excess, none when the associativity defect
    vanishes.  About one seed in five gives a zero defect, which skips the
    cube elimination (0.07 s instead of 3 s); a one-step certificate
    verifies in two thirds of the time of a two-step one.
    """
    model = workloads.ladder_model(6)
    std = Comultiplication.standard(model.table)

    def make(s):
        return perturb(model, std, PerturbationSpec(s, max_word_length=4, mode="exact-homotopy"))

    def keep(pm, pc):
        fiber = pm.table.fiber
        return any(associativity_defect(pm, pc, gen) for gen in fiber) and sum(
            len(pc.excess(gen).word_length_parts()) for gen in fiber) == 2

    standard_c = _standard_c(model)
    return [Job(f"ladder-{s}", fio.model_to_document(pm, pc), ("ls",), standard_c)
            for s, pm, pc in _select(seed, count, LADDER_CANDIDATES, make, keep)]


def basescan_jobs(seed: int, count: int = BASESCAN_MODELS) -> list[Job]:
    """Perturbations of the wide base model by changes of generators that
    leave D non-zero on exactly two fiber generators, so that each `hopf`
    certificate is two changes of generators.  With one to three steps, and
    with exact additions to C (which `hopf` only carries along), verify time
    varied 2.5x to 4.7x between models."""
    model = workloads.basescan_model()
    std = Comultiplication.standard(model.table)

    def make(s):
        return perturb(model, std, PerturbationSpec(
            s, max_word_length=3, mode="change-of-generators"))

    def keep(pm, pc):
        return sum(1 for gen in pm.table.fiber if pm.D(gen)) == 2

    return [Job(f"basescan-{s}", fio.model_to_document(pm, pc), ("hopf",))
            for s, pm, pc in _select(seed, count, BASESCAN_CANDIDATES, make, keep)]


def roundtrip_jobs(seed: int, count: int = ROUNDTRIP_SEEDS) -> list[Job]:
    """The acceptance round-trip family over `count` consecutive seeds, each
    model through both pipelines, plus the forced fixtures a, b and c with
    their known obstruction witnesses."""
    jobs = []
    for index, model in enumerate(workloads.roundtrip_models()):
        std = Comultiplication.standard(model.table)
        standard_c = _standard_c(model)
        for s in range(seed, seed + count):
            for mode in PERTURB_MODES:
                pm, pc = perturb(model, std, PerturbationSpec(s, mode=mode))
                jobs.append(Job(f"rt{index}-{s}-{mode}", fio.model_to_document(pm, pc),
                                ("hopf", "ls"), standard_c))

    def term(*factors):
        return {"coeff": "1", "factors": [list(f) for f in factors]}

    jobs += [
        Job("fixture-a", fio.model_to_document(*workloads.fixture_a()), ("hopf",), force=True,
            witness=[term(("base", "b3", 1))]),
        Job("fixture-b", fio.model_to_document(*workloads.fixture_b()), ("hopf",), force=True,
            witness=[{"coeff": "-2", "factors": [["base", "x", 1]]}]),
        Job("fixture-c", fio.model_to_document(*workloads.fixture_c()), ("ls",), force=True,
            witness=[term(("base", "b3", 1), ("w0", "w3", 1), ("w1", "w3", 1))],
            stage="ls-even"),
    ]
    return jobs


BUILDERS = {"ladder": ladder_jobs, "basescan": basescan_jobs, "roundtrip": roundtrip_jobs}


def set_up(workload: str, seed: int, workdir: Path, **sizes):
    """Build the documents from scratch and write them; returns (jobs,
    seconds, digest of the documents)."""
    start = time.perf_counter()
    jobs = BUILDERS[workload](seed, **sizes)
    digest = hashlib.sha256()
    for job in jobs:
        data = fio.dumps(job.doc).encode("utf-8")
        (workdir / f"{job.name}.json").write_bytes(data)
        digest.update(data)
    return jobs, time.perf_counter() - start, digest.hexdigest()


# -- the measured loop ----------------------------------------------------------


def _run_command(argv: list[str]) -> int:
    sink = _Discard()
    with redirect_stdout(sink), redirect_stderr(sink):
        return run_command(argv)


def run_model(job: Job, pipeline: str, workdir: Path, tally: Tally, command) -> ModelRun:
    """`pipeline` then, on a certificate, `verify`; checks every answer."""
    where = f"{job.name}/{pipeline}"
    model_path = workdir / f"{job.name}.json"
    result_path = workdir / f"{job.name}.{pipeline}.result.json"
    cert_path = workdir / f"{job.name}.{pipeline}.cert.json"
    argv = [pipeline, str(model_path), "-o", str(result_path)] + (["--force"] if job.force else [])
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    code = command(pipeline, argv)
    normalized_at = time.perf_counter()
    tally.attempted += 1
    if not tally.check(result_path.exists(), f"{where}: exit {code} without a result document"):
        return ModelRun(job.name, pipeline, normalized_at - start, normalized_at - start,
                        0.0, 0, b"")
    result_bytes = result_path.read_bytes()
    doc = json.loads(result_bytes)
    cert_steps = 0
    verify_s = 0.0
    if job.force:
        obstruction = doc.get("obstruction", {})
        tally.check(
            code == 3 and doc["outcome"] == "obstructed"
            and obstruction.get("class_witness") == job.witness
            and (job.stage is None or obstruction.get("stage") == job.stage),
            f"{where}: expected exit 3 with witness {job.witness}, got exit {code}, "
            f"outcome {doc['outcome']}, obstruction {obstruction}",
        )
        end = normalized_at
    else:
        cert = doc.get("certificate")
        target = (cert or {}).get("target", {})
        ok = tally.check(
            code == 0 and doc["outcome"] == "normalized" and cert is not None
            and target.get("differential") == {}
            and (pipeline != "ls" or target.get("comultiplication") == job.standard_c),
            f"{where}: expected exit 0 with target D = 0"
            + (" and the standard C" if pipeline == "ls" else "")
            + f", got exit {code}, outcome {doc['outcome']}",
        )
        if ok:
            cert_path.write_text(json.dumps(cert))
            cert_steps = len(cert["steps"])
            verify_at = time.perf_counter()
            code = command("verify", ["verify", str(model_path), str(cert_path)])
            end = time.perf_counter()
            verify_s = end - verify_at
            tally.attempted += 1
            tally.check(code == 0, f"{where}: verify exited {code}")
        else:
            end = time.perf_counter()
    return ModelRun(job.name, pipeline, end - start, normalized_at - start, verify_s,
                    cert_steps, hashlib.sha256(result_bytes).digest())


def run_pass(jobs, workdir: Path, tally: Tally, tracer=None) -> list[ModelRun]:
    if tracer is None:
        def command(_name, argv):
            return _run_command(argv)
    else:
        spanned = {name: tracer.span(f"cli.{name}", _run_command)
                   for name in ("hopf", "ls", "verify")}

        def command(name, argv):
            return spanned[name](argv)

    runs = []
    for job in jobs:
        for pipeline in job.pipelines:
            if tracer is not None:
                tracer.begin_model()
            runs.append(run_model(job, pipeline, workdir, tally, command))
    return runs


def _digest(runs: list[ModelRun]) -> str:
    """SHA-256 over the result documents, which carry the certificates."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.digest)
    return digest.hexdigest()


def measure(workload: str, seed: int, workdir: Path, seconds: float, tally: Tally, **sizes):
    """Rounds of set-up plus one pass over the documents: at least one, and
    no further round once another as long as the longest so far would end
    after `seconds`.  Every round must write the same bytes as the first.
    Returns (jobs, set-up seconds per round, runs per round)."""
    setups, passes = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        jobs, setup_s, digest = set_up(workload, seed, workdir, **sizes)
        runs = run_pass(jobs, workdir, tally)
        if passes:
            tally.check(digest == first_digest, "set-up wrote other documents than in round 1")
            for first, again in zip(passes[0], runs):
                tally.check(first.digest == again.digest,
                            f"{again.job}/{again.pipeline}: results differ between rounds")
        else:
            first_digest = digest
        setups.append(setup_s)
        passes.append(runs)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return jobs, setups, passes


# -- reporting ------------------------------------------------------------------


def end_to_end(setups, per_model) -> dict:
    """Every time is the fastest of its rounds.  On a shared host the CPU
    can run at half speed for seconds at a time; the fastest of several
    rounds spread over the run is the figure that repeats from run to run."""
    latency = [min(run.latency for run in runs) for runs in per_model]
    return {
        "models_per_s": (len(latency) / sum(latency), "1/s"),
        "model_s.p50": (statistics.median(latency), "s"),
        "normalize_s": (sum(min(run.normalize_s for run in runs) for runs in per_model), "s"),
        "verify_s": (sum(min(run.verify_s for run in runs) for runs in per_model), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (min(setups), "s"),
    }


def per_layer(tracer, runs, untraced_models_per_s) -> dict:
    self_s, incl_s, calls = tracer.layer_times()
    counts = tracer.counts
    metrics = {}
    for name in layertrace.SPAN_NAMES:
        metrics[f"{name}.s"] = (self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in layertrace.STAGES:
        metrics[f"{name}.incl_s"] = (incl_s.get(name, 0.0), "s")
    for name in ("hopf", "ls", "verify"):
        metrics[f"cli.{name}.s"] = (self_s.get(f"cli.{name}", 0.0), "s")
    for name in layertrace.COUNTS:
        if name != "linalg.solve.repeats":
            metrics[name] = (counts[name], "bytes" if name == "io.bytes_out" else "count")
    solves = counts["linalg.solve.calls"]
    metrics["linalg.solve.repeat_ratio"] = (
        counts["linalg.solve.repeats"] / solves if solves else 0.0, "ratio")
    metrics["normalize.cert_steps"] = (sum(run.cert_steps for run in runs), "count")
    traced_models_per_s = len(runs) / sum(run.latency for run in runs)
    metrics["trace.models_per_s"] = (traced_models_per_s, "1/s")
    metrics["trace.overhead"] = (untraced_models_per_s / traced_models_per_s - 1, "ratio")
    return metrics


def _attribution(tracer, runs, limit: int = 10) -> list[str]:
    """The costliest call paths, each as a share of the command time it
    belongs to: `verify` paths of verify seconds, the others of the
    hopf/ls seconds."""
    totals = {"normalize": sum(r.normalize_s for r in runs),
              "verify": sum(r.verify_s for r in runs)}
    paths = sorted(tracer.paths().items(), key=lambda item: -item[1][0])
    lines = []
    for path, (seconds, count) in paths[:limit]:
        side = "verify" if path.startswith("cli.verify") else "normalize"
        share = seconds / totals[side] if totals[side] else 0.0
        lines.append(f"  {seconds:9.3f} s {share:6.1%} of {side:9s} {count:7d}x  {path}")
    return lines


def _write_spans(tracer, path: Path) -> None:
    names = {}
    rows = []
    for name, start, end, parent in tracer.spans:
        index = names.setdefault(name, len(names))
        rows.append([index, round(start, 7), round(end, 7), parent])
    path.write_text(json.dumps({"names": list(names), "spans": rows}, separators=(",", ":")))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        out_dir: Path | None = None, **sizes) -> tuple[dict, Tally, dict]:
    """One benchmark run; returns (metrics, tally, report)."""
    tally = Tally()
    jobs, setups, passes = measure(workload, seed, workdir, seconds, tally, **sizes)
    per_model = list(zip(*passes))
    metrics = end_to_end(setups, per_model)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "rounds": len(passes),
        "models": len(passes[0]),
        "result_digest": _digest(passes[0]),
        "setup_s.median": statistics.median(setups),
    }
    if len(per_model) >= 100:
        report["model_s.p90"] = statistics.quantiles(
            [min(run.latency for run in runs) for runs in per_model], n=10)[-1]
    if trace:
        tracer = layertrace.Tracer()
        uninstall = tracer.install()
        try:
            traced = run_pass(jobs, workdir, tally, tracer)
        finally:
            uninstall()
        tally.check(_digest(traced) == report["result_digest"],
                    "the traced pass wrote other documents than the untraced rounds")
        report["attribution"] = _attribution(tracer, traced)
        report["spans"] = len(tracer.spans)
        if out_dir is not None:
            _write_spans(tracer, out_dir / f"{workload}-seed{seed}.spans.json")
        report["end_to_end"] = metrics
        metrics = per_layer(tracer, traced, metrics["models_per_s"][0])
    report["fail_ratio"] = len(tally.failures) / tally.attempted
    report["metrics"] = metrics
    return metrics, tally, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=BUILDERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        metrics, tally, report = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir, OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["failures"] = tally.failures
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    for key in ("workload", "seed", "trace", "python", "implementation", "nproc",
                "rounds", "models", "result_digest", "fail_ratio", "model_s.p90",
                "setup_s.median", "spans"):
        if key in report:
            print(f"{key}: {report[key]}")
    for line in report.get("attribution", []):
        print(line)
    for name, (value, unit) in report.get("end_to_end", {}).items():
        print(f"untraced {name}: {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for failure in tally.failures:
        print("FAIL:", failure, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if tally.failures else 0

if __name__ == "__main__":
    sys.exit(main())
