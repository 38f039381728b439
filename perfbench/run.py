"""arrowbench end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload patterns --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each

`run.py` is a closed loop with one client: it starts one worker process
at a time (`worker.py`), each running one CLI decision or one `verify` in
a fresh interpreter, exactly as a user's shell would.  A pass decides every
serial decision of the workload and verifies each certificate in a new
worker; passes repeat while the next decision fits into `--seconds`.

`--trace 0` prints the end-to-end metrics: `decide_ref_s`, `verify_ref_s`
and `setup_s` are CPU times scaled to a reference speed (see `timed_run`),
`peak_rss_mb` is memory; the wall times follow in the table.  `--trace 1`
runs every decision, the workload's `--parallel 2` twins too, untraced and
then traced, then a cache replay probe of the serial decisions, and prints
the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a run record with the
machine, versions and per-decision times is written to
`.perfbench/records/`, spans of traced runs to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads
from inputs import input_names, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# CPU seconds of one calibration loop (worker.py) at the reference speed:
# about what it takes on a 2 GHz Xeon vCPU with Python 3.11
REFERENCE_CAL_S = 0.004


class Op:
    """One finished worker: an operation plus its measurements."""

    def __init__(self, phase, decision, result, error):
        self.phase = phase          # decide | verify | probe
        self.decision = decision
        self.result = result or {}
        self.error = error          # None when the operation passed its checks

    @property
    def setup_s(self):
        return self.result.get("setup_s")

    @property
    def wall_s(self):
        return self.result.get("wall_s", 0.0)

    @property
    def ref_s(self):
        """CPU time of `cli.main` at the reference speed (see timed_run)."""
        return self.result["cpu_s"] * REFERENCE_CAL_S / self.result["cal_cpu_s"]

    @property
    def setup_ref_s(self):
        return self.result["setup_cpu_s"] * REFERENCE_CAL_S / self.result["cal_cpu_s"]

    @property
    def stdout(self):
        return self.result.get("stdout", "")


class Runner:
    def __init__(self, root, workload, seed, trace_dir=None):
        self.root = root
        self.decisions = workloads.WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = os.path.join(root, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
        self.inputs = {}
        self.trace_dir = trace_dir
        self.ops: list[Op] = []
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("ARROWBENCH_") and k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # fixed string hashing: set iteration order, hence search order and
        # timing, must not vary between runs of one seed
        self.env["PYTHONHASHSEED"] = "0"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def resolve(self, argv):
        return [self.inputs[t[1:]] if t.startswith("@") else t for t in argv]

    def spawn(self, phase, decision, argv, trace=None):
        name = f"{phase}-{decision.id}"
        input_paths = [self.inputs[n] for n in input_names([decision])]
        job = {"argv": argv, "inputs": input_paths, "name": name, "trace": trace,
               "trace_dir": self.trace_dir if trace == "full" else None,
               "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            op = Op(phase, decision, None, "timed out")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        else:
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                op = Op(phase, decision, None,
                        f"worker failed (exit {proc.returncode}): {err.strip()[-500:]}")
            else:
                op = Op(phase, decision, json.loads(lines[-1]), None)
        self.ops.append(op)
        return op

    def decide(self, decision, phase="decide", trace=None, cache_dir=None):
        cert = os.path.join(self.work, f"{decision.id}.cert")
        flags = ["--json", "--certificate", cert]
        flags += ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
        argv = self.resolve(decision.argv) + flags
        op = self.spawn(phase, decision, argv, trace)
        if op.error is None:
            op.error = check_decision(decision, op.result)
        return op, cert

    def verify(self, decision, cert, trace=None):
        argv = self.resolve(decision.verify_argv(cert))
        op = self.spawn("verify", decision, argv, trace)
        if op.error is None and (op.result["rc"] != 0
                                 or op.stdout.strip() != "verified: true"):
            op.error = f"verify: exit {op.result['rc']}, output {op.stdout.strip()!r}"
        return op

    def draw_inputs(self, draw):
        """Write the run's `draw`-th relabeling of the inputs and use it."""
        directory = os.path.join(self.work, f"inputs-{draw}")
        self.inputs = write_inputs(self.decisions, f"{self.seed}/{draw}", directory)

    def run_decision(self, d, trace=None):
        """Decide, then verify the certificate, each in its own worker."""
        op, cert = self.decide(d, trace=trace)
        if op.error is None and d.verifiable:
            return [op, self.verify(d, cert, trace=trace)]
        return [op]

    def out_of_time(self, needed):
        return time.monotonic() + needed > self.deadline


def _lookup(doc, dotted):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def check_decision(decision, result) -> str | None:
    """Why the decision's outcome is wrong, or None when it is right."""
    if result.get("error"):
        return "uncaught exception: " + result["error"].strip().splitlines()[-1]
    if result["rc"] != decision.rc:
        return f"exit {result['rc']}, expected {decision.rc}: {result['stderr'].strip()}"
    try:
        doc = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "report is not JSON"
    if doc.get("operation") != decision.command or doc.get("verdict") != decision.verdict:
        return (f"{doc.get('operation')}: verdict {doc.get('verdict')!r}, "
                f"expected {decision.verdict!r}")
    for path, want in decision.invariants.items():
        try:
            got = _lookup(doc, path)
        except (KeyError, TypeError):
            return f"report lacks {path}"
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and abs(got - want) <= workloads.VALUE_TOL
        else:
            ok = got == want
        if not ok:
            return f"{path} = {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(runner, seconds):
    """Passes over the serial decisions while the next decision fits;
    end-to-end metrics.

    Each pass draws its own relabeling of the inputs, so every run checks
    several labelings.  The workloads keep only decisions whose time does
    not hang on the labeling (see workloads.py).  The last pass may stop
    part way: a decision runs again only while its last decide and verify
    still fit into the run, so the whole run is measured.

    Times are CPU seconds at a reference speed.  A shared virtual machine
    loses wall time to the hypervisor and to other processes, and runs
    whole stretches up to twice as slow as others; CPU time leaves out the
    first two, and scaling each operation's CPU time by the speed of a
    fixed calibration loop timed in the same worker, just before and after
    it (`REFERENCE_CAL_S / cal_cpu_s`), takes out most of the third.  The
    wall times a user would wait are in the table and the run record.
    """
    start = time.monotonic()
    took = {}  # decision id -> seconds its last decide and verify took
    ops, draws = [], 0
    serial = [d for d in runner.decisions if not d.parallel]
    while True:
        runner.draw_inputs(draws)
        draws += 1
        for d in serial:
            need = took.get(d.id)
            if need is not None and (time.monotonic() - start + need > seconds
                                     or runner.out_of_time(2 * need)):
                break
            t0 = time.monotonic()
            ops += runner.run_decision(d)
            took[d.id] = time.monotonic() - t0
        else:
            continue
        break
    ok = [op for op in ops if "cal_cpu_s" in op.result]
    metrics = {
        "decide_ref_s": _sum_of_means(ok, "decide", "ref_s"),
        "verify_ref_s": _sum_of_means(ok, "verify", "ref_s"),
        "setup_s": statistics.median(op.setup_ref_s for op in ok) if ok else 0.0,
        "peak_rss_mb": max((op.result.get("maxrss_kb", 0) for op in ops), default=0) / 1024,
    }
    info = {"passes": draws,
            "decide_wall_s": _sum_of_means(ok, "decide", "wall_s"),
            "verify_wall_s": _sum_of_means(ok, "verify", "wall_s"),
            "setup_wall_s": statistics.median(op.setup_s for op in ok) if ok else 0.0}
    return metrics, info


def _sum_of_means(ops, phase, attr):
    """Sum over decisions of each one's mean `attr` over the run's passes."""
    values = {}
    for op in ops:
        if op.phase == phase:
            values.setdefault(op.decision.id, []).append(getattr(op, attr))
    return sum(statistics.fmean(v) for v in values.values())


def _phase_sum(ops, phase):
    return sum(op.wall_s for op in ops if op.phase == phase)


def traced_run(runner):
    """Each decision untraced and then traced, side by side so that both
    see the machine in the same state, then the cache replay probe; one
    draw of the inputs throughout.  Per-layer metrics."""
    runner.draw_inputs(0)
    plain, traced = [], []
    for d in runner.decisions:
        plain += runner.run_decision(d)
        traced += runner.run_decision(d, trace="full")
    reference = {(op.phase, op.decision.id): op.stdout for op in plain if op.error is None}
    for op in traced:
        if op.error is None and op.stdout != reference.get((op.phase, op.decision.id)):
            op.error = "traced report differs from the untraced report"

    cache_dir = os.path.join(runner.work, "cache")
    stale = 0
    probe = []
    for d in (d for d in runner.decisions if not d.parallel):
        op, _ = runner.decide(d, phase="probe", trace="cache", cache_dir=cache_dir)
        probe.append(op)
        if op.result and op.stdout != reference.get(("decide", d.id)):
            stale += 1

    layers = _sum_traces(op for op in traced if "trace" in op.result)
    cache = _sum_traces(op for op in probe if "trace" in op.result)
    decide_plain = _phase_sum(plain, "decide")
    par_plain = [op for op in plain if op.decision.parallel]
    metrics = layer_metrics(layers)
    metrics.update({
        "cache.lookup.calls": cache["calls"].get("cache.lookup", 0),
        "cache.hits": cache["counters"].get("cache.hits", 0),
        "cache.stale_hits": stale,
        "cache.lookup_s": cache["total_s"].get("cache.lookup", 0.0),
        "cache.store_s": cache["total_s"].get("cache.store", 0.0),
        "parallel2.wall_s": _phase_sum(par_plain, "decide") + _phase_sum(par_plain, "verify"),
        "proc.cpu_util": _ratio(sum(op.result.get("cpu_s", 0.0) for op in par_plain
                                    if op.phase == "decide"), _phase_sum(par_plain, "decide")),
        "trace.overhead_ratio": _ratio(_phase_sum(traced, "decide"), decide_plain),
    })
    return metrics, {"spans": sum(op.result.get("spans", 0) for op in traced),
                     "spans_dir": os.path.relpath(runner.trace_dir, runner.root)}


def _sum_traces(ops):
    total = {"calls": {}, "total_s": {}, "self_s": {}, "counters": {}}
    for op in ops:
        for part, values in op.result["trace"].items():
            for k, v in values.items():
                total[part][k] = total[part].get(k, 0) + v
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t) -> dict:
    calls, self_s, total_s, cnt = t["calls"], t["self_s"], t["total_s"], t["counters"]

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    canon = "structures.canonical_labeling"
    kern = ("kernels.embeddings_binary", "kernels.embeddings_generic")
    return {
        "structures.canonical_labeling.calls": n(canon),
        "structures.canonical_labeling.self_s": own(canon),
        "structures.canon_cache.hit_ratio": _ratio(cnt.get("canon.seen", 0), n(canon)),
        "structures.Structure.count": cnt.get("structures.Structure.__post_init__.calls", 0),
        "structures.Structure.init_s": cnt.get("structures.Structure.__post_init__.s", 0.0),
        "kernels.calls": n(*kern),
        "kernels.self_s": own(*kern),
        "kernels.maps_out": cnt.get("kernels.maps_out", 0),
        "patterns.pair_pattern_code.calls": n("patterns.pair_pattern_code"),
        "patterns.pair_pattern_code.self_s": own("patterns.pair_pattern_code"),
        "patterns.joint_embeddings.self_s": own("patterns.joint_embeddings"),
        "patterns.patterns_found": cnt.get("patterns.patterns_found", 0),
        "unions.place_part.calls": n("unions.place_part"),
        "unions.place_part.yields": cnt.get("unions.place_part.yields", 0),
        "unions.place_part.self_s": own("unions.place_part"),
        "unions.budget.nodes": cnt.get("budget.nodes", 0),
        "ages.member.calls": n("ages.member"),
        "ages.member.accept_ratio": _ratio(cnt.get("ages.member.accepted", 0),
                                           n("ages.member")),
        "ages.member.self_s": own("ages.member"),
        "ages.enumerate_structures.self_s": own("ages.enumerate_structures"),
        "ages.enumerate.canon_calls_per_type": _ratio(cnt.get("enumerate.canon_calls", 0),
                                                      cnt.get("enumerate.types", 0)),
        "groups.automorphisms.calls": n("groups.automorphisms"),
        "groups.automorphisms.s": total_s.get("groups.automorphisms", 0.0),
        "groups.aut_order_sum": cnt.get("groups.aut_order_sum", 0),
        "arrows.classical_arrow.self_s": own("arrows.classical_arrow"),
        "arrows.classical.nodes": cnt.get("budget.nodes:classical_arrow", 0),
        "arrows.convex_arrow.self_s": own("arrows.convex_arrow"),
        "arrows.linprog.calls": n("arrows.linprog"),
        "arrows.linprog.s": total_s.get("arrows.linprog", 0.0),
        "arrows.linprog.rows": cnt.get("arrows.linprog.rows", 0),
        "stability.nodes": cnt.get("budget.nodes:stability pair search", 0),
        "stability.pattern_pairs": cnt.get("budget.created:stability pair search", 0),
        "stability.self_s": own("stability.stable_up_to", "stability.unstable_witness"),
        "certificates.verify.self_s": own("certificates.verify_certificate"),
        "certificates.verify.reruns": cnt.get("verify.reruns", 0),
        "cli.self_s": own("cli.main"),
    }


# ---------------------------------------------------------------------------
# run record and output


def _units(root, names):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
            if m["name"] in names}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "arrowbench")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_record(root, runner, trace, metrics, info):
    per_decision = {}
    for d in runner.decisions:
        for phase in ("decide", "verify"):
            ops = [op for op in runner.ops if op.decision is d and op.phase == phase
                   and op.error is None and "cal_cpu_s" in op.result]
            if ops:
                walls = [op.wall_s for op in ops]
                per_decision.setdefault(d.id, {}).update({
                    phase + "_s": statistics.median(walls),
                    phase + "_walls_s": walls,
                    phase + "_cpus_s": [op.result["cpu_s"] for op in ops],
                    phase + "_refs_s": [op.ref_s for op in ops]})
    backend = next((op.result["backend"] for op in runner.ops if "backend" in op.result), None)
    return {
        "workload": runner.workload, "seed": runner.seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "kernel_backend": backend,
        "git_commit": _git_commit(root), "src_sha256": _src_digest(root),
        "metrics": metrics, **info,
        "why": {d.id: d.why for d in runner.decisions},
        "decisions": per_decision,
        "failures": [{"phase": op.phase, "decision": op.decision.id, "error": op.error}
                     for op in runner.ops if op.error is not None],
    }


def run_workload(root, workload, seed, seconds, trace):
    trace_dir = None
    if trace:
        trace_dir = os.path.join(root, ".perfbench", "traces", f"{workload}-seed{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    runner = Runner(root, workload, seed, trace_dir)
    try:
        metrics, info = traced_run(runner) if trace else timed_run(runner, seconds)
    finally:
        runner.close()
    attempted = len(runner.ops)
    failed = sum(op.error is not None for op in runner.ops)
    record = run_record(root, runner, trace, metrics, info)
    record["fail_ratio"] = failed / attempted
    records = os.path.join(root, ".perfbench", "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    units = _units(root, metrics)
    for f in record["failures"]:
        print(f"FAILED {f['phase']} {f['decision']}: {f['error']}", file=sys.stderr)
    print(f"# {workload} seed {seed} trace {trace}: record {os.path.relpath(path, root)}")
    for name, value in metrics.items():
        print(f"{workload:10s} {name:40s} {value:14.6f} {units.get(name, '')}")
    for name, value in info.items():
        if name.endswith("_s"):
            print(f"{workload:10s} {name:40s} {value:14.6f} s (wall)")
    print(f"{workload:10s} {'fail_ratio':40s} {failed / attempted:14.6f} 1")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                        if k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # turn SIGTERM into SystemExit, so that a running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arrowbench", "cli.py")):
        print("error: run from the root of an arrowbench checkout (src/arrowbench missing)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(root, w, args.seed, args.seconds, args.trace) for w in names}
    last = results[args.workload] if args.workload != "all" else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
