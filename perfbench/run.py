#!/usr/bin/env python3
"""The loclab benchmark: three workloads, run end to end through the
commands users run, with their outputs checked.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It builds bin/loclab.exe and
perfbench/harness.exe with dune, runs the workload for --seconds, checks
the outputs, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ledger.  The line before it is a
JSON "meta" record: machine, source revision, scales and jobs.
Scratch files live in _perfbench_work/ and are removed on success.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_NAME = "_perfbench_work"
WORK = os.path.join(ROOT, WORK_NAME)
LOCLAB = os.path.join(ROOT, "_build", "default", "bin", "loclab.exe")
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")

# Workload inputs (README.md, "Workloads").  The ones the harness needs
# too (scales, the serve mix, the ledger) are defined in harness.ml and
# read from `harness.exe info` as `cfg`.
IMPORT_CELL = ("gs-large", "quickfit", 0.04)
IMPORT_JOBS = 2
SETUP_REPEATS = 3
TRACED_SERVE_SECONDS = 3
CHILD_TIMEOUT_S = 150

# Children see no LOCLAB_* variable: every knob is a flag here.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("LOCLAB_")}


class BenchError(Exception):
    """The benchmark itself could not run (not a program fault)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def work(name):
    return os.path.join(WORK, name)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(argv, out=None, timeout=CHILD_TIMEOUT_S):
    """Run argv from the checkout root to completion.

    Returns (seconds, peak RSS in MB, exit code); stdout goes to the
    file `out` (or is discarded), stderr to _perfbench_work/stderr.log.
    """
    with open(out or os.devnull, "wb") as fout, open(work("stderr.log"), "ab") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, cwd=ROOT, env=ENV)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def harness(*argv):
    """Run a harness subcommand; return its JSON answer."""
    out = work("harness.json")
    _, _, code = run([HARNESS, *argv], out=out)
    with open(out, "rb") as f:
        text = f.read().decode()
    if code != 0 or not text.strip():
        raise BenchError(f"harness {argv[0]} exited {code}: {text[-500:]}")
    return json.loads(text.strip().splitlines()[-1])


def read(path):
    with open(path, "rb") as f:
        return f.read()


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


class Server:
    """A `loclab serve` process over a store, on a unix socket named
    relative to the checkout root (absolute paths can exceed the
    socket-path limit)."""

    SOCKET = os.path.join(WORK_NAME, "serve.sock")
    addr = "unix:" + SOCKET

    def __init__(self, store):
        errf = open(work("stderr.log"), "ab")
        self.proc = subprocess.Popen(
            [LOCLAB, "serve", "--listen", "unix:" + self.SOCKET, "--store", store],
            stdout=subprocess.PIPE, stderr=errf, cwd=ROOT, env=ENV)
        errf.close()
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on"):
            self.stop()
            raise BenchError(f"loclab serve did not start: {line!r}")

    def stop(self):
        """SIGINT (graceful drain) and wait; returns (exit code, peak RSS MB)."""
        if self.proc is None:
            return 0, 0.0
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGINT)
        killer = threading.Timer(30, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return proc.returncode, usage.ru_maxrss / 1024.0


# ---- workloads -----------------------------------------------------------
#
# Every workload reports the same five end-to-end metrics, each in its
# own terms (README.md, "End-to-end metrics"): set-up time, the
# program's peak RSS, the median cold and warm operation, and the mean
# warm operation (which the slow tail moves).


def summarize(setups, rss, cold, warm):
    return {"setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "cold_ms": statistics.median(cold) * 1e3,
            "warm_ms": statistics.median(warm) * 1e3,
            "warm_mean_ms": statistics.mean(warm) * 1e3}


def reproduce(seed, seconds, cfg):
    """Every table and figure cold (`loclab all --store`, empty store),
    then warm in a fresh process (`loclab report`) over that store."""
    jobs = str(cores())
    scale = repr(cfg["reproduce_scale"])
    # Set-up: program start-up, which also lists the experiments whose
    # sections the output must hold.
    setups = []
    for _ in range(20):
        dt, _, code = run([LOCLAB, "list"], out=work("list.txt"))
        if code != 0:
            raise BenchError("loclab list failed")
        setups.append(dt)
    listing = read(work("list.txt")).decode().split("\n\n")[0]
    ids = re.findall(r"^  (\S+)", listing, re.M)
    errors, cold, warm, rss = [], [], [], []
    attempted = failed = 0
    t_start = time.monotonic()
    while not cold or time.monotonic() - t_start < seconds:
        r = len(cold)
        store = fresh(work(f"reproduce-store-{r}"))
        outs = [work(f"reproduce-{half}-{r}.txt") for half in ("cold", "warm")]
        flags = ["--store", store, "--scale", scale, "--jobs", jobs]
        dc, rc, xc = run([LOCLAB, "all", *flags], out=outs[0])
        dw, rw, xw = run([LOCLAB, "report", *flags], out=outs[1])
        attempted += 2
        failed += (xc != 0) + (xw != 0)
        cold.append(dc)
        warm.append(dw)
        rss.append(max(rc, rw))
        # Untimed checks: warm = cold byte for byte, every experiment
        # present, and every round identical to the first.
        text = read(outs[0])
        if text != read(outs[1]):
            errors.append(f"round {r}: warm report differs from cold output")
        missing = [i for i in ids if f"================ {i} ================".encode() not in text]
        if missing or not ids:
            errors.append(f"round {r}: output lacks experiments {missing}")
        if r > 0:
            if text != read(work("reproduce-cold-0.txt")):
                errors.append(f"round {r}: output differs from round 0")
            shutil.rmtree(store)
    check = harness("check-reproduce", "--store", work("reproduce-store-0"),
                    "--seed", str(seed))
    errors += check["errors"]
    details = {"rounds": len(cold), "experiments": len(ids), "cold_s": cold, "warm_s": warm,
               "artifacts_checked": check["artifacts_checked"],
               "oracle_cell": check["oracle_cell"],
               "oracle_events": check["oracle_events"]}
    metrics = summarize(setups, statistics.median(rss), cold, warm)
    return metrics, attempted, failed, errors, details


def serve_setup(cfg):
    """Fill a store with the warm cells and start `loclab serve` on it at
    its default --jobs.  Returns (seconds, store, server)."""
    t0 = time.perf_counter()
    store = fresh(work("serve-store"))
    _, _, code = run([LOCLAB, "run", cfg["serve_warm_experiment"], "--store", store,
                      "--scale", repr(cfg["serve_warm_scale"]), "--jobs", str(cores())])
    if code != 0:
        raise BenchError("serve set-up: store fill failed")
    server = Server(store)
    return time.perf_counter() - t0, store, server


def serve_session(seed, seconds, repeats, cfg):
    setups = []
    server = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            dt, store, server = serve_setup(cfg)
            setups.append(dt)
        res = harness("serve-load", "--addr", Server.addr, "--seconds", str(seconds),
                      "--seed", str(seed), "--store", store)
    finally:
        code, rss = server.stop() if server is not None else (0, 0.0)
    if code != 0:
        res["errors"].append(f"loclab serve exited {code} after SIGINT")
    return setups, rss, res


def serve_mixed(seed, seconds, cfg):
    """A closed loop of 2 connections against `loclab serve`: 19 warm
    Run_cells over the paper grid, then one cold equal-work cell."""
    setups, rss, res = serve_session(seed, seconds, SETUP_REPEATS, cfg)
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": rss,
               "cold_ms": res["cold_p50_ms"],
               "warm_ms": res["warm_p50_us"] / 1e3,
               "warm_mean_ms": res["warm_mean_us"] / 1e3}
    details = {k: res[k] for k in
               ("req_per_s", "warm_requests", "cold_requests", "wall_s", "warm_p99_us")}
    return metrics, res["attempted"], res["failed"], res["errors"], details


def parse_import(path):
    text = read(path).decode()
    digest = re.search(r"^digest (\S+)", text, re.M)
    events = re.search(r"([\d,]+) events\)", text)
    if not digest or not events:
        return None
    return digest.group(1), int(events.group(1).replace(",", ""))


def trace_import(seed, seconds, cfg):
    """`loclab trace import --jobs 2` of one recorded capture, as text and
    as binary, each into an empty store (cold), then again into the
    store it filled (warm: answered from the store)."""
    program, allocator, scale = IMPORT_CELL
    # The seed moves every address by a multiple of 16 MB: a new capture
    # with the same cache sets, pages and text length, so the same work.
    offset = (4096 + abs(seed) % 4096) << 24
    recorded = work("recorded.bin")
    captures = {"text": work("capture.txt"), "binary": work("capture.bin")}
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _, _, code = run([LOCLAB, "record", "--program", program, "--allocator", allocator,
                          "--scale", repr(scale), "-o", recorded])
        if code != 0:
            raise BenchError("trace-import set-up: loclab record failed")
        harness("shift-capture", "--in", recorded, "--offset", str(offset),
                "--binary", captures["binary"], "--text", captures["text"])
        setups.append(time.perf_counter() - t0)
    errors, cold, warm, rss, first = [], [], [], [], {}
    attempted = failed = 0
    t_start = time.monotonic()
    while not cold or time.monotonic() - t_start < seconds:
        r = len(cold)
        times = {"cold": 0.0, "warm": 0.0}
        peak = 0.0
        for fmt in ("text", "binary"):
            store = fresh(work(f"import-{fmt}-store-{r}"))
            for half in ("cold", "warm"):
                out = work(f"import-{fmt}-{half}-{r}.txt")
                dt, m, code = run([LOCLAB, "trace", "import", "--jobs", str(IMPORT_JOBS),
                                   "--store", store, "--format", fmt, captures[fmt]], out=out)
                attempted += 1
                times[half] += dt
                peak = max(peak, m)
                # A warm import answers from the store: it must leave
                # every cell file the cold import wrote untouched.
                inodes = {f: os.stat(os.path.join(store, f)).st_ino for f in os.listdir(store)}
                if half == "cold":
                    cold_inodes = inodes
                elif inodes != cold_inodes:
                    errors.append(f"round {r}: warm {fmt} import rewrote the store")
                parsed = parse_import(out) if code == 0 else None
                if parsed is None:
                    failed += 1
                    continue
                if half == "cold" and r == 0:
                    first[fmt] = (store, *parsed)
                if fmt in first and parsed != first[fmt][1:]:
                    errors.append(f"round {r}: {half} {fmt} import differs from round 0")
            if r > 0:
                shutil.rmtree(store)
        cold.append(times["cold"])
        warm.append(times["warm"])
        rss.append(peak)
    if len(first) == 2:
        argv = ["check-import"]
        for fmt, (store, digest, events) in first.items():
            argv += [f"--{fmt}-file", captures[fmt], f"--{fmt}-store", store,
                     f"--{fmt}-digest", digest, f"--{fmt}-events", str(events)]
        errors += harness(*argv)["errors"]
    else:
        errors.append("no complete import round to check")
    events = sum(v[2] for v in first.values())
    details = {"rounds": len(cold), "capture_offset": offset,
               "cold_s": cold, "warm_s": warm, "rss": rss,
               "capture_events": {f: v[2] for f, v in first.items()},
               "import_events_per_s": events / statistics.median(cold) if events else 0}
    metrics = summarize(setups, statistics.median(rss), cold, warm)
    return metrics, attempted, failed, errors, details


WORKLOADS = {"reproduce": reproduce, "serve-mixed": serve_mixed,
             "trace-import": trace_import}


def traced(workload, seed, seconds, cfg):
    """The per-layer ledger, plus the serve stages from /status after a
    serve-mixed session (the workload's own when it is serve-mixed).
    It does not run reproduce or trace-import end to end: the ledger
    times the layers those workloads load, on cells of its own."""
    ledger = harness("ledger", "--work", WORK)
    session = seconds if workload == "serve-mixed" else TRACED_SERVE_SECONDS
    repeats = SETUP_REPEATS if workload == "serve-mixed" else 1
    _, _, res = serve_session(seed, session, repeats, cfg)
    metrics = dict(ledger["metrics"])
    for key, value in res["stages"].items():
        metrics["serve." + key] = value
    errors = ledger["errors"] + res["errors"]
    details = {"timer_cost_ns": ledger["timer_cost_ns"], "ledger_cells": ledger["cells"]}
    return metrics, res["attempted"], res["failed"], errors, details


# ---- meta and output -----------------------------------------------------


def source_revision():
    """The git revision when there is one, and always a hash of the
    sources the program is built from."""
    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            h.update(read(p))
    return rev, h.hexdigest()[:16]


def steal_jiffies():
    """Hypervisor steal time of the whole machine, in clock ticks (the
    8th field of /proc/stat's cpu line); None where it is not exposed."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from a loclab checkout")
    code = subprocess.run(["dune", "build", "--root", ROOT, "./bin/loclab.exe",
                           "./perfbench/harness.exe"],
                          cwd=ROOT, stdout=sys.stderr, env=ENV).returncode
    if code != 0:
        raise BenchError(f"dune build failed ({code})")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        units = declared(args.trace)
        fresh(WORK)
        os.makedirs(WORK)
        info = harness("info")
        cfg = info["config"]
        steal0, t0 = steal_jiffies(), time.monotonic()
        if args.trace:
            metrics, attempted, failed, errors, details = traced(
                args.workload, args.seed, args.seconds, cfg)
        else:
            metrics, attempted, failed, errors, details = WORKLOADS[args.workload](
                args.seed, args.seconds, cfg)
        steal1, t1 = steal_jiffies(), time.monotonic()
        # The share of the machine's CPU time the hypervisor took away
        # during the run: the first thing to look at when a run is slow.
        ticks = os.sysconf("SC_CLK_TCK") * (t1 - t0) * (os.cpu_count() or 1)
        steal_share = (None if steal0 is None or steal1 is None
                       else (steal1 - steal0) / ticks)
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "do not match BENCHMARK.json")
        rev, src = source_revision()
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "nproc": cores(),
                "recommended_domain_count": info["recommended_domain_count"],
                "artifact_schema_version": info["artifact_schema_version"],
                "git_rev": rev, "source_sha256": src, "steal_share": steal_share,
                "config": {**cfg, "import_cell": "/".join(IMPORT_CELL[:2]),
                           "import_scale": IMPORT_CELL[2]},
                "jobs": {"reproduce": cores(), "serve": "default (1)",
                         "trace_import": IMPORT_JOBS},
                **details}
        for e in errors:
            log("CHECK FAILED: " + e)
        print(json.dumps({"meta": meta}))
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
        }), flush=True)
        shutil.rmtree(WORK, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
