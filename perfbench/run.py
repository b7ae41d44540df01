#!/usr/bin/env python3
"""File-to-verdict benchmark of `ftrace analyze`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grande --seed 1 --seconds 20 --trace 0

It builds `ftrace` and the helper `perfbench/pb.exe`, lets the helper
generate the workload's trace files from the seed (the set-up), and then
drives `ftrace analyze FILE` as a closed loop with one client: the next
request starts only after the previous process has exited.  Every
verdict is checked against a reference that never comes from FastTrack.

With `--trace 1` the run also repeats each request in-process through
the same library calls the CLI makes, with spans around each layer, and
reports the per-layer metrics.  It prints every metric with its median,
quartiles and sample count, and as its last line one JSON object.
"""

import argparse
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

WORKLOADS = ("grande", "eclipse-triage", "threads128")
SETUP_REPS = 3
REQUEST_TIMEOUT_S = 60
WORK_DIR = os.path.join("perfbench", "_work")
FTRACE = os.path.join("_build", "default", "bin", "ftrace.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")

# name -> unit; BENCHMARK.json lists the same names (checked by test_run.py).
END_TO_END = {
    "events_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_s_per_mevent": "s/Mevent",
    "setup_s": "s",
}
# name -> (unit, the end-to-end metric it should move @ the workload
# where it should move most).
PER_LAYER = {
    "trace.decode_ns_per_event":
        ("ns/event", "events_per_s, latency_p50_ms @ grande, then eclipse-triage"),
    "trace.decode_alloc_words_per_event":
        ("words/event", "peak_rss_mb, events_per_s @ grande"),
    "trace.encode_ns_per_event": ("ns/event", "setup_s @ every workload"),
    "trace.gen_ns_per_event": ("ns/event", "setup_s @ threads128"),
    "runtime.schedule_ns_per_event":
        ("ns/event", "setup_s @ grande, eclipse-triage"),
    "trace.validity_ns_per_event":
        ("ns/event", "latency_p50_ms once run online @ threads128"),
    "detector.replay_ns_per_event": ("ns/event", "none: the uninstrumented base"),
    "core.detect_ns_per_event": ("ns/event", "events_per_s @ every workload"),
    "core.slowdown": ("ratio", "events_per_s @ every workload"),
    "core.same_epoch_frac": ("ratio", "events_per_s, peak_rss_mb @ threads128"),
    "core.vc_ops_per_kevent": ("ops/kevent", "events_per_s, peak_rss_mb @ threads128"),
    "core.shadow_peak_words_per_event":
        ("words/event", "events_per_s, peak_rss_mb @ threads128"),
    # No timed request runs --jobs 2: two domains on a shared 2-core host
    # measured the scheduler.  The parallel layers are traced probes.
    "parallel.prefix_ns_per_event":
        ("ns/event", "latency_p50_ms of a --jobs 2 request @ threads128"),
    "parallel.run_ns_per_event":
        ("ns/event", "latency_p50_ms of a --jobs 2 request @ threads128"),
    "parallel.prefix_frac":
        ("ratio", "latency_p50_ms of a --jobs 2 request @ threads128"),
    "parallel.imbalance":
        ("ratio", "cpu_s_per_mevent of a --jobs 2 request @ threads128"),
    "parallel.speedup_vs_seq":
        ("ratio", "events_per_s of a --jobs 2 request @ threads128"),
    "parallel.timeline_words_per_event":
        ("words/event", "peak_rss_mb of a --jobs 2 request @ threads128"),
    "parallel.snapshot_hit_frac":
        ("ratio", "peak_rss_mb of a --jobs 2 request @ threads128"),
    "report.build_ms": ("ms", "latency_p50_ms @ eclipse-triage"),
    "obs.export_ms": ("ms", "latency_p50_ms @ eclipse-triage"),
    "obs.overhead_frac": ("ratio", "events_per_s @ eclipse-triage"),
    "cli.residual_frac": ("ratio", "latency_p50_ms @ every workload"),
    "cli.span_coverage_frac": ("ratio", "none: checks the spans cover the request"),
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/ftrace.ml")):
        die("run from the root of an ftrace checkout")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "./bin/ftrace.exe", "./perfbench/pb.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


# ---------------------------------------------------------------- set-up


def read_manifest(path):
    """The helper's manifest: set-up times and, per file, the request
    and its reference verdict."""
    setup_s, files = [], []
    with open(path) as f:
        for line in f:
            cols = line.rstrip("\n").split("\t")
            if cols[0] == "setup_s":
                setup_s.append(float(cols[1]))
            elif cols[0] == "file":
                files.append({
                    "stem": cols[1],
                    "events": int(cols[3]),
                    "count": int(cols[4]),
                    "vars": [] if cols[5] == "-" else sorted(cols[5].split(",")),
                    "argv": [FTRACE] + cols[6].split(" "),
                })
    return setup_s, files


# ------------------------------------------------------------- requests

WARNING_LINE = re.compile(r"^  \S+ race on (\S+) at \[")
HEADER_LINE = re.compile(r"^\S.*: (\d+) events, (\d+) warning\(s\)")


def verdict_ok(expect, exit_code, stdout):
    """Does one `ftrace analyze` run match its reference?  The race
    count, the analysed event count and the exit code must all agree;
    where the reference names the racy variables, so must the warnings."""
    warned = [m.group(1) for m in map(WARNING_LINE.match, stdout.splitlines()) if m]
    header = next(filter(None, map(HEADER_LINE.match, stdout.splitlines())), None)
    if header is None or exit_code != (2 if expect["count"] else 0):
        return False
    if int(header.group(1)) != expect["events"]:
        return False
    if not int(header.group(2)) == len(warned) == expect["count"]:
        return False
    return not expect["vars"] or sorted(warned) == expect["vars"]


def steal_s():
    """Seconds the hypervisor has kept this machine's CPUs from running
    (all CPUs together); 0 where /proc/stat has no such column."""
    try:
        with open("/proc/stat") as f:
            cols = f.readline().split()
        return int(cols[8]) / os.sysconf("SC_CLK_TCK") if len(cols) > 8 else 0.0
    except OSError:
        return 0.0


def run_request(expect, out_path):
    """Spawn one analysing process and reap it with wait4, which gives
    its own peak RSS and CPU time."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, out_path + ".err", flags, 0o644)]
    argv = expect["argv"]
    steal0 = steal_s()
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    watchdog = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    _, status, usage = os.wait4(pid, 0)
    wall = (time.monotonic_ns() - t0) / 1e9
    steal = steal_s() - steal0
    watchdog.cancel()
    with open(out_path) as f:
        stdout = f.read()
    exit_code = os.waitstatus_to_exitcode(status)
    return {
        "stem": expect["stem"],
        "events": expect["events"],
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "steal_s": steal,
        "ok": verdict_ok(expect, exit_code, stdout),
    }


def closed_loop(files, seconds, work):
    """An untimed warm-up pass, then whole passes over the files until
    `seconds` have gone by, so each run measures the same mix of files."""
    def one_pass():
        return [run_request(f, os.path.join(work, f["stem"] + ".out")) for f in files]
    warm_up = one_pass()
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        passes.append(one_pass())
    return warm_up, passes


# -------------------------------------------------------------- metrics


def summary(samples, value=None):
    """(value, median, q1, q3, n) of a sample list; the value defaults
    to the median."""
    med = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    return (med if value is None else value, med, q1, q3, len(samples))


def median_pass(passes, key):
    """The sum over files of each file's median `key`: a pass made of
    every file's median request, so that a slow request from another
    tenant of the machine moves one sample, not the result."""
    by_file = {}
    for r in (r for p in passes for r in p):
        by_file.setdefault(r["stem"], []).append(r[key])
    return sum(statistics.median(v) for v in by_file.values())


def end_to_end(passes, setup_s):
    reqs = [r for p in passes for r in p]
    events = sum(r["events"] for r in passes[0])
    # A pass's events over its requests' summed file-to-exit-code walls.
    per_pass = [sum(r["events"] for r in p) / sum(r["wall_s"] for r in p)
                for p in passes]
    rss = [r["rss_mb"] for r in reqs]
    cpu = [r["cpu_s"] / r["events"] * 1e6 for r in reqs]
    errors = [0.0 if r["ok"] else 1.0 for r in reqs]
    return {
        "events_per_s": summary(per_pass, events / median_pass(passes, "wall_s")),
        "latency_p50_ms": summary([r["wall_s"] * 1e3 for r in reqs]),
        "peak_rss_mb": summary(rss, max(rss)),
        "cpu_s_per_mevent": summary(cpu, median_pass(passes, "cpu_s") / events * 1e6),
        "error_rate": summary(errors, sum(errors) / len(errors)),
        "steal_frac": summary([r["steal_s"] / r["wall_s"] for r in reqs]),
        "setup_s": summary(setup_s),
    }


def read_spans(path):
    """request id -> file, the spans, and request id -> {count: value}."""
    files, spans, counts = {}, [], {}
    with open(path) as f:
        for line in f:
            cols = line.rstrip("\n").split("\t")
            if cols[0] == "request":
                files[int(cols[1])] = cols[2]
            elif cols[0] == "span":
                spans.append({"id": int(cols[1]), "parent": int(cols[2]),
                              "req": int(cols[3]), "name": cols[4],
                              "start": int(cols[5]), "stop": int(cols[6])})
            elif cols[0] == "count":
                counts.setdefault(int(cols[1]), {})[cols[2]] = float(cols[3])
    return files, spans, counts


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered, end = 0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], end), min(c["stop"], s["stop"])
            if hi > lo:
                covered += hi - lo
                end = hi
        result[s["id"]] = s["stop"] - s["start"] - covered
    return result


def per_layer(setup_path, traced_path, latency_by_file):
    _, setup_spans, setup_counts = read_spans(setup_path)
    files, spans, counts = read_spans(traced_path)
    setup_self, own = self_times(setup_spans), self_times(spans)

    def ns_per_event(name, spans_, self_, counts_):
        return [self_[s["id"]] / counts_[s["req"]]["events"]
                for s in spans_ if s["name"] == name]

    def by_req(name):  # request id -> self ns of the span of that name
        return {s["req"]: own[s["id"]] for s in spans if s["name"] == name}

    def ratio(num, den, scale=1.0):
        return [scale * c[num] / c[den] for c in counts.values() if num in c]

    def pair(num, den, f=lambda a, b: a / b):
        a, b = by_req(num), by_req(den)
        return [f(a[r], b[r]) for r in a if r in b]

    requests = [s for s in spans if s["name"] == "request"]
    layer_self = {r["id"]: sum(own[c["id"]] for c in spans if c["parent"] == r["id"])
                  for r in requests}
    samples = {
        "trace.decode_ns_per_event": ns_per_event("trace.decode", spans, own, counts),
        "trace.decode_alloc_words_per_event": ratio("decode_alloc_words", "events"),
        "trace.encode_ns_per_event":
            ns_per_event("trace.encode", setup_spans, setup_self, setup_counts),
        "trace.gen_ns_per_event":
            ns_per_event("trace.gen", setup_spans, setup_self, setup_counts),
        "runtime.schedule_ns_per_event":
            ns_per_event("runtime.schedule", setup_spans, setup_self, setup_counts),
        "trace.validity_ns_per_event": ns_per_event("trace.validity", spans, own, counts),
        "detector.replay_ns_per_event": ns_per_event("detector.replay", spans, own, counts),
        "core.detect_ns_per_event": ns_per_event("core.detect", spans, own, counts),
        "core.slowdown": pair("core.detect", "detector.replay"),
        "core.same_epoch_frac": ratio("same_epoch", "accesses"),
        "core.vc_ops_per_kevent": ratio("vc_ops", "events", 1e3),
        "core.shadow_peak_words_per_event": ratio("peak_words", "events"),
        "parallel.prefix_ns_per_event": ns_per_event("parallel.prefix", spans, own, counts),
        "parallel.run_ns_per_event": ns_per_event("parallel.run", spans, own, counts),
        "parallel.prefix_frac": [c["prefix_frac"] for c in counts.values()],
        "parallel.imbalance": [c["imbalance"] for c in counts.values()],
        "parallel.speedup_vs_seq": pair("core.detect", "parallel.run"),
        "parallel.timeline_words_per_event": ratio("timeline_words", "events"),
        "parallel.snapshot_hit_frac": ratio("snapshot_hits", "checkpoints"),
        "report.build_ms": [own[s["id"]] / 1e6 for s in spans if s["name"] == "report.build"],
        "obs.export_ms": [own[s["id"]] / 1e6 for s in spans if s["name"] == "obs.export"],
        "obs.overhead_frac": pair("core.detect_obs", "core.detect", lambda a, b: a / b - 1),
        "cli.residual_frac": [1 - layer_self[r["id"]] / 1e9
                              / latency_by_file[files[r["req"]]] for r in requests],
        "cli.span_coverage_frac": [layer_self[r["id"]] / (r["stop"] - r["start"])
                                   for r in requests],
    }
    failed = sum(int(c["failed"]) for c in counts.values() if "failed" in c)
    return {name: summary(samples[name]) for name in PER_LAYER}, len(requests), failed


# ----------------------------------------------------------------- main


def print_table(title, table, units, moves=None):
    print(title)
    print("  %-36s %-12s %12s %12s %12s %12s %4s  %s"
          % ("metric", "unit", "value", "median", "q1", "q3", "n",
             "should move" if moves else ""))
    for name, (value, med, q1, q3, n) in table.items():
        print("  %-36s %-12s %12.6g %12.6g %12.6g %12.6g %4d  %s"
              % (name, units[name], value, med, q1, q3, n,
                 moves[name] if moves else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_cmd = [PB, "setup", "--workload", args.workload, "--seed", str(args.seed),
                 "--dir", work, "--reps", "1" if args.trace else str(SETUP_REPS)]
    setup_spans = os.path.join(work, "setup.spans")
    if args.trace:
        setup_cmd += ["--spans", setup_spans]
    if subprocess.run(setup_cmd).returncode != 0:
        die("set-up failed")
    setup_s, files = read_manifest(os.path.join(work, "manifest.tsv"))
    os.sync()  # so write-back of the new files does not run during the timed loop

    warm_up, passes = closed_loop(files, args.seconds, work)
    e2e = end_to_end(passes, setup_s)
    attempted = len(warm_up) + sum(len(p) for p in passes)
    failed = sum(not r["ok"] for p in [warm_up] + passes for r in p)
    units = dict(END_TO_END, error_rate="ratio", steal_frac="ratio")
    print("workload %s, seed %d, %d timed requests in %d passes over %d files"
          % (args.workload, args.seed, attempted - len(warm_up), len(passes),
             len(files)))
    print_table("end to end (tracing off)", e2e, units)
    if not args.trace:
        metrics = {name: e2e[name][0] for name in END_TO_END}
        out_units = END_TO_END
    else:
        traced_spans = os.path.join(work, "traced.spans")
        if subprocess.run([PB, "traced", "--workload", args.workload, "--dir", work,
                           "--seconds", str(args.seconds),
                           "--spans", traced_spans]).returncode != 0:
            die("traced run failed")
        latency = {}
        for r in (r for p in passes for r in p):
            latency.setdefault(r["stem"], []).append(r["wall_s"])
        layers, traced_attempted, traced_failed = per_layer(
            setup_spans, traced_spans,
            {stem: statistics.median(w) for stem, w in latency.items()})
        attempted += traced_attempted
        failed += traced_failed
        out_units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print_table("per layer (traced, in-process)", layers, out_units,
                    {name: moves for name, (_, moves) in PER_LAYER.items()})
        metrics = {name: layers[name][0] for name in PER_LAYER}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": out_units[name]}
                    for name, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
