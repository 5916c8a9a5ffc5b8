#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload serve_certified --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
it is the host stanza. `--out FILE` also writes the result, the host
stanza and (traced runs) the traced end-to-end figures to FILE.

Compare two saved results (refused when their host stanzas differ):

    python3 perfbench/run.py compare BASE.json NEW.json

Measure the tracing overhead on each end-to-end metric:

    python3 perfbench/run.py overhead --workload replay_audit --seed 1 --seconds 20
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_certified", "serve_contended", "replay_audit")
PROFILE = "release"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_stanza():
    """What a result depends on besides the code: results are only
    comparable when these agree."""
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, check=False
    ).stdout.strip()
    return {
        "hardware_threads": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": rustc or "unknown",
        "profile": PROFILE,
    }


def build():
    """Builds the benchmark binary from source; returns its path, or None
    when the build fails (for instance outside a full checkout)."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    binary = os.path.join(target, PROFILE, "mla-perfbench")
    if done.returncode != 0 or not os.path.isfile(binary):
        return None
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (result, traced end-to-end, other lines),
    or None when it fails. The peak RSS is the child's own high-water
    mark, read from its resource usage when it exits."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    stdout = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    traced = None
    other = []
    for line in lines[:-1]:
        if line.startswith("traced end-to-end: "):
            traced = json.loads(line[len("traced end-to-end: "):])
        else:
            other.append(line)
    peak = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}  # ru_maxrss is KiB
    if trace:
        traced["peak_rss_mb"] = peak
    else:
        result["metrics"]["peak_rss_mb"] = peak
    return result, traced, other


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--out", help="also write the result and host stanza here")
    a = p.parse_args(argv)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    got = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
    if got is None:
        print("perfbench: benchmark binary failed", file=sys.stderr)
        return 1
    result, traced, other = got
    host = host_stanza()
    for line in other:
        print(line)
    if traced is not None:
        print("traced end-to-end: " + json.dumps(traced))
    print("host: " + json.dumps(host))
    if a.out:
        with open(a.out, "w", encoding="utf-8") as f:
            json.dump({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                       "trace": a.trace, "host": host, "result": result,
                       "traced_end_to_end": traced}, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def change(metric, base, new):
    """Relative change, signed so that positive is worse."""
    if base == 0:
        return 0.0
    rel = (new - base) / base
    return rel if metric.get("better", "lower") == "lower" else -rel


def compare(base, new):
    """Per-metric comparison of two saved results; raises ValueError when
    the host stanzas differ."""
    if base["host"] != new["host"]:
        raise ValueError("host stanzas differ: %s vs %s" % (base["host"], new["host"]))
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        raise ValueError("different workloads or trace modes")
    spec = bounds() if base["trace"] == 0 else {}
    rows = []
    for name, m in base["result"]["metrics"].items():
        if name not in new["result"]["metrics"]:
            continue
        b, n = m["value"], new["result"]["metrics"][name]["value"]
        meta = spec.get(name, {})
        worse = change(meta, b, n)
        bound = meta.get("bound")
        rows.append((name, b, n, worse, bound is not None and worse > bound))
    return rows


def cmd_compare(argv):
    p = argparse.ArgumentParser(description="Compare two saved results.")
    p.add_argument("base")
    p.add_argument("new")
    a = p.parse_args(argv)
    with open(a.base, encoding="utf-8") as f:
        base = json.load(f)
    with open(a.new, encoding="utf-8") as f:
        new = json.load(f)
    try:
        rows = compare(base, new)
    except ValueError as e:
        print("perfbench: refusing to compare: %s" % e, file=sys.stderr)
        return 2
    regressed = False
    for name, b, n, worse, over in rows:
        print("%-24s %14.6g -> %14.6g  %+7.1f%% worse%s"
              % (name, b, n, 100 * worse, "  OVER BOUND" if over else ""))
        regressed |= over
    return 1 if regressed else 0


def cmd_overhead(argv):
    p = argparse.ArgumentParser(description="Tracing overhead per end-to-end metric.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    a = p.parse_args(argv)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    plain = run_once(binary, a.workload, a.seed, a.seconds, 0)
    traced = run_once(binary, a.workload, a.seed, a.seconds, 1)
    if plain is None or traced is None:
        print("perfbench: benchmark binary failed", file=sys.stderr)
        return 1
    spec = bounds()
    for name, m in plain[0]["metrics"].items():
        t = traced[1][name]["value"]
        print("%-24s untraced %14.6g  traced %14.6g  overhead %+7.1f%%"
              % (name, m["value"], t, 100 * change(spec.get(name, {}), m["value"], t)))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "overhead":
        return cmd_overhead(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
