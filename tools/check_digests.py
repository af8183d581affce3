#!/usr/bin/env python3
"""Checks same-seed run outputs against their pinned values.

Each soak binary already compares a traced run against an untraced run of
the same seed within one process, and perfbench's --trace 1 does the same
for the benchmark workloads. That cannot catch a change that reorders the
simulation the same way in both runs. This script reads the stdout of each
run named in the pin file, run with the pinned command, and fails unless
every pinned value equals the one in the log (soaks: digest and executed
events; perfbench workloads: traced spans, executed events and attempted
operations; the message-layer benches: executed events), so any
cross-commit change in event order, timing or model output shows up.

A deliberate model change re-pins the values in the file (and says so in
the change log); an optimization must leave them untouched. The pins are
bit-exact for the toolchain named in the file's "measured_with"; a
different compiler or libm may move them without any model change.

Usage:
  build/bench/kv_soak --short | tee kv_soak.log
  build/bench/chaos_soak --short | tee chaos_soak.log
  python3 perfbench/run.py --workload udp_echo --seed 1 --seconds 1 --trace 1 | tee udp_echo.log
  python3 perfbench/run.py --workload kv_hot --seed 1 --seconds 1 --trace 1 | tee kv_hot.log
  build/bench/fig4_msg_latency | tee fig4_msg_latency.log
  build/bench/overload_soak --short | tee overload_soak.log
  build/bench/mmio_forwarding --producers 8 | tee mmio_forwarding_p8.log
  tools/check_digests.py PINS.json kv_soak=kv_soak.log chaos_soak=chaos_soak.log
      udp_echo=udp_echo.log kv_hot=kv_hot.log
      fig4_msg_latency=fig4_msg_latency.log overload_soak=overload_soak.log
      mmio_forwarding_p8=mmio_forwarding_p8.log   (one command line)

Exit 0 = every run matches, 1 = mismatch or missing log, 2 = usage error.
Stdlib only; runs on the bare CI runner.
"""

import argparse
import json
import re
import sys

# Each pinnable value and where a run's stdout reports it.
FIELDS = {
    "digest": re.compile(r"(?:phase/audit digest|trace digest:)\s+([0-9a-f]{16})"),
    "events": re.compile(r"event count \((\d+)|traced: \d+ spans, (\d+) events"),
    "spans": re.compile(r"traced: (\d+) spans"),
    "attempted": re.compile(r'"attempted": (\d+)'),
}


def parse(stdout):
    """Returns {field: value} for every field found in a run's report."""
    found = {}
    for field, regex in FIELDS.items():
        m = regex.search(stdout)
        if m:
            value = next(g for g in m.groups() if g is not None)
            found[field] = value if field == "digest" else int(value)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pins", help="JSON file of pinned digests")
    parser.add_argument("logs", nargs="*", metavar="RUN=LOG",
                        help="stdout of a run of its pinned command")
    args = parser.parse_args()
    try:
        with open(args.pins, encoding="utf-8") as f:
            runs = json.load(f)["runs"]
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("check_digests: cannot read %s: %s\n" % (args.pins, e))
        return 2
    logs = {}
    for item in args.logs:
        name, sep, path = item.partition("=")
        if not sep or name not in runs:
            sys.stderr.write("check_digests: expected RUN=LOG with RUN one "
                             "of %s, got %r\n" % (", ".join(sorted(runs)), item))
            return 2
        logs[name] = path

    failed = 0
    for name, pin in sorted(runs.items()):
        command = pin["command"]
        if name not in logs:
            print("FAIL %s: no log given" % command)
            failed += 1
            continue
        try:
            with open(logs[name], encoding="utf-8") as f:
                found = parse(f.read())
        except OSError as e:
            print("FAIL %s: cannot read %s: %s" % (command, logs[name], e))
            failed += 1
            continue
        pinned = {k: v for k, v in pin.items() if k in FIELDS}
        ok = bool(pinned) and all(found.get(k) == v for k, v in pinned.items())
        print("%-4s %s: %s" % ("OK" if ok else "FAIL", command, ", ".join(
            "%s %s (pinned %s)" % (k, found.get(k), v) for k, v in pinned.items())))
        failed += 0 if ok else 1
    print("check_digests: %d run(s), %d mismatch(es)" % (len(runs), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
