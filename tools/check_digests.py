#!/usr/bin/env python3
"""Checks same-seed soak digests against their pinned values.

Each soak binary already compares a traced run against an untraced run of
the same seed within one process. That cannot catch a change that reorders
the simulation the same way in both runs. This script reads the stdout of
each soak named in the pin file, run with the pinned arguments, and fails
unless its digest and executed-event count equal the pinned ones, so any
cross-commit change in event order, timing or model output shows up.

A deliberate model change re-pins the values in the file (and says so in
the change log); an optimization must leave them untouched. The pins are
bit-exact for the toolchain named in the file's "measured_with"; a
different compiler or libm may move them without any model change.

Usage:
  build/bench/kv_soak --short | tee kv_soak.log
  build/bench/chaos_soak --short | tee chaos_soak.log
  tools/check_digests.py PINS.json kv_soak=kv_soak.log chaos_soak=chaos_soak.log

Exit 0 = every soak matches, 1 = mismatch or missing log, 2 = usage error.
Stdlib only; runs on the bare CI runner.
"""

import argparse
import json
import re
import sys

DIGEST_RE = re.compile(r"(?:phase/audit digest|trace digest:)\s+([0-9a-f]{16})")
EVENTS_RE = re.compile(r"event count \((\d+)")


def parse(stdout):
    """Returns (digest, events) from a soak's report, None where absent."""
    digest = DIGEST_RE.search(stdout)
    events = EVENTS_RE.search(stdout)
    return (digest.group(1) if digest else None,
            int(events.group(1)) if events else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pins", help="JSON file of pinned digests")
    parser.add_argument("logs", nargs="*", metavar="SOAK=LOG",
                        help="stdout of a soak run with its pinned arguments")
    args = parser.parse_args()
    try:
        with open(args.pins, encoding="utf-8") as f:
            soaks = json.load(f)["soaks"]
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("check_digests: cannot read %s: %s\n" % (args.pins, e))
        return 2
    logs = {}
    for item in args.logs:
        name, sep, path = item.partition("=")
        if not sep or name not in soaks:
            sys.stderr.write("check_digests: expected SOAK=LOG with SOAK one "
                             "of %s, got %r\n" % (", ".join(sorted(soaks)), item))
            return 2
        logs[name] = path

    failed = 0
    for name, pin in sorted(soaks.items()):
        command = " ".join([name] + pin.get("args", []))
        if name not in logs:
            print("FAIL %s: no log given" % command)
            failed += 1
            continue
        try:
            with open(logs[name], encoding="utf-8") as f:
                digest, events = parse(f.read())
        except OSError as e:
            print("FAIL %s: cannot read %s: %s" % (command, logs[name], e))
            failed += 1
            continue
        ok = digest == pin["digest"] and events == pin["events"]
        print("%-4s %s: digest %s (pinned %s), events %s (pinned %d)" %
              ("OK" if ok else "FAIL", command, digest, pin["digest"], events,
               pin["events"]))
        failed += 0 if ok else 1
    print("check_digests: %d soak(s), %d mismatch(es)" % (len(soaks), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
