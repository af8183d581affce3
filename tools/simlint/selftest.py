"""Seeded-repro self-test.

Every ``.cc`` file under ``tools/simlint/selftest/`` is linted, and the
findings are compared EXACTLY against the file's ``// simlint-expect:
<rule>`` annotations: a rule must fire on every annotated line and on no
other line of the corpus. Clean exemplars simply carry no annotations —
any finding in them is a false-positive regression.

This is deliberately stricter than the old line-regex linter's self-test
(which only checked that each rule fired *somewhere*): pinning findings
to lines catches both silently-dead rules and anchor drift.
"""

import os

from .engine import Analyzer, expand_targets

CORPUS_DIRNAME = os.path.join("tools", "simlint", "selftest")


def corpus_dir(repo_root):
    return os.path.join(repo_root, CORPUS_DIRNAME)


def run(repo_root, verbose=True):
    """Returns True when the corpus behaves exactly as annotated."""
    corpus = corpus_dir(repo_root)
    files = expand_targets([corpus])
    if not files:
        print("SELF-TEST FAIL: no corpus files under %s" % corpus)
        return False
    # The corpus headers participate in the symbol index, so repro files
    # can declare their own Task-returning / StopToken-taking functions
    # without touching src/.
    analyzer = Analyzer([os.path.join(repo_root, "src"), corpus])

    ok = True
    total_expected = 0
    rules_fired = set()
    for path in files:
        findings, lexed = analyzer.lint_file(path)
        expected = {(line, rule)
                    for line, rules in lexed.expects.items()
                    for rule in rules}
        actual = {(f.line, f.rule) for f in findings}
        total_expected += len(expected)
        rules_fired |= {r for _, r in actual}
        rel = os.path.relpath(path, repo_root)
        for line, rule in sorted(expected - actual):
            print("SELF-TEST FAIL: %s:%d: expected [%s] did not fire"
                  % (rel, line, rule))
            ok = False
        for line, rule in sorted(actual - expected):
            print("SELF-TEST FAIL: %s:%d: unexpected [%s] (false positive)"
                  % (rel, line, rule))
            ok = False
        if verbose:
            for f in sorted(findings, key=lambda f: (f.line, f.rule)):
                print("  (expected) %s:%d: [%s]" % (rel, f.line, f.rule))

    # Belt and braces: every registered rule must have at least one
    # seeded repro in the corpus, so a rule can never rot silently.
    missing = set(analyzer.rule_names()) - rules_fired
    for rule in sorted(missing):
        print("SELF-TEST FAIL: rule [%s] has no firing repro in the corpus"
              % rule)
        ok = False

    print("self-test: %s (%d findings across %d corpus files)"
          % ("PASS" if ok else "FAIL", total_expected, len(files)))
    return ok
