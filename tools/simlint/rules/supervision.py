"""Supervision and ordering rules.

unstoppable-loop  (ported from the line-regex linter)
missing-deadline  (ported from the line-regex linter)
"""

import re

from . import is_test_path

# ---------------------------------------------------------------------------
# unstoppable-loop — `Spawn(SomethingLoop(...))` with no stop token among
# the arguments. Detached periodic loops (ScrubLoop, ReportLoop, the
# agent watchdog) are the one coroutine shape that outlives its spawner
# by design; without a StopToken they keep waking after Shutdown(),
# touching freed rack state. Convention: every `*Loop` coroutine takes a
# `sim::StopToken&`, so a spawn whose argument list never mentions one
# is a supervision bug.

_LOOP_NAME_RE = re.compile(r"\w+Loop$")
_STOP_ARG_RE = re.compile(r"stop", re.IGNORECASE)


def check_unstoppable_loop(ctx):
    tokens = ctx.tokens
    model = ctx.model
    n = len(tokens)
    for i, t in enumerate(tokens):
        if not t.is_id("Spawn"):
            continue
        if i + 1 >= n or not tokens[i + 1].is_punct("("):
            continue
        close = model.paren_match.get(i + 1)
        if close is None:
            continue
        spawns_loop = False
        has_stop = False
        for k in range(i + 2, close):
            a = tokens[k]
            if a.is_id() and _LOOP_NAME_RE.search(a.text) \
                    and k + 1 < close and tokens[k + 1].is_punct("("):
                spawns_loop = True
            if a.is_id() and (_STOP_ARG_RE.search(a.text)
                              or a.text == "StopToken"):
                has_stop = True
        if spawns_loop and not has_stop:
            ctx.report(
                t.line, "unstoppable-loop",
                "detached *Loop spawned without a stop token; it outlives "
                "Shutdown() and wakes against freed state — thread a "
                "sim::StopToken& through it")


# ---------------------------------------------------------------------------
# missing-deadline — `co_await` on an RPC/channel op (Call, Recv) whose
# argument list carries no deadline-ish token. An op with no budget
# waits forever: under overload it queues behind a wedged peer and turns
# backpressure into a hang — the exact failure the deadline-propagation
# work (PR 6) exists to prevent. Test code is exempt: tests legitimately
# use sentinel/infinite waits to pin ordering.

_DEADLINE_OPS = ("Call", "Recv")
_DEADLINE_ARG_RE = re.compile(
    r"deadline|timeout|expiry|until|budget", re.IGNORECASE)


def _args_have_deadline(tokens, open_paren, close):
    for k in range(open_paren + 1, close):
        t = tokens[k]
        if not t.is_id():
            continue
        if _DEADLINE_ARG_RE.search(t.text):
            return True
        if t.text == "now" and k + 1 < close and tokens[k + 1].is_punct("("):
            return True
        if t.text == "kInheritCallDeadline":
            return True
    return False


def check_missing_deadline(ctx):
    if is_test_path(ctx.path):
        return
    tokens = ctx.tokens
    model = ctx.model
    n = len(tokens)
    for i, t in enumerate(tokens):
        if not t.is_id("co_await"):
            continue
        # Walk the awaited chain: id ((. | -> | ::) id)* ending in
        # Call/Recv immediately followed by `(`.
        k = i + 1
        last_id = None
        while k < n:
            tk = tokens[k]
            if tk.is_id():
                last_id = tk.text
                k += 1
                continue
            if tk.is_punct(".", "->", "::"):
                k += 1
                continue
            break
        if k >= n or last_id not in _DEADLINE_OPS \
                or not tokens[k].is_punct("("):
            continue
        close = model.paren_match.get(k)
        if close is None:
            continue
        if _args_have_deadline(tokens, k, close):
            continue
        ctx.report(
            t.line, "missing-deadline",
            "co_await %s() with no deadline/timeout argument waits forever "
            "under overload; pass an absolute deadline (loop.now() + "
            "budget) so every hop can shed the op once it expires"
            % last_id)


RULES = [
    ("unstoppable-loop", check_unstoppable_loop),
    ("missing-deadline", check_missing_deadline),
]
