"""Resource-discipline rules.

leaked-span      (ported from the line-regex linter)
direct-ring-send (ported from the line-regex linter)
"""

from . import is_msg_internal, is_test_path

# ---------------------------------------------------------------------------
# leaked-span — an obs::Span local bound from StartTrace/StartSpan (or
# the MaybeStart*/StartOpSpan wrappers) with no .End(...) in the
# enclosing function. Spans are explicit-End by design: the destructor
# deliberately abandons (and counts) un-ended spans rather than guess an
# end time, so a span never End()ed silently vanishes from the trace and
# inflates Tracer::dropped_spans(). Moving or returning the span
# transfers the obligation to the caller.


def _span_decl_at(tokens, i, n):
    """If a span declaration `[obs::] Span name = ...Start*(` begins at
    token ``i``, return (name, index_of_name); else (None, None)."""
    k = i
    if tokens[k].is_id("obs") and k + 2 < n and tokens[k + 1].is_punct("::"):
        k += 2
    if not tokens[k].is_id("Span"):
        return None, None
    if k + 2 >= n or not tokens[k + 1].is_id():
        return None, None
    name_idx = k + 1
    if not tokens[name_idx + 1].is_punct("="):
        return None, None
    # The initializer chain must reach a Start*/MaybeStart* call before
    # the statement ends.
    j = name_idx + 2
    while j + 1 < n:
        t = tokens[j]
        if t.is_punct(";"):
            return None, None
        if t.is_id() and (t.text.startswith("Start")
                          or t.text.startswith("MaybeStart")) \
                and tokens[j + 1].is_punct("("):
            return tokens[name_idx].text, name_idx
        j += 1
    return None, None


def check_leaked_span(ctx):
    tokens = ctx.tokens
    model = ctx.model
    n = len(tokens)
    i = 0
    while i < n:
        name, name_idx = _span_decl_at(tokens, i, n)
        if name is None:
            i += 1
            continue
        fn = model.enclosing_function(name_idx)
        region_end = fn.body_end if fn is not None else n
        consumed = False
        k = name_idx + 1
        while k < region_end:
            t = tokens[k]
            if t.is_id(name):
                nxt = tokens[k + 1] if k + 1 < region_end else None
                nxt2 = tokens[k + 2] if k + 2 < region_end else None
                if nxt is not None and nxt.is_punct(".") \
                        and nxt2 is not None and nxt2.is_id("End"):
                    consumed = True
                    break
                prev = tokens[k - 1]
                prev2 = tokens[k - 2] if k >= 2 else None
                # std::move(name) — ownership handed off.
                if prev.is_punct("(") and prev2 is not None \
                        and prev2.is_id("move"):
                    consumed = True
                    break
                # return name; / co_return name; — caller owns the End.
                if prev.is_id("return", "co_return") and nxt is not None \
                        and nxt.is_punct(";"):
                    consumed = True
                    break
            k += 1
        if not consumed:
            ctx.report(
                tokens[name_idx].line, "leaked-span",
                "span '%s' is started but never .End()ed in this scope; "
                "the destructor abandons it (dropped from the trace, "
                "counted in Tracer::dropped_spans()) — End() it on every "
                "exit path or std::move it to the new owner" % name)
        i = name_idx + 1


# ---------------------------------------------------------------------------
# direct-ring-send — code outside src/msg/ calling RingSender::Send /
# SendBatch directly, via a `.sender().Send(...)` accessor chain or a
# RingSender-typed local/reference. The ring's raw producer bypasses the
# MPSC submission front (write-combined batching, doorbell coalescing,
# control-priority jump, staging-bound backpressure), so one "harmless"
# direct send on the hot path silently un-does the throughput work.
# msg::Endpoint::Send is the only sanctioned door; src/msg/ itself and
# test code (which drives the ring on purpose) are exempt.


def check_direct_ring_send(ctx):
    if is_msg_internal(ctx.path) or is_test_path(ctx.path):
        return
    tokens = ctx.tokens
    n = len(tokens)

    def flag(line):
        ctx.report(
            line, "direct-ring-send",
            "direct RingSender::Send bypasses the MPSC submission front "
            "(batching, doorbell coalescing, priority, backpressure) — "
            "publish through msg::Endpoint::Send instead")

    # Accessor-chain bypass: sender().Send( / sender().SendBatch(
    for i in range(n - 5):
        if (tokens[i].is_id("sender") and tokens[i + 1].is_punct("(")
                and tokens[i + 2].is_punct(")")
                and tokens[i + 3].is_punct(".")
                and tokens[i + 4].is_id("Send", "SendBatch")
                and tokens[i + 5].is_punct("(")):
            flag(tokens[i].line)

    # RingSender-typed locals/references, then name.Send(.
    names = set()
    for i in range(n - 2):
        if not tokens[i].is_id("RingSender"):
            continue
        k = i + 1
        while k < n and tokens[k].is_punct("&", "*"):
            k += 1
        if k < n and tokens[k].is_id():
            names.add(tokens[k].text)
    if not names:
        return
    for i in range(n - 3):
        if (tokens[i].is_id() and tokens[i].text in names
                and tokens[i + 1].is_punct(".")
                and tokens[i + 2].is_id("Send", "SendBatch")
                and tokens[i + 3].is_punct("(")):
            flag(tokens[i].line)


RULES = [
    ("leaked-span", check_leaked_span),
    ("direct-ring-send", check_direct_ring_send),
]
