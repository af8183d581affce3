// False-positive regression corpus: every classic trigger phrase below
// sits where a LINE-REGEX engine sees it but a real lexer must not —
// string literals, raw strings, comments, `#if 0` regions, and macro
// continuation lines. This file carries ZERO simlint-expect annotations:
// ANY finding here is a lexer regression. (The old line-regex linter needed
// per-rule workarounds for exactly these shapes and still leaked.)
#include <cstdint>
#include <vector>

#include "src/cxl/host_adapter.h"
#include "src/sim/task.h"

namespace cxlpool::repro {

// A comment is not code: sim::Spawn(ScrubLoop(pool)); host.Flush(a, 64);

/* Nor is a block comment, even one holding a whole bad function:
sim::Task<Status> Bad(msg::RpcClient& c) {
  co_return (co_await c.Call(m, r)).status();
}
*/

// Trigger phrases inside ordinary string literals, with escapes.
inline const char* kHelpText =
    "to reproduce, call sim::Spawn(ReportLoop(rack)) with no stop token "
    "and a \"quoted\" host.Flush(addr, 64); statement";

// A raw string literal spanning lines, delimiter and all. The payload
// is a verbatim copy of two rule triggers.
inline const char* kRawDoc = R"doc(
  obs::Span op = tracer.StartTrace("op", host, now);
  co_return co_await ep.sender().Send(frame);
)doc";

// Continuation lines: the old engine's per-line regexes saw the second
// physical line of this macro as a fresh statement. The preprocessor
// directive is ONE token to the analyzer.
#define CXLPOOL_REPRO_FIRE(host, addr)   \
  do {                                   \
    (void)(host).Flush((addr), 64);      \
  } while (0)

// Disabled code is not code. Everything in this block would fire four
// different rules if the `#if 0` were ignored.
#if 0
sim::Task<Status> Disabled(msg::RpcClient& client, std::mutex& mu) {
  std::lock_guard<std::mutex> g(mu);
  obs::Span op = tracer.StartTrace("op", 0, 0);
  auto r = co_await client.Call(kMethod, req);
  sim::Spawn(WatchLoop(host));
  co_return r.status();
}
#else
inline constexpr int kEnabledBranch = 1;
#endif

// `#if 0` nests: an inner `#if`/`#endif` must not resurrect the region.
#if 0
#if defined(NEVER)
host.Flush(addr, 64);
#endif
msg::RingSender& raw = ep.sender();
raw.Send(frame);
#endif

// A subscript is not a lambda introducer, and an attribute is not a
// capture list.
[[maybe_unused]] inline uint32_t PickFirst(const std::vector<uint32_t>& v) {
  return v[0];
}

// A char literal holding a brace must not desync the scope tracker;
// if it did, the function below would be mis-scoped and the dangling
// return inside a comment above could mis-anchor.
inline char OpenBrace() { return '{'; }

}  // namespace cxlpool::repro
