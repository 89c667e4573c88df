#!/usr/bin/env python3
"""orca_lint: the project's determinism & concurrency invariant pass.

The simulation kernel is single-threaded and virtual-time; every source
of nondeterminism the runtime is allowed to touch is funneled through
two seams — the sim clock (`sim::Simulation::Now`) plus the
DispatchExecutor's `NowSeconds`, and the seeded `common::Rng`. Locks go
through the annotated wrappers in src/common/mutex.h so clang's
-Wthread-safety pass (CI) sees every critical section. This lint keeps
those funnels the ONLY openings, AST-free (regex over comment/string-
stripped source, like check_orca_api.py), with an explicit allowlist:

  wall_clock         no steady_clock/system_clock/... reads; wall time
                     enters through ThreadPoolExecutor's single clock
                     function.
  randomness         no rand()/random_device/raw mt19937; randomness is
                     the seeded common::Rng.
  raw_thread         no std::thread outside the two sanctioned pools
                     (ThreadPoolExecutor workers, ScopeRegistry's batch
                     matcher).
  thread_detach      no .detach() anywhere — every thread is joined.
  sleep              no sleep_for/sleep_until/usleep/...; waiting is a
                     CondVar timed wait or a sim event.
  raw_mutex          no std::mutex/condition_variable/lock_guard/...
                     outside src/common/mutex.h — unannotated locks are
                     invisible to the thread safety analysis.
  raw_socket         no raw socket/fd APIs (socket headers, socketpair,
                     AF_*/SOCK_* constants, poll) outside
                     src/net/socket_channel.cc — everything above speaks
                     the net::Channel interface.
  service_in_handler no Orchestrator subclass body naming OrcaService:
                     handlers act through their per-delivery
                     OrcaContext (the generalization of the
                     check_orca_api.py `orca()->` gate).

Scope: tracked C++ files under src/, tests/, and examples/. bench/ is
exempt wholesale (benchmarks legitimately time and sleep) except for
service_in_handler, which also covers bench orchestrators.

Allowlist: scripts/orca_lint_allowlist.txt, one entry per line —

    <repo-relative-path> <rule> [max=N]   # comment

An entry waives the rule for that file; `max=N` caps the match count so
the waiver cannot silently widen (e.g. the wall-clock seam is pinned to
exactly one read). Unused entries are errors: the allowlist can never
outlive the code it excuses.

`--self-test` embeds a deliberate violation of every rule and asserts
the lint catches it — CI runs it so a regressed rule fails loudly.
"""

import argparse
import pathlib
import re
import sys

import lint_common

ALLOWLIST_PATH = lint_common.REPO_ROOT / "scripts" / "orca_lint_allowlist.txt"

CODE_SUFFIXES = (".cc", ".h", ".cpp", ".hpp")
CODE_PREFIXES = ("src/", "tests/", "examples/")

# name -> (pattern, guidance). Patterns run on comment/string-stripped
# source, so prose mentioning e.g. steady_clock never fires.
PATTERN_RULES = {
    "wall_clock": (
        re.compile(
            r"steady_clock|system_clock|high_resolution_clock"
            r"|\bgettimeofday\b|\bclock_gettime\b"
            r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
        "wall-clock read — time comes from the sim clock or the "
        "executor's NowSeconds()"),
    "randomness": (
        re.compile(
            r"\brandom_device\b|\bmt19937(?:_64)?\b"
            r"|(?<![\w:])s?rand\s*\("),
        "unseeded randomness — use the seeded common::Rng"),
    "raw_thread": (
        re.compile(r"\bstd\s*::\s*thread\b"),
        "raw std::thread — threads live in ThreadPoolExecutor or the "
        "scope registry's batch matcher"),
    "thread_detach": (
        re.compile(r"\.\s*detach\s*\(\s*\)"),
        "detached thread — every thread must be joined"),
    "sleep": (
        re.compile(
            r"\bsleep_for\b|\bsleep_until\b"
            r"|(?<![\w:])(?:u|nano)?sleep\s*\("),
        "blocking sleep — wait on a CondVar deadline or a sim event"),
    "raw_mutex": (
        re.compile(
            r"\bstd\s*::\s*(?:recursive_|shared_|timed_)*mutex\b"
            r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
            r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|"
            r"shared_lock)\b"
            r"|\bpthread_(?:mutex|cond|rwlock)\b"),
        "raw mutex/lock primitive — use common::Mutex / MutexLock / "
        "CondVar so -Wthread-safety sees the critical section"),
    "raw_socket": (
        re.compile(
            r"<sys/socket\.h>|<sys/un\.h>|<netinet/[^>]+>|<arpa/inet\.h>"
            r"|<poll\.h>|<fcntl\.h>"
            r"|\bsocketpair\s*\(|\bsetsockopt\s*\("
            r"|(?<![\w:])socket\s*\(|(?<![\w:])poll\s*\("
            r"|\bAF_(?:INET6?|UNIX)\b|\bSOCK_STREAM\b|\bMSG_NOSIGNAL\b"),
        "raw socket/fd API — OS sockets live behind src/net/"
        "socket_channel.cc; everything else speaks the net::Channel "
        "interface"),
}

# An Orchestrator subclass: `class X : public [ns::]SomethingOrchestrator`
# (covers indirect bases like RuleOrchestrator by suffix).
ORCH_SUBCLASS = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+(?:[\w:]+::)?"
    r"(\w*Orchestrator)\b")
SERVICE_TOKEN = re.compile(r"\bOrcaService\b")


def class_body_span(text, brace_start):
    """(start, end) offsets of the brace-matched body opening at
    `brace_start` (which must index a '{'), or None if unbalanced."""
    depth = 0
    for i in range(brace_start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return brace_start, i + 1
    return None


def load_allowlist():
    """{(path, rule): max_count or None}; max None = any count."""
    entries = {}
    for raw in lint_common.read_text(ALLOWLIST_PATH).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise SystemExit(f"orca_lint: bad allowlist line: {raw!r}")
        path, rule = parts[0], parts[1]
        if rule not in PATTERN_RULES and rule != "service_in_handler":
            raise SystemExit(f"orca_lint: unknown rule in allowlist: {raw!r}")
        cap = None
        if len(parts) == 3:
            if not parts[2].startswith("max="):
                raise SystemExit(f"orca_lint: bad allowlist cap: {raw!r}")
            cap = int(parts[2][4:])
        entries[(path, rule)] = cap
    return entries


def pattern_offenders(rel, text, allowlist, used):
    """Runs every pattern rule over one stripped file."""
    offenders = []
    for rule, (pattern, guidance) in PATTERN_RULES.items():
        matches = list(pattern.finditer(text))
        if not matches:
            continue
        key = (str(rel), rule)
        if key in allowlist:
            used.add(key)
            cap = allowlist[key]
            if cap is None or len(matches) <= cap:
                continue
            offenders.append(
                f"{rel}: [{rule}] {len(matches)} matches exceed the "
                f"allowlisted max={cap} — the waived surface widened")
            continue
        for match in matches:
            offenders.append(
                f"{rel}:{lint_common.line_of(text, match.start())}: "
                f"[{rule}] {lint_common.line_at(text, match.start())}"
                f" — {guidance}")
    return offenders


def handler_offenders(rel, text, allowlist=None, used=None):
    """service_in_handler: no Orchestrator subclass body names
    OrcaService — handlers act through their per-delivery OrcaContext."""
    hits = []
    for match in ORCH_SUBCLASS.finditer(text):
        brace = text.find("{", match.end())
        if brace == -1:
            continue
        span = class_body_span(text, brace)
        if span is None:
            continue
        body = text[span[0]:span[1]]
        for hit in SERVICE_TOKEN.finditer(body):
            offset = span[0] + hit.start()
            hits.append(
                f"{rel}:{lint_common.line_of(text, offset)}: "
                f"[service_in_handler] orchestrator `{match.group(1)}` "
                f"names OrcaService — handlers must act through their "
                f"OrcaContext")
    key = (str(rel), "service_in_handler")
    if hits and allowlist is not None and key in allowlist:
        used.add(key)
        cap = allowlist[key]
        if cap is None or len(hits) <= cap:
            return []
        return [f"{rel}: [service_in_handler] {len(hits)} matches exceed "
                f"the allowlisted max={cap} — the waived surface widened"]
    return hits


def run_lint():
    allowlist = load_allowlist()
    used = set()
    offenders = []
    scanned = 0

    for path in lint_common.tracked_files(prefixes=CODE_PREFIXES,
                                          suffixes=CODE_SUFFIXES):
        raw = lint_common.read_text(path)
        if raw is None:
            continue
        rel = path.relative_to(lint_common.REPO_ROOT)
        text = lint_common.strip_code_comments(raw)
        scanned += 1
        offenders.extend(pattern_offenders(rel, text, allowlist, used))
        offenders.extend(handler_offenders(rel, text, allowlist, used))

    # bench/ is exempt from the determinism rules but not from the
    # handler rule: a benchmark orchestrator reaching into the service
    # races exactly like a production one.
    for path in lint_common.tracked_files(prefixes=("bench/",),
                                          suffixes=CODE_SUFFIXES):
        raw = lint_common.read_text(path)
        if raw is None:
            continue
        rel = path.relative_to(lint_common.REPO_ROOT)
        scanned += 1
        offenders.extend(
            handler_offenders(rel, lint_common.strip_code_comments(raw),
                              allowlist, used))

    for key in sorted(set(allowlist) - used):
        offenders.append(
            f"scripts/orca_lint_allowlist.txt: stale entry "
            f"`{key[0]} {key[1]}` — the file no longer matches the rule")

    return lint_common.report(
        "orca_lint", offenders, f"{scanned} files, {len(PATTERN_RULES) + 1} "
        "rules", "invariant violation(s)")


# --- self-test ---------------------------------------------------------------

# One deliberate violation per rule class; CI runs --self-test so a
# regressed pattern fails loudly rather than silently passing the tree.
SELF_TEST_VIOLATIONS = {
    "wall_clock": "auto t0 = std::chrono::steady_clock::now();",
    "randomness": "std::random_device rd; int x = rand();",
    "raw_thread": "std::thread worker([] {});",
    "thread_detach": "worker.detach();",
    "sleep": "std::this_thread::sleep_for(std::chrono::seconds(1));",
    "raw_mutex": "std::mutex mu; std::lock_guard<std::mutex> lock(mu);",
    "raw_socket": "int fd = socket(AF_UNIX, SOCK_STREAM, 0);",
}

SELF_TEST_HANDLER = """
class SneakyOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca, const OrcaStartContext& c) {
    OrcaService* backdoor = FindServiceSomehow();
    backdoor->Shutdown();
  }
};
"""

SELF_TEST_CLEAN = """
// steady_clock mentioned in a comment must NOT fire, nor "rand()" here.
const char* doc = "std::mutex in a string literal is also fine";
common::MutexLock lock(mu_);
double now = executor_->NowSeconds();
"""


def run_self_test():
    failures = []
    for rule, snippet in SELF_TEST_VIOLATIONS.items():
        stripped = lint_common.strip_code_comments(snippet)
        if not PATTERN_RULES[rule][0].search(stripped):
            failures.append(f"rule {rule} missed: {snippet!r}")
    hits = handler_offenders(pathlib.PurePosixPath("self_test.cc"),
                             lint_common.strip_code_comments(
                                 SELF_TEST_HANDLER))
    if not hits:
        failures.append("rule service_in_handler missed the sneaky "
                        "orchestrator")
    clean = lint_common.strip_code_comments(SELF_TEST_CLEAN)
    for rule, (pattern, _) in PATTERN_RULES.items():
        match = pattern.search(clean)
        if match:
            failures.append(
                f"rule {rule} false-positive on clean snippet: "
                f"{match.group(0)!r}")
    return lint_common.report(
        "orca_lint --self-test", failures,
        f"{len(SELF_TEST_VIOLATIONS) + 1} rules trip on violations, clean "
        "code passes", "self-test failure(s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches its violation class")
    args = parser.parse_args()
    return run_self_test() if args.self_test else run_lint()


if __name__ == "__main__":
    sys.exit(main())
