#!/usr/bin/env python3
"""vecdb pattern lint: bans idioms that the sanitizer matrix and Status
discipline exist to prevent. Runs as a ctest test ("lint"); see
docs/ANALYSIS.md for the rule list and suppression syntax.

Usage: lint.py [repo_root]

Rules (suppress one occurrence with a trailing `// lint-allow:<rule>`):
  new-array         new T[n] / delete[] outside the AlignedBuffer wrapper --
                    bulk storage must go through AlignedFloats or std
                    containers so sizing and alignment stay audited.
  raw-pthread       direct pthread_* calls -- use std::thread / ThreadPool
                    so TSan and the invariant framework see every thread.
  discarded-status  a statement that calls a known Status/Result-returning
                    function and drops the value. The [[nodiscard]] compiler
                    check is authoritative; this catches it in un-compiled
                    configs (e.g. code behind #ifdef).
  pragma-once       header missing #pragma once.
  std-endl          std::endl in src/ -- it flushes; hot paths want '\\n'.
  removed-field     any SearchParams::profiler / ::accounting access -- the
                    pre-QueryContext alias fields were removed; route
                    Profiler / ParallelAccounting / MetricsRegistry through
                    SearchParams::ctx. The compiler catches this in built
                    configs; the lint catches code behind #ifdefs and docs
                    snippets. (The HNSW options structs' own profiler
                    fields are unaffected: the rule is scoped to
                    SearchParams objects.)
  raw-mutex         a raw std:: mutex type (std::mutex, std::shared_mutex,
                    recursive/timed variants) anywhere outside
                    common/thread_annotations.h -- declare vecdb::Mutex /
                    vecdb::SharedMutex instead so the field can carry
                    VECDB_GUARDED_BY and the Clang Thread Safety Analysis
                    gate (VECDB_TSA) can prove the lock discipline.
  database-execute  Execute() called on a MiniDatabase object -- the
                    single-session wrapper was removed; create a Session
                    with MiniDatabase::CreateSession() and call
                    Session::Execute so statements go through admission
                    control and session accounting. (Scoped to variables
                    the scan can prove are MiniDatabase handles.)
  raw-intrinsics    #include <*intrin.h>, an _mm* intrinsic, or an
                    __m128/__m256/__m512 vector type outside src/distance/
                    (and the CRC-32C dispatch in src/pgstub/crc32c.cc) --
                    SIMD stays behind the KernelDispatch registry so every
                    call site inherits runtime cpuid gating and the
                    VECDB_KERNEL_ISA override instead of SIGILLing on older
                    hosts.
  raw-socket        a socket(2)-family libc call (socket, bind, listen,
                    accept, connect, send*/recv*, poll, setsockopt, ...)
                    outside src/net/ -- networking goes through the RAII
                    Socket/WakePipe/Poll wrappers (net/socket.h) so fd
                    lifetimes, EINTR retries, and non-blocking semantics
                    are handled once, in one audited place.
  mutable-member    a `mutable` data member in src/ whose type is not
                    Mutex, SharedMutex or std::atomic -- any number of
                    threads may search one const index at once, so scratch
                    kept in a mutable member (a visited table, a stamp
                    array) races; keep it per query or per thread.
  engine-include    a faisslike/, pase/ or bridge/ header included from
                    src/sql/ or src/net/ -- the front ends reach engines
                    only through core/factory.h and the VectorIndex
                    interface, so no per-class ladder (a dynamic_cast or
                    method-name chain over index classes) can grow there.

Additionally, every `// lint-allow:<rule>` suppression is itself audited:
naming a rule that does not exist, or sitting on a line where its rule no
longer fires, is reported as stale-suppression -- suppressions cannot
outlive the violation they excuse.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".h", ".cc")
ALLOW_RE = re.compile(r"//\s*lint-allow:([\w-]+)")

# Files allowed to use raw array new/delete: the owning wrapper itself.
NEW_ARRAY_ALLOWED = {os.path.join("src", "common", "aligned_buffer.h")}

# Files allowed to name raw std mutex types: the annotated wrapper itself.
RAW_MUTEX_ALLOWED = {os.path.join("src", "common", "thread_annotations.h")}

# Where raw SIMD may live: the dispatched kernel tiers and the CRC-32C
# hardware fast path. Everything else consumes SIMD through the
# KernelDispatch registry (distance/dispatch.h).
INTRINSICS_ALLOWED_PREFIX = os.path.join("src", "distance") + os.sep
INTRINSICS_ALLOWED = {os.path.join("src", "pgstub", "crc32c.cc")}

# Where raw socket(2)-family calls may live: the RAII wrapper layer.
SOCKET_ALLOWED_PREFIX = os.path.join("src", "net") + os.sep

# The front ends, and the engine headers they may not include.
ENGINE_INCLUDE_SCOPES = tuple(os.path.join("src", d) + os.sep
                              for d in ("sql", "net"))
ENGINE_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*"(?:faisslike|pase|bridge)/')

# Every rule a lint-allow comment may name (stale-suppression audits this).
KNOWN_RULES = {
    "new-array", "raw-pthread", "discarded-status", "pragma-once",
    "std-endl", "removed-field", "raw-mutex", "database-execute",
    "raw-intrinsics", "raw-socket", "mutable-member", "engine-include",
}

NEW_ARRAY_RE = re.compile(r"\bnew\s+[\w:<>]+\s*\[|\bdelete\s*\[\]")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex)\b"
)
# `SearchParams p;` / `SearchParams p = other;` -- harvested per file so the
# removed-field rule only fires on SearchParams objects, not on the HNSW
# options structs that legitimately carry a profiler field.
SEARCHPARAMS_DECL_RE = re.compile(r"\bSearchParams\s+(\w+)\s*[;={]")
# Designated init naming a removed field: `SearchParams{.profiler = ...}`.
SEARCHPARAMS_REMOVED_INIT_RE = re.compile(
    r"\bSearchParams\s*\{[^}]*\.\s*(?:profiler|accounting)\b"
)
# MiniDatabase handle declarations, harvested per file so database-execute
# only fires on objects the scan can prove are databases (not on Session
# or other Execute-bearing types): `MiniDatabase* db` / `MiniDatabase& db`,
# `unique_ptr<MiniDatabase> db`, and `db = [std::move(]MiniDatabase::Open`.
MINIDATABASE_DECL_RES = (
    re.compile(r"\b(?:sql::)?MiniDatabase\s*[*&]\s*(?:const\s+)?(\w+)"),
    re.compile(r"\bunique_ptr<\s*(?:sql::)?MiniDatabase\s*>\s+(\w+)"),
    re.compile(r"\b(\w+)\s*=\s*(?:std::move\()?\s*(?:sql::)?"
               r"MiniDatabase::Open\b"),
)
PTHREAD_RE = re.compile(r"\bpthread_\w+\s*\(")
ENDL_RE = re.compile(r"\bstd::endl\b")
INTRINSICS_RE = re.compile(
    r"#\s*include\s*<\w*intrin\.h>|\b_mm\d*_\w+|\b__m(?:128|256|512)\w*\b"
)
# Bare libc socket-family calls. The lookbehind rejects qualified or
# member calls (obj.send(, Socket::Accept(, foo->poll() so only the raw
# global-namespace libc functions fire.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.:>])(?:socket|bind|listen|accept4?|connect|setsockopt|"
    r"getsockopt|getsockname|getpeername|recv|recvfrom|recvmsg|send|"
    r"sendto|sendmsg|shutdown|poll|ppoll|epoll_create1?|epoll_ctl|"
    r"epoll_wait|select|pselect|inet_pton|inet_ntop)\s*\("
)
# A `mutable` data member declaration (`mutable T name;` / `= ...;` /
# `{...};`), and the types such a member may have: locks and atomics, which
# are safe to touch from a const method on many threads. A lambda's
# `mutable` specifier has no type and name after it, so it never matches.
MUTABLE_MEMBER_RE = re.compile(r"^\s*mutable\s+(.+?)\s*\b\w+\s*(?:=|;|\{|\[)")
MUTABLE_ALLOWED_TYPE_RE = re.compile(
    r"^(?:vecdb::)?(?:Mutex|SharedMutex)$|^std::atomic\b"
)

# `Status Foo(`, `Result<T> Foo(`, with optional static/virtual/[[nodiscard]]
# qualifiers -- harvested from headers to drive the discarded-status rule.
STATUS_FN_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+)?(?:virtual\s+)?"
    r"(?:::)?(?:\w+::)*(?:Status|Result<.+>)\s+(\w+)\s*\("
)
# Any other function declaration/definition: used to drop harvested names
# that also exist with a non-Status return type (cross-class collisions,
# e.g. a void Add() next to a Status Add()), which a name-based scan cannot
# tell apart at the call site.
OTHER_FN_RE = re.compile(
    r"^\s*(?:static\s+)?(?:virtual\s+)?(?:inline\s+)?(?:constexpr\s+)?"
    r"(?:const\s+)?[\w:<>,\s*&]+?[\s*&](\w+)\s*\(")
# A line whose statement visibly consumes the returned value.
CONSUMED_RE = re.compile(r"\.(?:ValueOrDie|ok|status|IsNotFound)\s*\(")
# A previous line ending like this means the current line continues it.
CONTINUATION_TAIL_RE = re.compile(r"(?:[,(=+\-*/<>&|?:]|<<|&&|\|\|)\s*$")

COMMENT_OR_STRING_RE = re.compile(r'//.*$|"(?:[^"\\]|\\.)*"')


def strip_comments_and_strings(line):
    """Blanks out comments and string literals so rules skip their text."""
    return COMMENT_OR_STRING_RE.sub(lambda m: " " * len(m.group()), line)


def harvest_status_functions(root, files):
    status_names = set()
    other_names = set()
    for path in files:
        if not path.endswith(".h"):
            continue
        with open(os.path.join(root, path), encoding="utf-8") as f:
            for line in f:
                m = STATUS_FN_RE.match(line)
                if m:
                    status_names.add(m.group(1))
                    continue
                m = OTHER_FN_RE.match(line)
                if m:
                    other_names.add(m.group(1))
    # A name is only usable if every declaration of it returns Status/Result.
    return status_names - other_names


def discarded_status_re(names):
    """A full-line statement `obj.Foo(...);` / `Foo(...);` for a harvested
    name: no assignment, return, wrap, or (void) cast anywhere on the line."""
    alt = "|".join(sorted(names))
    return re.compile(
        r"^\s*(?:\w+(?:\.|->))*(?:%s)\s*\(.*\)\s*;\s*$" % alt
    )


def collect_files(root):
    out = []
    for top in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    return sorted(out)


def lint_file(root, path, status_stmt_re, errors):
    with open(os.path.join(root, path), encoding="utf-8") as f:
        lines = f.read().splitlines()

    allowed_rules_by_line = {}
    for i, line in enumerate(lines, 1):
        for m in ALLOW_RE.finditer(line):
            allowed_rules_by_line.setdefault(i, set()).add(m.group(1))

    used_suppressions = set()  # (lineno, rule) pairs that earned their keep

    def report(lineno, rule, message):
        if rule in allowed_rules_by_line.get(lineno, set()):
            used_suppressions.add((lineno, rule))
            return
        errors.append("%s:%d: [%s] %s" % (path, lineno, rule, message))

    if path.endswith(".h") and not any(
        l.startswith("#pragma once") for l in lines
    ):
        report(1, "pragma-once", "header is missing #pragma once")

    # First pass: names of SearchParams-typed locals, so the removed-field
    # rule can tell `params.profiler` (banned) from `hnsw_opt.profiler`
    # (a different struct, fine). Any access -- read or write -- is banned:
    # the fields no longer exist.
    searchparams_vars = set()
    database_vars = set()
    for raw in lines:
        line = strip_comments_and_strings(raw)
        for m in SEARCHPARAMS_DECL_RE.finditer(line):
            searchparams_vars.add(m.group(1))
        for decl_re in MINIDATABASE_DECL_RES:
            for m in decl_re.finditer(line):
                database_vars.add(m.group(1))
    removed_field_re = None
    if searchparams_vars:
        removed_field_re = re.compile(
            r"\b(?:%s)\s*\.\s*(?:profiler|accounting)\b"
            % "|".join(sorted(searchparams_vars))
        )
    database_execute_re = None
    if database_vars:
        alt = "|".join(sorted(database_vars))
        database_execute_re = re.compile(
            r"(?:\b|\(\s*\*\s*)(?:%s)\s*(?:\)\s*)?(?:->|\.)\s*Execute\s*\("
            % alt
        )

    in_src = path.startswith("src" + os.sep)
    prev_code = ""
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if (removed_field_re and removed_field_re.search(line)) or \
                SEARCHPARAMS_REMOVED_INIT_RE.search(line):
            report(i, "removed-field",
                   "SearchParams::profiler/accounting were removed; "
                   "use the SearchParams::ctx QueryContext fields")
        if NEW_ARRAY_RE.search(line) and path not in NEW_ARRAY_ALLOWED:
            report(i, "new-array",
                   "raw array new/delete; use AlignedFloats or a container")
        if RAW_MUTEX_RE.search(line) and path not in RAW_MUTEX_ALLOWED:
            report(i, "raw-mutex",
                   "raw std:: mutex type; use vecdb::Mutex/SharedMutex from "
                   "common/thread_annotations.h so VECDB_GUARDED_BY and the "
                   "VECDB_TSA gate apply")
        if PTHREAD_RE.search(line):
            report(i, "raw-pthread",
                   "raw pthread_ call; use std::thread or ThreadPool")
        if (INTRINSICS_RE.search(line)
                and not path.startswith(INTRINSICS_ALLOWED_PREFIX)
                and path not in INTRINSICS_ALLOWED):
            report(i, "raw-intrinsics",
                   "raw SIMD intrinsic/include outside src/distance/; go "
                   "through the KernelDispatch registry (distance/dispatch.h) "
                   "so cpuid gating and VECDB_KERNEL_ISA apply")
        if (RAW_SOCKET_RE.search(line)
                and not path.startswith(SOCKET_ALLOWED_PREFIX)):
            report(i, "raw-socket",
                   "raw socket(2)-family call outside src/net/; use the "
                   "Socket/WakePipe/Poll wrappers (net/socket.h)")
        m = MUTABLE_MEMBER_RE.match(line) if in_src else None
        if m and not MUTABLE_ALLOWED_TYPE_RE.search(m.group(1).strip()):
            report(i, "mutable-member",
                   "mutable data member of type '%s'; a const search may "
                   "run on many threads at once, so keep scratch per query "
                   "or per thread (only Mutex, SharedMutex and std::atomic "
                   "may be mutable)" % m.group(1).strip())
        # The raw line: stripping blanks the quoted include path.
        if (path.startswith(ENGINE_INCLUDE_SCOPES)
                and ENGINE_INCLUDE_RE.match(raw)):
            report(i, "engine-include",
                   "engine header included from a front end; reach engines "
                   "through core/factory.h and VectorIndex")
        if in_src and ENDL_RE.search(line):
            report(i, "std-endl", "std::endl flushes; use '\\n'")
        if database_execute_re and database_execute_re.search(line):
            report(i, "database-execute",
                   "MiniDatabase::Execute was removed; CreateSession() "
                   "and call Session::Execute (admission + accounting)")
        if (status_stmt_re.match(line)
                and not CONSUMED_RE.search(line)
                and not CONTINUATION_TAIL_RE.search(prev_code)):
            report(i, "discarded-status",
                   "Status/Result-returning call discarded; handle it, "
                   "propagate it, or cast to (void)")
        if line.strip():
            prev_code = line.rstrip()

    # Suppression audit: every lint-allow must name a real rule AND sit on
    # a line where that rule still fires; anything else has gone stale.
    for lineno, rules in sorted(allowed_rules_by_line.items()):
        for rule in sorted(rules):
            if rule not in KNOWN_RULES:
                errors.append(
                    "%s:%d: [stale-suppression] lint-allow names unknown "
                    "rule '%s'" % (path, lineno, rule))
            elif (lineno, rule) not in used_suppressions:
                errors.append(
                    "%s:%d: [stale-suppression] lint-allow:%s no longer "
                    "fires here; drop the suppression" % (path, lineno, rule))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.getcwd()
    files = collect_files(root)
    if not files:
        print("lint.py: no source files found under %s" % root)
        return 1
    status_stmt_re = discarded_status_re(
        harvest_status_functions(root, files) or {"__none__"}
    )
    errors = []
    for path in files:
        lint_file(root, path, status_stmt_re, errors)
    for err in errors:
        print(err)
    print("lint.py: %d file(s) scanned, %d error(s)" % (len(files), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
