#!/usr/bin/env python3
"""prooflab-lint: project-specific invariant lint for the prooflab codebase.

The generic analyzers (Clang thread-safety, clang-tidy, TSan) check locking
and memory errors; this tool enforces the *project* rules that keep verdicts
deterministic and observability off the hot path — invariants the paper's
model demands (a PLS decoder is a deterministic local function of the ball)
and that every PR re-proves only at runtime via differential tests.

Rules (docs/static-analysis.md has the rationale for each):

  R1  hot-path discipline   — no heap allocation, locking, or failpoint
                              evaluation in per-event leaves: function
                              definitions tagged PLS_HOT
                              (src/util/thread_annotations.hpp).
  R2  explicit memory_order — every std::atomic load/store/RMW names its
                              memory_order; no implicit seq_cst, no atomic
                              operator++/--/+=/=.
  R3  deterministic orders  — no iteration over unordered containers in
                              verdict-producing or class-id-interning
                              functions (ordering must come from node ids).
  R4  seeded randomness     — no ambient entropy (rand, random_device,
                              wall/steady clocks) in src/pls, src/radius,
                              src/schemes; randomness flows through seeded
                              util::Rng (the --seed discipline).
  R5  obs one-way           — verdict-producing functions never *write*
                              obs:: state (no spans, timers, counters) and
                              never evaluate failpoints; reads are fine.
                              Neither observability nor fault injection may
                              be able to perturb a verdict.
  R6  include-clean headers — every public header compiles standalone.

The driver consumes compile_commands.json (file list, include dirs, -std)
and prints `file:line: [Rx] message` diagnostics.  `// prooflab-lint:
allow(Rx)` on (or immediately above) a line suppresses that rule there;
inside the enforced root (src/, --enforce-root) the allow budget is zero:
each suppression is itself reported.

The frontend is a dependency-free lexical analyzer (comment/string-aware
tokenizer plus a top-level function extractor); the container image carries
no libclang, and the rules above are deliberately expressible on token
streams so the lint runs identically everywhere the tests run.  R6 shells
out to the configured C++ compiler (--cxx), one -fsyntax-only TU per header.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

ALL_RULES = ("R1", "R2", "R3", "R4", "R5", "R6")

ALLOW_RE = re.compile(r"//\s*prooflab-lint:\s*allow\(([^)]*)\)")

# ---------------------------------------------------------------------------
# Lexical frontend
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Returns text of identical length/offsets with comment bodies and
    string/char literal contents replaced by spaces (newlines preserved)."""
    out = list(text)
    i, n = 0, len(text)
    CODE, LINE, BLOCK, STR, CHAR, RAW = range(6)
    state = CODE
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim"
                m = re.match(r'R"([^()\\ ]*)\(', text[i - 1 : i + 20]) if i >= 1 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = RAW
                else:
                    state = STR
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
            i += 1
        elif state == LINE:
            if c == "\n":
                state = CODE
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = CODE
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state == STR:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = CODE
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == CHAR:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                state = CODE
            elif c != "\n":
                out[i] = " "
            i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                for j in range(len(raw_delim) - 1):
                    out[i + j] = " "
                i += len(raw_delim)
                state = CODE
                continue
            if c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


NAME_RE = re.compile(r"((?:[\w~]+\s*::\s*)*(?:operator\s*[^\s(]{1,3}|[\w~]+))\s*$")
TAIL_OK_RE = re.compile(
    r"^(?:\s|const\b|noexcept\b|override\b|final\b|mutable\b|->\s*[\w:<>,\s*&]+)*$"
)


class Function:
    __slots__ = ("name", "sig", "sig_start", "body_start", "body_end")

    def __init__(self, name, sig, sig_start, body_start, body_end):
        self.name = name  # qualified, e.g. "TraceRecorder::record"
        self.sig = sig  # signature text (return type, attrs, params)
        self.sig_start = sig_start  # offset of signature start
        self.body_start = body_start  # offset of '{'
        self.body_end = body_end  # offset just past '}'


def _match_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def extract_functions(stripped):
    """Top-level function definitions (including class methods and functions
    in namespaces).  Lexical: good enough for the rule set; bodies include
    any lambdas they contain."""
    funcs = []

    def scan(begin, end):
        seg_start = begin
        i = begin
        while i < end:
            c = stripped[i]
            if c in ";}":
                seg_start = i + 1
                i += 1
                continue
            if c != "{":
                i += 1
                continue
            seg = stripped[seg_start:i]
            close = _match_brace(stripped, i)
            if re.search(r"\bnamespace\b", seg) and "(" not in seg:
                scan(i + 1, close - 1)
                seg_start = close
                i = close
                continue
            mclass = re.search(r"\b(class|struct|union)\b", seg)
            if mclass and not re.search(r"\)\s*$", seg.rstrip()):
                scan(i + 1, close - 1)  # methods inside
                seg_start = close
                i = close
                continue
            if re.search(r"\benum\b", seg):
                seg_start = close
                i = close
                continue
            # Function?  After the last ')', only qualifier tokens may remain
            # (a ctor's member-init list also ends with ')').
            rp = seg.rfind(")")
            if rp != -1 and TAIL_OK_RE.match(seg[rp + 1 :]):
                lp = seg.find("(")
                m = NAME_RE.search(seg[:lp]) if lp > 0 else None
                if m and m.group(1) not in ("if", "for", "while", "switch", "catch"):
                    funcs.append(
                        Function(
                            re.sub(r"\s+", "", m.group(1)),
                            seg,
                            seg_start,
                            i,
                            close,
                        )
                    )
                    seg_start = close
                    i = close
                    continue
            # Plain block / brace initializer: skip it.
            seg_start = close
            i = close

    scan(0, len(stripped))
    return funcs


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Findings and suppression
# ---------------------------------------------------------------------------


class FileLint:
    def __init__(self, path, display, text):
        self.path = path
        self.display = display
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        self.lines = text.split("\n")
        self.allows = {}  # line -> set of rules allowed there
        for idx, line in enumerate(self.lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.allows[idx] = rules
        self.functions = extract_functions(self.stripped)
        self.findings = []  # (line, rule, message)
        self.used_allows = []  # (line, rule)

    def report(self, offset_or_line, rule, message, by_line=False):
        line = offset_or_line if by_line else line_of(self.text, offset_or_line)
        # An allow on the same line or the line above suppresses (and is
        # accounted against the enforce-root budget by the driver).
        for lno in (line, line - 1):
            if rule in self.allows.get(lno, ()):  # suppressed
                self.used_allows.append((lno, rule))
                return
        self.findings.append((line, rule, message))


# ---------------------------------------------------------------------------
# R1 — hot-path discipline
# ---------------------------------------------------------------------------

R1_ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\baligned_alloc\s*\(|"
    r"\bmake_unique\b|\bmake_shared\b|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\bemplace\s*\(|\breserve\s*\(|\bresize\s*\(|\bto_string\s*\("
)
R1_LOCK_RE = re.compile(
    r"\block_guard\b|\bunique_lock\b|\bscoped_lock\b|\bMutexLock\b|"
    r"(?:\.|->)\s*lock\s*\(|(?:\.|->)\s*unlock\s*\(|\btry_lock\b|\bCondVar\b"
)
# A failpoint site takes the registry mutex even when disarmed (and the
# macro's cost moves with the build flag), so hot leaves must stay clean of
# them just like locks; injection belongs at subsystem boundaries.
R1_FAILPOINT_RE = re.compile(
    r"\bPLS_FAILPOINT\b|\bfailpoint\s*::\s*(?:evaluate|draw)\b"
)


def run_r1(fl):
    for fn in fl.functions:
        if "PLS_HOT" not in fn.sig:
            continue
        body = fl.stripped[fn.body_start : fn.body_end]
        for regex, what in (
            (R1_ALLOC_RE, "heap allocation"),
            (R1_LOCK_RE, "locking"),
            (R1_FAILPOINT_RE, "fault injection"),
        ):
            for m in regex.finditer(body):
                fl.report(
                    fn.body_start + m.start(),
                    "R1",
                    f"{what} ('{m.group(0).strip()}') inside PLS_HOT function "
                    f"'{fn.name}' — per-event leaves must be allocation- and "
                    "lock-free",
                )


# ---------------------------------------------------------------------------
# R2 — explicit memory_order on every atomic access
# ---------------------------------------------------------------------------

R2_CALL_RE = re.compile(
    r"[.>]\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set|"
    r"clear|wait)\s*\("
)
R2_METHODS_NEEDING_ORDER = {
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
}
ATOMIC_DECL_RE = re.compile(
    r"\bstd\s*::\s*atomic(?:_bool|_int|_uint|_size_t|_flag)?\s*(?:<[^;{}()]*>)?\s+(\w+)"
)


def _balanced_args(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1 : i]
    return text[open_pos + 1 :]


def run_r2(fl):
    s = fl.stripped
    atomics = set(ATOMIC_DECL_RE.findall(s))
    atomic_decl_lines = {
        line_of(fl.text, m.start()) for m in ATOMIC_DECL_RE.finditer(s)
    }
    for m in R2_CALL_RE.finditer(s):
        method = m.group(1)
        if method not in R2_METHODS_NEEDING_ORDER:
            continue
        args = _balanced_args(s, m.end() - 1)
        if "memory_order" in args:
            continue
        # Only flag when the receiver looks atomic: a declared atomic name,
        # an indexed/array receiver of one, or any receiver when the file
        # declares atomics at all and the method is atomic-specific.
        recv = s[max(0, m.start() - 64) : m.start()]
        recv_id = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)?$", recv)
        atomic_specific = method.startswith(("fetch_", "compare_exchange"))
        if not (
            atomic_specific
            or (recv_id and recv_id.group(1) in atomics)
        ):
            continue
        fl.report(
            m.start(),
            "R2",
            f"atomic .{method}() without an explicit memory_order "
            "(implicit seq_cst must be spelled out and justified)",
        )
    # Operator forms on declared atomics: ++, --, +=, -=, |=, &=, ^=, and
    # plain assignment (all implicit seq_cst).
    for name in atomics:
        op_re = re.compile(
            r"(?:\+\+|--)\s*" + re.escape(name) + r"\b|"
            r"\b" + re.escape(name) + r"\s*(?:\+\+|--|(?:[-+|&^]|<<|>>)?=(?!=))"
        )
        for m in op_re.finditer(s):
            line = line_of(fl.text, m.start())
            if line in atomic_decl_lines:
                continue  # declaration initializer, not an atomic RMW
            # A local/member *declaration* of the same name (e.g.
            # `const std::uint64_t recorded = ...`) is not an atomic access:
            # skip when a declarator type immediately precedes the name.
            # `obj->name = x` (prev is '->') is a real member write and stays.
            before = s[: m.start()].rstrip()
            if before and (before[-1].isalnum() or before[-1] == "_"):
                continue
            if before.endswith(">") and not before.endswith("->"):
                continue  # template close of the declarator's type
            fl.report(
                m.start(),
                "R2",
                f"operator access to std::atomic '{name}' (implicit seq_cst); "
                "use an explicit .load/.store/.fetch_* with a memory_order",
            )


# ---------------------------------------------------------------------------
# R3 / R5 — verdict-producing function classification
# ---------------------------------------------------------------------------

# A function is verdict-producing (R5; decoder set) when its unqualified name
# starts with verify/decode or is parse_cert; R3 additionally covers the
# class-id interning/link functions and the stage-2 memo builders (memo*),
# whose outputs — class ids, group ids — feed verdict comparisons.
DECODER_NAME_RE = re.compile(r"(?:^|::)(verify\w*|decode\w*|parse_cert)$")
LINKER_NAME_RE = re.compile(r"(?:^|::)(intern\w*|(?:re)?link\w*|memo\w*)$")
# Lazy template body: a greedy one would run past the container's closing
# '>' to a later parameter's and name that parameter instead.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[\s&]*(\w+)\s*[;({=,)]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def _unordered_names(stripped):
    return set(UNORDERED_DECL_RE.findall(stripped))


def run_r3(fl):
    names = _unordered_names(fl.stripped)
    # A .cpp's member containers are declared in its own header (a linker
    # class's intern table, say): their names count too.
    header = os.path.splitext(fl.path)[0] + ".hpp"
    if fl.path.endswith(".cpp") and os.path.exists(header):
        with open(header, encoding="utf-8", errors="replace") as fh:
            names |= _unordered_names(strip_comments_and_strings(fh.read()))
    if not names:
        return
    for fn in fl.functions:
        base = fn.name
        if not (DECODER_NAME_RE.search(base) or LINKER_NAME_RE.search(base)):
            continue
        body = fl.stripped[fn.body_start : fn.body_end]
        for m in RANGE_FOR_RE.finditer(body):
            args = _balanced_args(body, m.end() - 1)
            if ":" not in args:
                continue
            target = args.rsplit(":", 1)[1].strip()
            tgt_id = re.search(r"(\w+)\s*$", target)
            if tgt_id and tgt_id.group(1) in names:
                fl.report(
                    fn.body_start + m.start(),
                    "R3",
                    f"iteration over unordered container '{tgt_id.group(1)}' in "
                    f"verdict/class-id function '{fn.name}' — hash order is not "
                    "deterministic; order by node id instead",
                )
        for name in names:
            it_re = re.compile(r"\b" + re.escape(name) + r"\s*\.\s*(?:begin|cbegin)\s*\(")
            for m in it_re.finditer(body):
                fl.report(
                    fn.body_start + m.start(),
                    "R3",
                    f"iterator over unordered container '{name}' in verdict/"
                    f"class-id function '{fn.name}' — hash order is not "
                    "deterministic; order by node id instead",
                )


# ---------------------------------------------------------------------------
# R4 — seeded randomness only in verify paths
# ---------------------------------------------------------------------------

R4_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)|"
    r"\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b|\bclock\s*\(\s*\)"
)


def run_r4(fl, scopes):
    norm = fl.display.replace(os.sep, "/")
    if scopes and not any(scope in norm for scope in scopes):
        return
    for m in R4_RE.finditer(fl.stripped):
        fl.report(
            m.start(),
            "R4",
            f"ambient entropy/clock '{m.group(0).strip()}' in a verify path — "
            "all randomness flows through seeded util::Rng (--seed discipline), "
            "clocks belong to obs/bench layers",
        )


# ---------------------------------------------------------------------------
# R5 — obs:: written (or failpoints evaluated) from verdict-producing
# functions
# ---------------------------------------------------------------------------

R5_WRITE_RE = re.compile(
    r"\bPLS_FAILPOINT\b|\bfailpoint\s*::\s*(?:evaluate|draw)\b|"
    r"\bPLS_TRACE_SPAN\b|\bTraceSpan\b|\bScopedTimer\b|\bset_gauge\s*\(|"
    r"\babsorb\s*\(|\bTraceRecorder\s*::\s*(?:enable|disable|record)\b|"
    r"\bobs\s*::\s*(?!TraceRecorder\s*::\s*enabled|MetricsSnapshot|"
    r"HistogramSnapshot|Counter\b|Histogram\b|MetricsRegistry\b|JsonWriter)\w+"
)


def run_r5(fl):
    for fn in fl.functions:
        if not DECODER_NAME_RE.search(fn.name):
            continue
        body = fl.stripped[fn.body_start : fn.body_end]
        for m in R5_WRITE_RE.finditer(body):
            fl.report(
                fn.body_start + m.start(),
                "R5",
                f"side effect '{m.group(0).strip()}' inside verdict-producing "
                f"function '{fn.name}' — decoders may read obs state but never "
                "mutate it or evaluate failpoints (nothing that can perturb a "
                "verdict belongs in a decoder)",
            )


# ---------------------------------------------------------------------------
# R6 — include-clean public headers
# ---------------------------------------------------------------------------


def run_r6(headers, include_dirs, cxx, std, extra_defs, results_out):
    def check(header):
        rel = header["rel"]
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", prefix="prooflab_lint_r6_", delete=False
        ) as tu:
            tu.write(f'#include "{rel}"\n')
            tu_path = tu.name
        cmd = [cxx, f"-std={std}", "-fsyntax-only", "-Wno-pragma-once-outside-header"]
        cmd += [f"-I{d}" for d in include_dirs]
        cmd += extra_defs + [tu_path]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        finally:
            os.unlink(tu_path)
        if proc.returncode != 0:
            first = next(
                (l for l in proc.stderr.splitlines() if "error" in l), proc.stderr[:200]
            )
            return (header["display"], 1, "R6", f"header does not compile standalone: {first}")
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count()) as ex:
        for res in ex.map(check, headers):
            if res is not None:
                results_out.append(res)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="prooflab-lint", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("files", nargs="*", help="explicit files to lint (else: src root)")
    ap.add_argument("--compile-commands", help="compile_commands.json (include dirs, -std, file list)")
    ap.add_argument("--src-root", help="lint every .hpp/.cpp under this directory")
    ap.add_argument("--rules", default=",".join(ALL_RULES), help="comma list, default all")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"), help="compiler for R6")
    ap.add_argument("--std", default="c++20")
    ap.add_argument("-I", "--include-dir", action="append", default=[], dest="include_dirs")
    ap.add_argument(
        "--enforce-root",
        default="src",
        help="path fragment under which the allow() budget applies (default: src)",
    )
    ap.add_argument(
        "--allow-budget",
        type=int,
        default=0,
        help="allowed number of allow() suppressions under --enforce-root (default 0)",
    )
    ap.add_argument(
        "--r4-scope",
        default="src/pls,src/radius,src/schemes",
        help="comma list of path fragments R4 applies to; empty = everywhere",
    )
    ap.add_argument("--list-rules", action="store_true")
    return ap.parse_args(argv)


def collect_files(args):
    files = []
    seen = set()

    def add(path):
        ap_ = os.path.abspath(path)
        if ap_ not in seen and os.path.isfile(ap_):
            seen.add(ap_)
            files.append(ap_)

    for f in args.files:
        add(f)
    roots = []
    if args.src_root:
        roots.append(args.src_root)
    if args.compile_commands and not files and not roots:
        with open(args.compile_commands) as fh:
            for entry in json.load(fh):
                f = entry["file"]
                if not os.path.isabs(f):
                    f = os.path.join(entry["directory"], f)
                add(f)
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    add(os.path.join(dirpath, name))
    return files


def compile_flags_from_db(args):
    include_dirs = list(args.include_dirs)
    std = args.std
    defs = []
    if args.compile_commands and os.path.isfile(args.compile_commands):
        try:
            with open(args.compile_commands) as fh:
                db = json.load(fh)
            if db:
                cmd = db[0].get("command") or " ".join(db[0].get("arguments", []))
                for m in re.finditer(r"-I\s*(\S+)", cmd):
                    include_dirs.append(m.group(1))
                for m in re.finditer(r"-isystem\s*(\S+)", cmd):
                    include_dirs.append(m.group(1))
                m = re.search(r"-std=(\S+)", cmd)
                if m:
                    std = m.group(1)
                defs = re.findall(r"(-D\S+)", cmd)
        except (OSError, ValueError, KeyError):
            pass
    return include_dirs, std, defs


def main(argv=None):
    args = parse_args(argv)
    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"prooflab-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    files = collect_files(args)
    if not files:
        print("prooflab-lint: no input files", file=sys.stderr)
        return 2
    r4_scopes = [s for s in args.r4_scope.split(",") if s]
    cwd = os.getcwd()

    all_findings = []  # (display, line, rule, message)
    headers = []
    enforce_allow_count = 0
    enforce_allow_sites = []

    for path in files:
        display = os.path.relpath(path, cwd)
        if display.startswith(".."):
            display = path
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print(f"prooflab-lint: cannot read {display}: {e}", file=sys.stderr)
            return 2
        fl = FileLint(path, display, text)
        if "R1" in rules:
            run_r1(fl)
        if "R2" in rules:
            run_r2(fl)
        if "R3" in rules:
            run_r3(fl)
        if "R4" in rules:
            run_r4(fl, r4_scopes)
        if "R5" in rules:
            run_r5(fl)
        for line, rule, msg in fl.findings:
            all_findings.append((fl.display, line, rule, msg))
        norm = fl.display.replace(os.sep, "/")
        if args.enforce_root and (
            norm.startswith(args.enforce_root.rstrip("/") + "/")
            or f"/{args.enforce_root.strip('/')}/" in norm
        ):
            for lno, rule in fl.used_allows:
                enforce_allow_count += 1
                enforce_allow_sites.append((fl.display, lno, rule))
        if "R6" in rules and path.endswith((".hpp", ".h")):
            # The include path is header-relative to some -I root; compute
            # against the deepest matching include dir, else the src root.
            headers.append({"path": path, "display": fl.display, "rel": None})

    if "R6" in rules and headers:
        include_dirs, std, defs = compile_flags_from_db(args)
        if args.src_root and os.path.abspath(args.src_root) not in [
            os.path.abspath(d) for d in include_dirs
        ]:
            include_dirs.append(args.src_root)
        for h in headers:
            rel = None
            for d in sorted(include_dirs, key=len, reverse=True):
                da = os.path.abspath(d)
                if h["path"].startswith(da + os.sep):
                    rel = os.path.relpath(h["path"], da)
                    break
            h["rel"] = rel if rel is not None else h["path"]
        r6_results = []
        run_r6(headers, include_dirs, args.cxx, std, defs, r6_results)
        all_findings.extend(r6_results)

    over_budget = max(0, enforce_allow_count - args.allow_budget)
    if over_budget:
        for display, lno, rule in enforce_allow_sites[-over_budget:]:
            all_findings.append(
                (
                    display,
                    lno,
                    rule,
                    f"allow({rule}) suppression under {args.enforce_root}/ exceeds "
                    f"the budget ({args.allow_budget}) — fix the code or move it "
                    "out of the enforced root",
                )
            )

    all_findings.sort(key=lambda f: (f[0], f[1]))
    for display, line, rule, msg in all_findings:
        print(f"{display}:{line}: [{rule}] {msg}")
    if all_findings:
        print(f"prooflab-lint: {len(all_findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
