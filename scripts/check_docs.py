#!/usr/bin/env python3
"""Documentation consistency checks (run by CI, stdlib only).

1. Every bench binary declared in bench/CMakeLists.txt must be mentioned
   in EXPERIMENTS.md -- the file claims to map binaries to paper
   artifacts, so an unmapped binary is documentation drift.
2. Every bench/*.cpp that prints shape checks (calls report_checks) must
   be registered as a `repro` ctest, so tier-1 gates every paper claim.
3. Every example binary declared in examples/CMakeLists.txt must be
   mentioned in EXPERIMENTS.md, README.md, or docs/*.md.
4. Every user-facing flag this script tracks as documentation-worthy
   must appear in the docs and still exist in its binary's source
   (currently: the observability/tuning flags of sweep_cli, and the
   measurement flags of bench/perf_sim).
5. Every relative markdown link in the repo's *.md files must point at a
   file (or directory) that exists.
6. docs/MEMORY_ORDERS.md has a row for every named order site the barrier
   headers declare, with the declared order, and a section per barrier.

Exit status 0 iff all checks pass; offending items are listed on stderr.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories never scanned for markdown (build trees, VCS internals).
SKIP_DIRS = {".git", "build", ".github"}


def bench_targets():
    text = (REPO / "bench" / "CMakeLists.txt").read_text()
    return re.findall(r"armbar_add_(?:bench|repro)\(\s*(\w+)", text)


def check_bench_coverage(errors):
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for target in bench_targets():
        if not re.search(r"\b%s\b" % re.escape(target), experiments):
            errors.append(
                "EXPERIMENTS.md does not mention bench target '%s'" % target
            )


def check_repro_registration(errors):
    """A shape check gates nothing unless ctest runs its binary:
    armbar_add_repro() must still register a `repro`-labelled test, and
    every bench source calling report_checks must be added through it."""
    text = (REPO / "bench" / "CMakeLists.txt").read_text()
    body = re.search(r"function\(armbar_add_repro\b(.*?)endfunction\(\)",
                     text, re.DOTALL)
    if not body or "add_test(" not in body.group(1) \
            or "LABELS repro" not in body.group(1):
        errors.append("bench/CMakeLists.txt: armbar_add_repro() no longer "
                      "registers a ctest labelled repro")
    registered = set(re.findall(r"armbar_add_repro\(\s*(\w+)\s*\)", text))
    for source in sorted((REPO / "bench").glob("*.cpp")):
        if "report_checks(" in source.read_text() \
                and source.stem not in registered:
            errors.append(
                "bench/%s prints shape checks but bench/CMakeLists.txt "
                "does not register it with armbar_add_repro (ctest -L "
                "repro would not run it)" % source.name
            )


def example_targets():
    text = (REPO / "examples" / "CMakeLists.txt").read_text()
    return re.findall(r"armbar_add_example\(\s*(\w+)", text)


def doc_corpus():
    """EXPERIMENTS.md + README.md + docs/*.md, concatenated."""
    parts = []
    for path in (REPO / "EXPERIMENTS.md", REPO / "README.md"):
        if path.exists():
            parts.append(path.read_text())
    for path in sorted((REPO / "docs").glob("*.md")):
        parts.append(path.read_text())
    return "\n".join(parts)


def check_example_coverage(errors):
    corpus = doc_corpus()
    for target in example_targets():
        if not re.search(r"\b%s\b" % re.escape(target), corpus):
            errors.append(
                "no doc (EXPERIMENTS.md/README.md/docs/*.md) mentions "
                "example binary '%s'" % target
            )


# User-facing flags that must stay documented: binary -> (source dir,
# flags).  Covers the observability/tuning flags of the examples and the
# measurement-methodology flags of the perf bench (a perf number is only
# reproducible if the docs say how it was taken).
DOCUMENTED_FLAGS = {
    "sweep_cli": ("examples", ["--metrics", "--autotune", "--prune",
                               "--trace", "--noise", "--burst",
                               "--straggler", "--straggler-dwell",
                               "--link-flap", "--fault-seed", "--jobs",
                               "--daemon", "--workers", "--no-cache",
                               "--deadline-ms", "--max-inflight",
                               "--heatmap", "--hier-geometry",
                               "--hier-ratios"]),
    "perf_sim": ("bench", ["--breakdown", "--warmup-reps", "--reps",
                           "--json", "--hier"]),
    "perf_service": ("bench", ["--jobs", "--distinct", "--workers",
                               "--reps", "--json", "--emit-jobs"]),
    "wmc_check": ("examples", ["--list", "--algo", "--all",
                               "--mutation-suite", "--mutate", "--threads",
                               "--episodes", "--budget", "--seed",
                               "--no-sleep-sets"]),
}


def check_service_examples(errors):
    """docs/SERVICE.md must keep worked examples for both service modes
    and define the cache key — the service contract is only a contract
    while the doc shows how to invoke it."""
    path = REPO / "docs" / "SERVICE.md"
    if not path.exists():
        errors.append("docs/SERVICE.md missing (service contract doc)")
        return
    text = path.read_text()
    for needle, why in [
        ("sweep_cli --daemon", "a worked --daemon example"),
        ("sweep_cli --jobs", "a worked one-shot --jobs example"),
        ("cache key", "the cache-key definition"),
        ("kCacheSchemaVersion", "the cache-invalidation rule"),
        ("byte-identical", "the byte-identity guarantee"),
    ]:
        if needle not in text:
            errors.append("docs/SERVICE.md lost %s ('%s')" % (why, needle))


def check_flag_coverage(errors):
    corpus = doc_corpus()
    for binary, (subdir, flags) in DOCUMENTED_FLAGS.items():
        source = REPO / subdir / ("%s.cpp" % binary)
        if not source.exists():
            errors.append("%s/%s.cpp missing but its flags are "
                          "tracked by check_docs" % (subdir, binary))
            continue
        text = source.read_text()
        for flag in flags:
            if flag not in text:
                errors.append(
                    "%s/%s.cpp no longer implements tracked flag "
                    "'%s' (update DOCUMENTED_FLAGS?)" % (subdir, binary, flag)
                )
            if flag not in corpus:
                errors.append(
                    "no doc mentions %s flag '%s'" % (binary, flag)
                )


# Named order sites as the barrier headers declare them, e.g.
#   inline constexpr Site central_arrive = Site::acq_rel("central.arrive");
SITE_DECL_RE = re.compile(
    r'Site\s+\w+\s*=\s*Site::(\w+)\("([a-z0-9]+\.[a-z0-9_]+)"\)')
# Classes templated on the atomics policy (barriers/atomics.hpp).
POLICY_CLASS_RE = re.compile(
    r"template <typename Atomics = NativeAtomics>\s*class (\w+)")


def barrier_headers():
    for sub in ("barriers", "core"):
        yield from sorted((REPO / "include" / "armbar" / sub).glob("*.hpp"))


def check_memory_orders(errors):
    """docs/MEMORY_ORDERS.md must stay in lockstep with the shipped
    barrier headers, which wmc model-checks directly: every Site a header
    declares needs a `wmc: detected` row giving the same order, every
    `wmc: detected` row must name a declared Site, and every class
    templated on the atomics policy needs a section."""
    doc_path = REPO / "docs" / "MEMORY_ORDERS.md"
    if not doc_path.exists():
        errors.append("docs/MEMORY_ORDERS.md missing (memory-order audit)")
        return
    sites, classes = {}, set()
    for header in barrier_headers():
        text = header.read_text()
        sites.update((site, order)
                     for order, site in SITE_DECL_RE.findall(text))
        classes.update(POLICY_CLASS_RE.findall(text))
    doc = doc_path.read_text()
    rows = {}  # site -> (order, certification)
    for line in doc.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 3 and re.fullmatch(r"`[a-z0-9]+\.[a-z0-9_]+`",
                                           cells[1]):
            rows[cells[1].strip("`")] = (cells[3], cells[-2])
    for site, order in sorted(sites.items()):
        row = rows.get(site)
        if row is None or row[1] != "wmc: detected":
            errors.append("docs/MEMORY_ORDERS.md has no `wmc: detected` row "
                          "for header site '%s'" % site)
        elif row[0] != order:
            errors.append("docs/MEMORY_ORDERS.md gives '%s' as %s, but its "
                          "header declares %s" % (site, row[0], order))
    for site, (_, cert) in sorted(rows.items()):
        if cert == "wmc: detected" and site not in sites:
            errors.append("docs/MEMORY_ORDERS.md certifies '%s', but no "
                          "barrier header declares that site" % site)
    for cls in sorted(classes):
        if not re.search(r"^## .*`%s`" % cls, doc, re.MULTILINE):
            errors.append("docs/MEMORY_ORDERS.md has no section for "
                          "'%s'" % cls)


# [text](target) -- excluding images and ``-quoted code spans; nested
# parens don't occur in our links.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check_links(errors):
    for md in markdown_files():
        for match in LINK_RE.finditer(md.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure intra-document anchor
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    "%s: broken link '%s'"
                    % (md.relative_to(REPO), target)
                )


def main():
    errors = []
    check_bench_coverage(errors)
    check_repro_registration(errors)
    check_example_coverage(errors)
    check_flag_coverage(errors)
    check_service_examples(errors)
    check_memory_orders(errors)
    check_links(errors)
    if errors:
        for err in errors:
            print("check_docs: %s" % err, file=sys.stderr)
        return 1
    n_targets = len(bench_targets())
    n_examples = len(example_targets())
    n_files = len(list(markdown_files()))
    print(
        "check_docs: OK (%d bench + %d example targets mapped, "
        "%d markdown files linked)" % (n_targets, n_examples, n_files)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
