"""The SimBench suite registry (Figure 3's inventory).

Besides the canonical Figure 3 names, every benchmark (and SPEC proxy
workload) is addressable by a *slug* -- lowercase, dash-separated
(``TLB Eviction`` -> ``tlb-eviction``) -- which is what experiment
manifests and ``repro query`` predicates use: slugs survive shells,
TOML keys and glob patterns without quoting.  :func:`find_benchmarks`
resolves names, slugs and ``fnmatch`` globs over both registries.
"""

import functools
from fnmatch import fnmatchcase

from repro.core.benchmarks import (
    ColdMemoryAccess,
    CoprocessorAccess,
    DataAccessFault,
    ExternalSoftwareInterrupt,
    HotMemoryAccess,
    InstructionAccessFault,
    InterPageDirect,
    InterPageIndirect,
    IntraPageDirect,
    IntraPageIndirect,
    LargeBlocks,
    MemoryMappedDevice,
    NonprivilegedAccess,
    SmallBlocks,
    SystemCall,
    TLBEviction,
    TLBFlush,
    UndefinedInstruction,
)

#: The full suite, in the paper's Figure 3 order.
SUITE = (
    SmallBlocks(),
    LargeBlocks(),
    InterPageDirect(),
    InterPageIndirect(),
    IntraPageDirect(),
    IntraPageIndirect(),
    DataAccessFault(),
    InstructionAccessFault(),
    UndefinedInstruction(),
    SystemCall(),
    ExternalSoftwareInterrupt(),
    MemoryMappedDevice(),
    CoprocessorAccess(),
    ColdMemoryAccess(),
    HotMemoryAccess(),
    NonprivilegedAccess(),
    TLBEviction(),
    TLBFlush(),
)

#: Group names in presentation order.
GROUPS = (
    "Code Generation",
    "Control Flow",
    "Exception Handling",
    "I/O",
    "Memory System",
)

_BY_NAME = {bench.name: bench for bench in SUITE}


def get_benchmark(name):
    """Look up a suite benchmark by its Figure 3 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError("unknown benchmark %r (known: %s)" % (name, ", ".join(_BY_NAME)))


def benchmarks_in_group(group):
    """All suite benchmarks in one of the five groups."""
    found = [bench for bench in SUITE if bench.group == group]
    if not found:
        raise KeyError("unknown group %r (known: %s)" % (group, ", ".join(GROUPS)))
    return found


def slugify(name):
    """The manifest/query slug of a benchmark name (``TLB Flush`` ->
    ``tlb-flush``)."""
    return "-".join(name.lower().split())


def all_benchmarks():
    """Every named runnable: the suite plus the SPEC proxy workloads,
    in registry order (the domain of :func:`find_benchmarks` and of
    the experiment-runner's name resolution)."""
    from repro.workloads import SPEC_PROXIES

    return tuple(SUITE) + tuple(SPEC_PROXIES)


@functools.lru_cache(maxsize=None)
def _exact_index():
    """Lowercase name or slug -> the benchmarks it names, registry order."""
    index = {}
    for bench in all_benchmarks():
        for key in dict.fromkeys((bench.name.lower(), slugify(bench.name))):
            index.setdefault(key, []).append(bench)
    return index


def find_benchmarks(pattern):
    """Benchmarks/workloads whose name or slug matches ``pattern``.

    ``pattern`` is matched case-insensitively as an ``fnmatch`` glob
    against both the canonical name and the slug, so ``tlb-*``,
    ``TLB *`` and ``tlb-flush`` all resolve.  Returns matches in
    registry order; raises :class:`KeyError` when nothing matches.
    A pattern without glob metacharacters matches only by equality,
    so it is looked up directly instead of tried against every name.
    """
    lowered = pattern.lower()
    if any(char in lowered for char in "*?["):
        found = [
            bench
            for bench in all_benchmarks()
            if fnmatchcase(bench.name.lower(), lowered)
            or fnmatchcase(slugify(bench.name), lowered)
        ]
    else:
        found = list(_exact_index().get(lowered, ()))
    if not found:
        raise KeyError(
            "no benchmark or workload matches %r (e.g. %s)"
            % (pattern, ", ".join(slugify(b.name) for b in SUITE[:3]))
        )
    return found
