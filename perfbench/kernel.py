"""Host-speed reference kernel.

The host this benchmark runs on is shared: its speed changes by up to 2x
from one moment to the next, and slow spells last longer than any round
of repetitions, so repeating does not average them away. Every timing
the benchmark reports is therefore scaled by the duration of a fixed
pure-Python kernel run right before and right after the measured work,
and expressed in *reference seconds*: the time the work would have taken
on a host where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel imports nothing from ``repro``, so no change to the program
under test can move it. It does the kind of work the pipeline does,
linking and walking small objects spread over a megabyte: when the host
is in its slow mode such work slows about 1.8x, as parsing and tracing
do, where arithmetic on a small working set slows only about 1.5x. It
allocates nothing per iteration, so neither the program's heap nor its
garbage collections change its time, and it changes neither.
"""

from __future__ import annotations

import math
import random
import time

#: kernel time on the reference host, a 2-vCPU x86-64 container running
#: CPython 3.11, at its typical speed
REFERENCE_KERNEL_S = 0.0029


class _Node:
    __slots__ = ("left", "right", "value", "label")

    def __init__(self, value: int):
        self.left = None
        self.right = None
        self.value = value
        self.label = ""


#: Everything the kernel touches is made once, here. A kernel that
#: allocates would time the allocator instead: where its free blocks lie
#: depends on the heap the program under test leaves behind, and a
#: warm-cache process leaves a large, scattered one.
_NODES = [_Node(value) for value in range(12000)]
_SLOTS = 97
_LABELS = tuple(f"n{slot}" for slot in range(_SLOTS))
#: (parent, child) links, in an order shuffled so the walk chases
#: pointers across the whole working set rather than through it in order
_LINKS = [(_NODES[(index - 1) // 2], _NODES[index]) for index in range(1, len(_NODES))]
random.Random(7).shuffle(_LINKS)
_STACK: list = [None] * len(_NODES)
_TALLY = [0] * _SLOTS
#: how many node values fall in each slot, counted without the kernel
_EXPECTED_TALLY = [len(range(slot, len(_NODES), _SLOTS)) for slot in range(_SLOTS)]


def _kernel_once() -> bool:
    """Link the nodes into a binary tree, walk it labelling each node,
    tally the labels and check them: pointer chasing over small objects,
    the work the front end and the tracer do.

    Nothing is allocated per iteration: every int the loops make (slots,
    tallies, the stack depth) is below 257, and CPython keeps those
    preallocated; only the loops' iterators are new objects.
    Returns whether the walk reached and labelled every node correctly.
    """
    nodes, stack, tally, labels, slots = _NODES, _STACK, _TALLY, _LABELS, _SLOTS
    for node in nodes:
        node.left = node.right = None
    for parent, child in _LINKS:
        if parent.left is None:
            parent.left = child
        else:
            parent.right = child
    for slot in range(slots):
        tally[slot] = 0
    stack[0] = nodes[0]
    depth = 1
    while depth:
        depth -= 1
        node = stack[depth]
        slot = node.value % slots
        node.label = labels[slot]
        tally[slot] += 1
        if node.left is not None:
            stack[depth] = node.left
            depth += 1
        if node.right is not None:
            stack[depth] = node.right
            depth += 1
    for node in nodes:
        if node.label is not labels[node.value % slots]:
            return False
    return tally == _EXPECTED_TALLY


def kernel_seconds() -> float:
    """One kernel run, timed after an untimed warm-up run.

    The host flips between a fast and a ~1.8x slower mode every 10-50 ms
    (slow spells are stretches where it sits in the slow mode more
    often), so only samples taken right around a piece of work tell the
    speed that work ran at. The warm-up brings the kernel back into the
    CPU caches after the work that ran before it.
    """
    for _timed in (False, True):
        started = time.perf_counter()
        correct = _kernel_once()
        elapsed = time.perf_counter() - started
        # checked on every run, so an interpreter that skips or
        # mis-executes the kernel cannot pass for a fast host
        if not correct:
            raise RuntimeError("reference kernel returned a wrong result")
    return elapsed


def reference_factor(before: float, after: float) -> float:
    """The factor that turns a raw duration, measured between kernel
    samples ``before`` and ``after``, into reference seconds: nominal
    kernel time over the samples' geometric mean."""
    return REFERENCE_KERNEL_S / math.sqrt(before * after)


class HostClock:
    """Kernel samples taken around the work, all kept for the run's
    host record."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel now and return its time."""
        sample = kernel_seconds()
        self.samples.append(sample)
        return sample

    def timed(self, work) -> float:
        """Run ``work()`` between two samples; its time in reference
        seconds."""
        stretches = Stretches(self)
        work()
        (factor,) = stretches.close()
        return stretches.durations[0] * factor


class Stretches:
    """Consecutive stretches of work with a kernel sample before, after
    and between them: a piece of work starts a new stretch with
    :meth:`split` when it runs too short to share a sample with the
    next."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.samples = [clock.sample()]
        #: raw duration of each closed stretch
        self.durations: list[float] = []
        self._started = time.perf_counter()

    @property
    def index(self) -> int:
        """The number of the stretch running now."""
        return len(self.durations)

    def split(self) -> None:
        self.durations.append(time.perf_counter() - self._started)
        self.samples.append(self.clock.sample())
        self._started = time.perf_counter()

    def close(self) -> list[float]:
        """End the last stretch; every stretch's reference factor."""
        self.split()
        return [
            reference_factor(before, after)
            for before, after in zip(self.samples, self.samples[1:])
        ]
