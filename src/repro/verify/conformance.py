"""Differential cosimulation conformance harness.

Four (optionally five) execution models evaluate every stimulus pass:

1. **interpreter** — the behavioral CDFG interpreter, the reference for
   primary-output values;
2. **replay** — STG replay under the architecture's *normalized* state
   durations, the reference for per-pass cycle counts;
3. **gatesim** — the bit-level architecture simulator (values + cycles);
4. **netsim** — the emitted Verilog's netlist executed by
   :mod:`repro.hdl.netsim` (values + cycles);
5. **iverilog** — when installed, the printed Verilog text itself,
   compiled and run against a generated self-checking testbench.

Any disagreement is a :class:`Divergence`; the harness then *minimizes*
the first divergent stimulus by greedily shrinking each input toward zero
while the divergence persists, so a scheduling or binding bug reports as
the smallest reproducing input rather than a random 100-pass blob.

Run it from the command line::

    python -m repro verify --all                   # every registry benchmark
    python -m repro verify -b gcd --passes 200     # one benchmark, 200 passes

or programmatically through :meth:`repro.SynthesisEngine.verify`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConformanceError, HDLError, ReproError
from repro.cdfg.graph import CDFG
from repro.cdfg.interpreter import simulate
from repro.gatesim import simulate_architecture
from repro.hdl import (
    NetlistProgram,
    emit_testbench,
    emit_verilog,
    iverilog_available,
    lower_architecture,
    run_iverilog,
    simulate_netlist,
)
from repro.rtl.architecture import Architecture
from repro.sched.replay import replay
from repro.sim.traces import TraceStore
from repro.utils.bitwidth import mask_for_width, wrap_to_width

#: The always-available oracle chain, in comparison order.
BACKENDS = ("interpreter", "replay", "gatesim", "netsim")

#: Trial budget for stimulus minimization.
MAX_MINIMIZE_TRIALS = 256

#: Cap on recorded divergences per run (the first one is what matters).
MAX_DIVERGENCES = 16


@dataclass
class Divergence:
    """One disagreement between two execution models."""

    pass_idx: int
    kind: str               # "output" | "cycles" | "error"
    backend: str            # the model that disagrees with the reference
    detail: str
    stimulus: dict[str, int] = field(default_factory=dict)
    minimized: dict[str, int] | None = None

    def __str__(self) -> str:
        text = (f"pass {self.pass_idx}: {self.backend} {self.kind} "
                f"divergence — {self.detail}")
        if self.minimized is not None:
            text += f" [minimized stimulus: {self.minimized}]"
        return text


@dataclass
class ConformanceReport:
    """Outcome of one differential conformance run."""

    name: str
    n_passes: int
    backends: list[str]
    divergences: list[Divergence]
    total_cycles: int
    iverilog_ran: bool
    wall_s: float
    #: Seconds each execution model took, keyed by backend name.  The
    #: interpreter reads 0 when the caller supplied its trace store.
    model_s: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "n_passes": self.n_passes,
            "backends": list(self.backends),
            "iverilog": self.iverilog_ran,
            "total_cycles": self.total_cycles,
            "divergences": len(self.divergences),
            "wall_s": round(self.wall_s, 3),
            "model_s": {model: round(seconds, 3)
                        for model, seconds in self.model_s.items()},
        }

    def raise_if_failed(self) -> None:
        if not self.ok:
            first = self.divergences[0]
            raise ConformanceError(
                f"{self.name}: {len(self.divergences)} divergence(s); first: {first}")


@contextmanager
def _timed(model_s: dict[str, float], model: str):
    """Add the block's wall time to ``model_s[model]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        model_s[model] = model_s.get(model, 0.0) + time.perf_counter() - t0


def _compiled(netlist):
    """``netlist`` compiled once for repeated netsim runs.

    A netlist that does not compile is returned as is: the oracle chain
    then reports the error as a netsim divergence on every run.
    """
    if isinstance(netlist, NetlistProgram):
        return netlist
    try:
        return NetlistProgram(netlist)
    except HDLError:
        return netlist


def _compare_run(cdfg: CDFG, arch: Architecture, netlist, stimulus,
                 store: TraceStore, model_s: dict[str, float]
                 ) -> tuple[list[Divergence], int]:
    """Run the always-available chain once; returns (divergences, cycles).

    ``netlist`` is a :class:`~repro.hdl.netlist.Netlist` or its
    :class:`~repro.hdl.NetlistProgram`; each model's seconds are added
    into ``model_s``.
    """
    divergences: list[Divergence] = []
    with _timed(model_s, "replay"):
        rep = replay(arch.stg, cdfg, store)
        ref_cycles = [int(c) for c in rep.cycles_under(arch.duration_map())]
    ref_outputs = {k: [int(x) for x in v] for k, v in store.outputs.items()}

    def check_outputs(backend: str, outputs: dict) -> None:
        for out_name, expected in ref_outputs.items():
            got = [int(x) for x in outputs[out_name]]
            for idx, (e, g) in enumerate(zip(expected, got)):
                if e != g and len(divergences) < MAX_DIVERGENCES:
                    divergences.append(Divergence(
                        idx, "output", backend,
                        f"{out_name} = {g}, interpreter says {e}",
                        stimulus=dict(stimulus[idx])))

    def check_cycles(backend: str, cycles, states=None, ref_states=None) -> None:
        for idx, (e, g) in enumerate(zip(ref_cycles, [int(c) for c in cycles])):
            if e != g and len(divergences) < MAX_DIVERGENCES:
                detail = f"{g} cycles, replay says {e}"
                if states is not None and ref_states is not None:
                    detail += (f" (states {states[idx][:12]} vs "
                               f"replay {list(ref_states[idx][:12])})")
                divergences.append(Divergence(
                    idx, "cycles", backend, detail, stimulus=dict(stimulus[idx])))

    def check_mems(backend: str, got_mems: dict) -> None:
        # Memory traffic conformance: after the whole stimulus, every
        # backend must hold the interpreter's exact array image (arrays
        # persist across passes, so a single misrouted store surfaces
        # here even when no output ever reads the clobbered word).
        for array, expected in sorted(store.mem_final.items()):
            got = got_mems.get(array)
            if got is None or got == expected:
                continue
            if len(divergences) >= MAX_DIVERGENCES:
                return
            bad = next(i for i, (e, g) in enumerate(zip(expected, got))
                       if e != g)
            divergences.append(Divergence(
                len(stimulus) - 1, "memory", backend,
                f"array {array!r}[{bad}] = {got[bad]}, interpreter says "
                f"{expected[bad]}",
                stimulus=dict(stimulus[-1]) if stimulus else {}))

    try:
        with _timed(model_s, "gatesim"):
            gs = simulate_architecture(arch, stimulus,
                                       expected_outputs=store.outputs,
                                       record_states=True)
        check_outputs("gatesim", gs.outputs)
        check_cycles("gatesim", gs.cycles, gs.state_seq, rep.state_seq)
        check_mems("gatesim", gs.mems or {})
    except ReproError as exc:
        divergences.append(Divergence(0, "error", "gatesim", str(exc)))

    try:
        # Replay already knows how long each pass should take; a netlist
        # that runs 4x past that has diverged into a non-terminating path.
        cap = max(ref_cycles, default=1) * 4 + 64
        with _timed(model_s, "netsim"):
            ns = simulate_netlist(netlist, stimulus, max_cycles_per_pass=cap)
        check_outputs("netsim", ns.outputs)
        durations = arch.duration_map()
        ns_visits = [visits_from_cycle_trace(seq, durations)
                     for seq in ns.state_seq]
        check_cycles("netsim", ns.cycles, ns_visits, rep.state_seq)
        if store.mem_final:
            # Netsim stores raw word patterns; re-sign each with its
            # array's element type before comparing.
            signed_mems = {}
            for array, (width, signed, _size) in cdfg.array_types.items():
                raw = ns.mems.get(f"mem_{array}")
                if raw is None:
                    continue
                if signed:
                    signed_mems[array] = [wrap_to_width(v, width) for v in raw]
                else:
                    mask = mask_for_width(width)
                    signed_mems[array] = [v & mask for v in raw]
            check_mems("netsim", signed_mems)
    except ReproError as exc:
        divergences.append(Divergence(0, "error", "netsim", str(exc)))

    return divergences, int(sum(ref_cycles))


def visits_from_cycle_trace(seq: list[int],
                            durations: dict[int, int]) -> list[int]:
    """Recover per-visit state ids from a per-cycle FSM trace.

    A state with duration ``d`` occupies ``d`` consecutive trace entries
    per visit; a 1-cycle state self-looping ``k`` times occupies ``k``
    entries for ``k`` distinct visits — so runs must be split by the
    state's duration, not merely de-duplicated.  Ragged runs (a diverged
    netlist stuck mid-state) round up to whole visits.
    """
    visits: list[int] = []
    idx = 0
    while idx < len(seq):
        state = seq[idx]
        run = 1
        while idx + run < len(seq) and seq[idx + run] == state:
            run += 1
        duration = max(1, durations.get(state, 1))
        visits.extend([state] * ((run + duration - 1) // duration))
        idx += run
    return visits


def minimize_stimulus(cdfg: CDFG, arch: Architecture, inputs: dict[str, int],
                      netlist=None) -> dict[str, int]:
    """Greedily shrink a divergent input assignment toward zero.

    Each variable is halved toward zero (then tried at 0 and ±1) while the
    single-pass conformance chain still diverges; trials whose *behavior*
    cannot even be interpreted (e.g. a non-terminating loop) are rejected,
    so minimization cannot trade the original bug for a crash.  The
    netlist (lowered from ``arch`` when not given) is compiled once for
    every trial.
    """
    netlist = _compiled(lower_architecture(arch) if netlist is None
                        else netlist)
    trials = 0

    def diverges(candidate: dict[str, int]) -> bool:
        nonlocal trials
        if trials >= MAX_MINIMIZE_TRIALS:
            return False
        trials += 1
        try:
            store = simulate(cdfg, [candidate])
        except ReproError:
            return False  # behaviorally invalid candidate
        try:
            found, _cycles = _compare_run(cdfg, arch, netlist, [candidate],
                                          store, {})
        except ReproError:
            return True
        return bool(found)

    current = dict(inputs)
    if not diverges(current):
        return current  # not reproducible standalone; report as-is
    improved = True
    while improved and trials < MAX_MINIMIZE_TRIALS:
        improved = False
        for var in sorted(current):
            value = current[var]
            while value != 0:
                smaller = value // 2 if value > 0 else -((-value) // 2)
                trial = {**current, var: smaller}
                if smaller != value and diverges(trial):
                    current = trial
                    value = smaller
                    improved = True
                else:
                    break
            for candidate in (0, 1, -1):
                if current[var] != candidate and abs(candidate) < abs(current[var]):
                    trial = {**current, var: candidate}
                    if diverges(trial):
                        current = trial
                        improved = True
                        break
    return current


def verify_architecture(cdfg: CDFG, arch: Architecture,
                        stimulus: list[dict[str, int]], *,
                        store: TraceStore | None = None,
                        name: str = "impact",
                        use_iverilog: str = "auto",
                        minimize: bool = True) -> ConformanceReport:
    """Differentially cosimulate one architecture over one stimulus.

    ``use_iverilog``: ``"auto"`` runs the external simulator when
    installed, ``"off"`` never, ``"require"`` fails when missing.
    """
    if use_iverilog not in ("auto", "off", "require"):
        raise ConformanceError(f"unknown iverilog mode {use_iverilog!r}")
    if not stimulus:
        # Zero passes compare nothing; an "ok" over them would be vacuous.
        raise ConformanceError(f"{name}: no stimulus passes to verify")
    t0 = time.perf_counter()
    model_s = dict.fromkeys(BACKENDS, 0.0)
    if store is None:
        with _timed(model_s, "interpreter"):
            store = simulate(cdfg, stimulus)
    netlist = lower_architecture(arch, name=name)
    with _timed(model_s, "netsim"):
        program = _compiled(netlist)
    divergences, total_cycles = _compare_run(cdfg, arch, program, stimulus,
                                             store, model_s)

    backends = list(BACKENDS)
    iverilog_ran = False
    want_iverilog = (use_iverilog == "require"
                     or (use_iverilog == "auto" and iverilog_available()))
    if use_iverilog == "require" and not iverilog_available():
        raise ConformanceError("iverilog required but not found on PATH")
    if want_iverilog:
        with _timed(model_s, "iverilog"):
            rep = replay(arch.stg, cdfg, store)
            expected = {k: [int(x) for x in v]
                        for k, v in store.outputs.items()}
            cycles = [int(c) for c in rep.cycles_under(arch.duration_map())]
            tb = emit_testbench(netlist, stimulus, expected, cycles)
            result = run_iverilog(emit_verilog(netlist), tb, name=name)
        iverilog_ran = True
        backends.append("iverilog")
        if not result.passed:
            first_fail = next((line for line in result.log.splitlines()
                               if line.startswith("FAIL")), "see log")
            divergences.append(Divergence(
                -1, "output", "iverilog",
                f"{result.n_checks_failed} testbench checks failed: {first_fail}"))

    if minimize:
        # The first divergence is the actionable one; minimize just it.
        first = next((d for d in divergences if d.stimulus), None)
        if first is not None:
            first.minimized = minimize_stimulus(cdfg, arch, first.stimulus,
                                                netlist=program)

    return ConformanceReport(
        name=name,
        n_passes=len(stimulus),
        backends=backends,
        divergences=divergences,
        total_cycles=total_cycles,
        iverilog_ran=iverilog_ran,
        wall_s=time.perf_counter() - t0,
        model_s=model_s,
    )


def verify_benchmark(name: str, n_passes: int = 100, seed: int = 0, *,
                     use_iverilog: str = "auto",
                     minimize: bool = True,
                     store_dir=None) -> ConformanceReport:
    """Conformance-check one registry benchmark's initial design point.

    ``store_dir`` attaches the persistent artifact store (``None``
    consults ``$REPRO_STORE_DIR``): schedules and replay results are
    reused across runs.  The conformance chain itself always
    re-executes.
    """
    from repro.explore.driver import engine_for_benchmark

    engine = engine_for_benchmark(name, n_passes=n_passes, seed=seed,
                                  store_dir=store_dir)
    return engine.verify(use_iverilog=use_iverilog, minimize=minimize, name=name)

