//! The serial event engine's measured window, its per-layer figures and
//! its checks.

use crate::check::{self, Checks};
use crate::layers::Layers;
use logicsim::netlist::{NetId, Netlist};
use logicsim::sim::{Phase, RandomStimulus, Simulator, Stimulus};
use std::time::Instant;

/// Tick budget for running a circuit to quiescence once its inputs are
/// held.
const QUIESCE_CAP: u64 = 1_000_000;

/// Runs `ticks` ticks of `sim` under `stim`; returns the wall time.
/// Traced, each `Stimulus::apply` and each `step` is its own span, and
/// a step after which `busy_ticks` did not advance counts as idle.
pub fn window(
    sim: &mut Simulator<'_>,
    stim: &mut RandomStimulus,
    ticks: u64,
    layers: &mut Layers,
) -> f64 {
    let end = sim.now() + ticks;
    let t = Instant::now();
    if layers.on() {
        let (mut apply, mut busy, mut idle) = (0.0, 0.0, 0.0);
        while sim.now() < end {
            let t0 = Instant::now();
            stim.apply(sim, sim.now());
            let t1 = Instant::now();
            let before = sim.counters().busy_ticks;
            sim.step();
            let t2 = Instant::now();
            apply += (t1 - t0).as_secs_f64();
            if sim.counters().busy_ticks == before {
                idle += (t2 - t1).as_secs_f64();
            } else {
                busy += (t2 - t1).as_secs_f64();
            }
        }
        layers.add("sim.stimulus.apply_s", apply);
        layers.add("sim.engine.step_s", busy);
        layers.add("sim.engine.idle_step_s", idle);
    } else {
        while sim.now() < end {
            stim.apply(sim, sim.now());
            sim.step();
        }
    }
    t.elapsed().as_secs_f64()
}

/// Adds the serial engine's counters and phase totals to the layers.
pub fn record(sim: &Simulator<'_>, layers: &mut Layers) {
    let c = sim.counters();
    layers.add("sim.engine.events", c.events as f64);
    layers.add("sim.engine.evaluations", c.evaluations as f64);
    layers.add("sim.engine.group_resolutions", c.group_resolutions as f64);
    layers.add("sim.engine.busy_ticks", c.busy_ticks as f64);
    layers.add("sim.engine.idle_ticks", c.idle_ticks as f64);
    layers.add("sim.engine.messages_inf", c.messages_inf as f64);
    let r = sim.obs_report();
    for (phase, name) in [
        (Phase::Apply, "sim.engine.phase.apply_s"),
        (Phase::Resolve, "sim.engine.phase.resolve_s"),
        (Phase::Eval, "sim.engine.phase.eval_s"),
        (Phase::Exchange, "sim.engine.phase.exchange_s"),
        (Phase::Done, "sim.engine.phase.done_s"),
    ] {
        layers.add(name, r.total(phase).total_ns as f64 * 1e-9);
    }
}

/// Counter identities of a measured window of `ticks` ticks: every tick
/// is busy or idle, and an applied event needs an evaluation.
pub fn counter_checks(name: &str, sim: &Simulator<'_>, ticks: u64, checks: &mut Checks) {
    let c = sim.counters();
    checks.check(c.busy_ticks + c.idle_ticks == ticks, || {
        format!(
            "{name}: B + I = {} + {} != window {ticks}",
            c.busy_ticks, c.idle_ticks
        )
    });
    checks.check(c.events <= c.evaluations, || {
        format!("{name}: E = {} > evaluations {}", c.events, c.evaluations)
    });
}

/// Holds the inputs, runs `sim` to quiescence, and checks every sole-
/// driver gate against the Kleene evaluation of its inputs.
pub fn settle_check(name: &str, n: &Netlist, sim: &mut Simulator<'_>, checks: &mut Checks) {
    let cap = sim.now() + QUIESCE_CAP;
    let end = sim.run_to_quiescence(cap);
    let gates = check::sole_driver_gates(n);
    let bad = check::settled_gate_mismatches(n, &gates, |net: NetId| sim.level(net));
    checks.check(end < cap && bad.is_empty(), || {
        format!(
            "{name}: settled-gate check: quiescent={} mismatches={} of {} (first {:?})",
            end < cap,
            bad.len(),
            gates.len(),
            bad.first()
        )
    });
    eprintln!("{name}: settled-gate check over {} gates", gates.len());
}
