//! Per-layer figures of the traced run.
//!
//! Spans are taken from the benchmark's own code, around each call
//! into a crate's public function; nothing inside the program is
//! instrumented. A layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.build_s", "s"),
    ("sim.engine.new_s", "s"),
    ("sim.par_engine.new_s", "s"),
    ("sim.bitpar.compile_s", "s"),
    ("sim.stimulus.apply_s", "s"),
    ("sim.engine.step_s", "s"),
    ("sim.engine.idle_step_s", "s"),
    ("sim.engine.phase.apply_s", "s"),
    ("sim.engine.phase.resolve_s", "s"),
    ("sim.engine.phase.eval_s", "s"),
    ("sim.engine.phase.exchange_s", "s"),
    ("sim.engine.phase.done_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.evaluations", "count"),
    ("sim.engine.group_resolutions", "count"),
    ("sim.engine.busy_ticks", "count"),
    ("sim.engine.idle_ticks", "count"),
    ("sim.engine.messages_inf", "count"),
    ("sim.par_engine.run_s", "s"),
    ("sim.par_engine.phase.start_s", "s"),
    ("sim.par_engine.phase.apply_s", "s"),
    ("sim.par_engine.phase.resolve_s", "s"),
    ("sim.par_engine.phase.eval_s", "s"),
    ("sim.par_engine.phase.exchange_s", "s"),
    ("sim.par_engine.phase.done_s", "s"),
    ("sim.par_engine.phase.barrier_s", "s"),
    ("sim.par_engine.t_sync_ns", "ns"),
    ("sim.par_engine.t_eval_ns", "ns"),
    ("sim.par_engine.t_msg_ns", "ns"),
    ("sim.stimulus.apply64_s", "s"),
    ("sim.bitpar.settle_s", "s"),
    ("sim.bitpar.sweeps", "count"),
    ("sim.bitpar.compiled_evals", "count"),
    ("sim.bitpar.fallback_events", "count"),
    ("sim.bitpar.unconverged_vectors", "count"),
    ("netlist.text.serialize_s", "s"),
    ("netlist.text.parse_s", "s"),
    ("netlist.text.bytes", "bytes"),
    ("netlist.analyze.preflight_s", "s"),
    ("netlist.analyze.levelize_s", "s"),
    ("netlist.analyze.live_s", "s"),
    ("netlist.analyze.dataflow.activity_s", "s"),
    ("netlist.analyze.dataflow.timing_s", "s"),
    ("netlist.analyze.dataflow.xreach_s", "s"),
    ("netlist.analyze.dataflow.activity.transfers", "count"),
    ("netlist.analyze.dataflow.activity.max_changes", "count"),
    ("netlist.analyze.dataflow.activity.widened", "count"),
    ("netlist.analyze.dataflow.timing.transfers", "count"),
    ("netlist.analyze.dataflow.timing.max_changes", "count"),
    ("netlist.analyze.dataflow.timing.widened", "count"),
    ("netlist.analyze.dataflow.xreach.transfers", "count"),
    ("netlist.analyze.dataflow.xreach.max_changes", "count"),
    ("netlist.analyze.dataflow.xreach.widened", "count"),
    ("netlist.analyze.opt.optimize_s", "s"),
    ("netlist.analyze.opt.rewrites", "count"),
    ("netlist.analyze.unattributed_s", "s"),
    ("partition.multilevel_s", "s"),
    ("netlist.memory_footprint_mb", "MiB"),
    ("workload.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Accumulates per-layer figures when tracing is on.
pub struct Layers {
    on: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            values: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Adds `v` to metric `name` (tracing only). Names outside
    /// [`PER_LAYER`] are working sums that are not reported.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    /// Sets metric `name` to the larger of its value and `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let e = self.values.entry(name).or_insert(0.0);
            *e = e.max(v);
        }
    }

    /// Times `f` into metric `name` when tracing; a plain call otherwise.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_secs_f64());
        r
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, 0 for layers this workload never called.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// A human-readable table of the exercised layers.
    pub fn table(&self, workload: &str) -> String {
        let mut s = format!("per-layer figures, workload {workload}\n");
        for &(name, unit) in PER_LAYER {
            let v = self.get(name);
            if v != 0.0 {
                let _ = writeln!(s, "  {name:<48} {v:>16.6} {unit}");
            }
        }
        s
    }
}
