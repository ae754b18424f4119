//! The measured pipeline every workload runs on its own circuits:
//!
//! 1. set-up: build (or generate, serialize and parse) the circuits and
//!    construct the three engines — `setup_s`;
//! 2. engine rounds: one window per circuit on the serial `Simulator`,
//!    then the same window on `ParSimulator` with one worker —
//!    `events_per_s`, `par_events_per_s`;
//! 3. vector rounds: 64-lane `BitParSim` vectors fed by `Stimulus64` —
//!    `scenarios_per_s`;
//! 4. static rounds: `analyze_seeded` and `multilevel_assignment` into
//!    two parts — `lint_s`, `partition_s`, `cut_weight`.
//!
//! A workload sets the circuits, the window and vector counts, and the
//! share of `--seconds` each phase gets. Checks run outside every timed
//! region.

use crate::check::{self, Checks};
use crate::cpu::Cpus;
use crate::layers::Layers;
use crate::{median, peak_rss_mb, serial, timed, Args, Outcome};
use logicsim::circuits::BenchmarkInstance;
use logicsim::measure::measured_params;
use logicsim::netlist::analyze::dataflow::activity::Activity;
use logicsim::netlist::analyze::dataflow::timing::Timing;
use logicsim::netlist::analyze::dataflow::xreach::XReach;
use logicsim::netlist::analyze::dataflow::Solution;
use logicsim::netlist::analyze::{self, opt, AnalyzeConfig, Levelization, Report};
use logicsim::netlist::{CompId, NetId, Netlist};
use logicsim::partition::{cut_size, multilevel_assignment, MultilevelPartitioner, Partition};
use logicsim::sim::{
    BitParSim, BitParStats, ParSimulator, Phase, RandomStimulus, SimConfig, Simulator, Stimulus64,
};
use std::time::Instant;

pub const LANES: usize = 64;
/// Lanes whose state is checked.
pub const CHECKED_LANES: [usize; 3] = [0, 31, 63];
/// Parts of the static rounds' partition: a bisection, as the
/// partition check expects.
pub const PARTS: u32 = 2;
/// The partitioner's seed, fixed so `cut_weight` repeats exactly.
pub const PARTITION_SEED: u64 = 0x1987;
/// Every this many vectors, the checked lanes get the settled-gate check.
const SAMPLE_EVERY: u64 = 200;

/// One circuit of a workload with its per-round work.
pub struct Input {
    pub name: String,
    pub inst: BenchmarkInstance,
    /// Ticks per engine window.
    pub window: u64,
    /// `BitParSim` vectors per vector round.
    pub vectors: u64,
    /// The text form of the circuit and the netlist parsed from it,
    /// when the workload starts from text; the static rounds analyze
    /// the parsed netlist.
    pub text: Option<(String, Netlist)>,
}

impl Input {
    /// The netlist the static rounds analyze.
    pub fn static_netlist(&self) -> &Netlist {
        self.text.as_ref().map_or(&self.inst.netlist, |(_, n)| n)
    }
}

/// What a workload runs.
pub struct Spec {
    pub name: &'static str,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Builds the circuits; spans `circuits.build_s` and, for text
    /// inputs, `netlist.text.serialize_s` and `netlist.text.parse_s`.
    pub build: fn(&mut Layers) -> Vec<Input>,
    /// Shares of `--seconds` for the engine, vector and static rounds.
    pub shares: [f64; 3],
    /// Rounds of each phase in the traced run.
    pub traced_rounds: [usize; 3],
    /// Checks particular to the workload, given the inputs and the
    /// last static round.
    pub extra_checks: fn(&[Input], &StaticRound, u64, &mut Checks),
}

struct Circuit<'a> {
    input: &'a Input,
    sim: Simulator<'a>,
    par: ParSimulator<'a>,
    bp: BitParSim<'a>,
    stim: RandomStimulus,
    pstim: RandomStimulus,
    stim64: Stimulus64,
    /// Gates the settled-gate check reads; filled in after set-up.
    gates: Vec<CompId>,
    /// Ticks measured since the warm-up.
    ticks: u64,
    /// First divergence of the two engines' counters.
    diverged: Option<String>,
    /// Vectors applied so far.
    vectors: u64,
    bp_base: BitParStats,
    lane_samples: u64,
    lane_bad: Option<String>,
}

fn engines<'a>(inputs: &'a [Input], seed: u64, layers: &mut Layers) -> Vec<Circuit<'a>> {
    let config = SimConfig {
        observe: layers.on(),
        ..SimConfig::default()
    };
    inputs
        .iter()
        .map(|input| {
            let n = &input.inst.netlist;
            let sim = layers.span("sim.engine.new_s", || {
                Simulator::with_config(n, config.clone()).expect("pre-flight")
            });
            // One part: every gate and switch on the single worker.
            let part: Vec<u32> = n
                .components()
                .iter()
                .map(|c| {
                    if c.is_gate() || c.is_switch() {
                        0
                    } else {
                        u32::MAX
                    }
                })
                .collect();
            let par = layers.span("sim.par_engine.new_s", || {
                ParSimulator::with_config(n, &part, 1, config.clone()).expect("pre-flight")
            });
            let bp = layers.span("sim.bitpar.compile_s", || {
                BitParSim::new(n, LANES).expect("pre-flight")
            });
            let spec = &input.inst.stimulus;
            let stim = spec.build(n, seed).expect("stimulus resolves");
            Circuit {
                input,
                sim,
                par,
                bp_base: bp.stats(),
                bp,
                pstim: stim.clone(),
                stim,
                stim64: Stimulus64::new(spec, n, seed, LANES).expect("stimulus resolves"),
                gates: Vec::new(),
                ticks: 0,
                diverged: None,
                vectors: 0,
                lane_samples: 0,
                lane_bad: None,
            }
        })
        .collect()
}

fn par_window(c: &mut Circuit<'_>, ticks: u64) {
    let (par, pstim) = (&mut c.par, &mut c.pstim);
    let until = par.now() + ticks;
    par.run_with(until, |tick, f| {
        pstim.apply_with(tick, |net, l| f.set(net, l))
    });
}

/// Applies and settles `count` vectors; returns the wall time. Every
/// `SAMPLE_EVERY`-th vector, outside the timed region, the checked
/// lanes get the settled-gate check.
fn vectors(c: &mut Circuit<'_>, count: u64, layers: &mut Layers) -> f64 {
    let mut wall = 0.0;
    let end = c.vectors + count;
    while c.vectors < end {
        let stop = ((c.vectors / SAMPLE_EVERY + 1) * SAMPLE_EVERY).min(end);
        let (bp, stim64) = (&mut c.bp, &mut c.stim64);
        let t = Instant::now();
        if layers.on() {
            let (mut apply, mut settle) = (0.0, 0.0);
            for v in c.vectors..stop {
                let t0 = Instant::now();
                stim64.apply_with(v, |net, p| bp.set_input_plane(net, p));
                let t1 = Instant::now();
                bp.settle_vector();
                apply += (t1 - t0).as_secs_f64();
                settle += t1.elapsed().as_secs_f64();
            }
            layers.add("sim.stimulus.apply64_s", apply);
            layers.add("sim.bitpar.settle_s", settle);
        } else {
            for v in c.vectors..stop {
                stim64.apply_with(v, |net, p| bp.set_input_plane(net, p));
                bp.settle_vector();
            }
        }
        wall += t.elapsed().as_secs_f64();
        c.vectors = stop;
        if stop.is_multiple_of(SAMPLE_EVERY) {
            let n = &c.input.inst.netlist;
            for lane in CHECKED_LANES {
                let bad = check::settled_gate_mismatches(n, &c.gates, |net| bp.level(net, lane));
                c.lane_samples += 1;
                if !bad.is_empty() && c.lane_bad.is_none() {
                    c.lane_bad = Some(format!(
                        "{}: lane {lane} after vector {}: {} gates unsettled (first {:?})",
                        c.input.name,
                        stop - 1,
                        bad.len(),
                        bad[0]
                    ));
                }
            }
        }
    }
    wall
}

/// Untimed warm-up past the reset transient: two windows on each engine
/// and one sample interval of vectors; then the counters restart.
fn warm_up(circs: &mut [Circuit<'_>]) {
    let mut off = Layers::new(false);
    for c in circs {
        let w = 2 * c.input.window;
        serial::window(&mut c.sim, &mut c.stim, w, &mut off);
        par_window(c, w);
        c.sim.reset_measurements();
        c.par.reset_measurements();
        vectors(c, SAMPLE_EVERY, &mut off);
        c.bp_base = c.bp.stats();
    }
}

/// One engine round: a window per circuit on the serial engine (pinned
/// to the round's CPU), then on the parallel engine. Returns the serial
/// and parallel event rates.
fn engine_round(
    circs: &mut [Circuit<'_>],
    round: usize,
    cpus: &Cpus,
    layers: &mut Layers,
) -> (f64, f64) {
    let (mut events, mut ws, mut wp) = (0u64, 0.0, 0.0);
    for c in circs.iter_mut() {
        let w = c.input.window;
        let before = c.sim.counters().events;
        cpus.rotate(round);
        ws += serial::window(&mut c.sim, &mut c.stim, w, layers);
        cpus.release();
        events += c.sim.counters().events - before;
        let t = Instant::now();
        layers.span("sim.par_engine.run_s", || par_window(c, w));
        wp += t.elapsed().as_secs_f64();
        c.ticks += w;
        if c.diverged.is_none() && c.par.counters() != c.sim.counters() {
            c.diverged = Some(format!(
                "{}: after {} ticks, ParSimulator counters {:?} != Simulator {:?}",
                c.input.name,
                c.ticks,
                c.par.counters(),
                c.sim.counters()
            ));
        }
    }
    (events as f64 / ws, events as f64 / wp)
}

/// One vector round on the round's CPU; returns the lane-vector rate.
fn vector_round(circs: &mut [Circuit<'_>], round: usize, cpus: &Cpus, layers: &mut Layers) -> f64 {
    cpus.rotate(round);
    let (mut lane_vectors, mut wall) = (0u64, 0.0);
    for c in circs.iter_mut() {
        let count = c.input.vectors;
        wall += vectors(c, count, layers);
        lane_vectors += count * LANES as u64;
    }
    cpus.release();
    lane_vectors as f64 / wall
}

/// The products of one static round over every input.
pub struct StaticRound {
    pub reports: Vec<Report>,
    pub parts: Vec<Vec<u32>>,
    pub lint_s: f64,
    pub partition_s: f64,
    pub cut: u64,
}

const DATAFLOW: [[&str; 3]; 3] = [
    [
        "netlist.analyze.dataflow.activity.transfers",
        "netlist.analyze.dataflow.activity.max_changes",
        "netlist.analyze.dataflow.activity.widened",
    ],
    [
        "netlist.analyze.dataflow.timing.transfers",
        "netlist.analyze.dataflow.timing.max_changes",
        "netlist.analyze.dataflow.timing.widened",
    ],
    [
        "netlist.analyze.dataflow.xreach.transfers",
        "netlist.analyze.dataflow.xreach.max_changes",
        "netlist.analyze.dataflow.xreach.widened",
    ],
];

fn solution_counters<V>(s: &Solution<V>, names: &[&'static str; 3], layers: &mut Layers) {
    layers.add(names[0], s.transfers as f64);
    layers.max(names[1], f64::from(s.max_changes));
    layers.add(names[2], s.widened as f64);
}

/// The sub-calls of `analyze_seeded` named in the per-layer table, each
/// made on its own; returns their summed wall time.
fn lint_layers(
    n: &Netlist,
    seeds: &analyze::dataflow::seeds::InputSeeds,
    layers: &mut Layers,
) -> f64 {
    let t0 = Instant::now();
    layers.span("netlist.analyze.preflight_s", || analyze::preflight(n));
    layers.span("netlist.analyze.levelize_s", || Levelization::compute(n));
    layers.span("netlist.analyze.live_s", || analyze::live_components(n));
    let a = layers.span("netlist.analyze.dataflow.activity_s", || {
        Activity::analyze(n, seeds)
    });
    solution_counters(a.solution(), &DATAFLOW[0], layers);
    let t = layers.span("netlist.analyze.dataflow.timing_s", || {
        Timing::analyze(n, seeds)
    });
    solution_counters(t.solution(), &DATAFLOW[1], layers);
    let x = layers.span("netlist.analyze.dataflow.xreach_s", || {
        XReach::analyze(n, seeds)
    });
    solution_counters(x.solution(), &DATAFLOW[2], layers);
    let o = layers.span("netlist.analyze.opt.optimize_s", || opt::optimize(n));
    layers.add(
        "netlist.analyze.opt.rewrites",
        o.report.total_rewrites() as f64,
    );
    t0.elapsed().as_secs_f64()
}

/// One static round. Traced, the lint sub-calls are also made one by
/// one after `analyze_seeded`, outside `lint_s`; `netlist.analyze.
/// unattributed_s` is `lint_s` minus their sum.
fn static_round(inputs: &[Input], layers: &mut Layers) -> StaticRound {
    let mut r = StaticRound {
        reports: Vec::new(),
        parts: Vec::new(),
        lint_s: 0.0,
        partition_s: 0.0,
        cut: 0,
    };
    for input in inputs {
        let n = input.static_netlist();
        let seeds = input.inst.stimulus.activity_seeds(n);
        let config = AnalyzeConfig::default();
        let (report, lint_s) = timed(|| analyze::analyze_seeded(n, &config, Some(&seeds)));
        if layers.on() {
            let sub = lint_layers(n, &seeds, layers);
            layers.add("netlist.analyze.unattributed_s", lint_s - sub);
            layers.add("trace.lint_subcalls_s", sub);
            layers.add("trace.lint_s", lint_s);
        }
        let (parts, partition_s) = timed(|| multilevel_assignment(n, PARTS, PARTITION_SEED));
        layers.add("partition.multilevel_s", partition_s);
        r.cut += cut_size(n, &Partition::new(parts.clone(), PARTS));
        r.lint_s += lint_s;
        r.partition_s += partition_s;
        r.reports.push(report);
        r.parts.push(parts);
    }
    r
}

fn record(circs: &[Circuit<'_>], layers: &mut Layers) {
    // Eq. 10 terms over every circuit: t_sync per executed tick, t_eval
    // per evaluation, t_msg per message.
    let (mut ticks, mut evals, mut msgs) = (0.0, 0.0, 0.0);
    let (mut sync, mut eval, mut msg) = (0.0, 0.0, 0.0);
    for c in circs {
        serial::record(&c.sim, layers);
        let r = c.par.obs_report();
        for (phase, name) in [
            (Phase::Start, "sim.par_engine.phase.start_s"),
            (Phase::Apply, "sim.par_engine.phase.apply_s"),
            (Phase::Resolve, "sim.par_engine.phase.resolve_s"),
            (Phase::Eval, "sim.par_engine.phase.eval_s"),
            (Phase::Exchange, "sim.par_engine.phase.exchange_s"),
            (Phase::Done, "sim.par_engine.phase.done_s"),
            (Phase::Barrier, "sim.par_engine.phase.barrier_s"),
        ] {
            layers.add(name, r.total(phase).total_ns as f64 * 1e-9);
        }
        let p = measured_params(&r, 1);
        ticks += p.executed_ticks as f64;
        evals += p.evaluations as f64;
        msgs += p.messages as f64;
        sync += p.t_sync_ns() * p.executed_ticks as f64;
        eval += p.t_eval_ns * p.evaluations as f64;
        msg += p.t_msg_ns * p.messages as f64;
        let (s, b) = (c.bp.stats(), &c.bp_base);
        layers.add("sim.bitpar.sweeps", (s.sweeps - b.sweeps) as f64);
        layers.add(
            "sim.bitpar.compiled_evals",
            (s.compiled_evals - b.compiled_evals) as f64,
        );
        layers.add(
            "sim.bitpar.fallback_events",
            (s.fallback_events - b.fallback_events) as f64,
        );
        let unconverged = s.unconverged_vectors - b.unconverged_vectors;
        layers.add("sim.bitpar.unconverged_vectors", unconverged as f64);
        let n = &c.input.inst.netlist;
        layers.add(
            "netlist.memory_footprint_mb",
            n.memory_footprint() as f64 / 1_048_576.0,
        );
        if let Some((src, _)) = &c.input.text {
            layers.add("netlist.text.bytes", src.len() as f64);
        }
    }
    layers.add("sim.par_engine.t_sync_ns", sync / ticks.max(1.0));
    layers.add("sim.par_engine.t_eval_ns", eval / evals.max(1.0));
    layers.add("sim.par_engine.t_msg_ns", msg / msgs.max(1.0));
}

/// The checks every workload gets.
fn checks(
    spec: &Spec,
    circs: &mut [Circuit<'_>],
    inputs: &[Input],
    st: &StaticRound,
    cuts: &[u64],
    seed: u64,
) -> Checks {
    let mut checks = Checks::default();
    for c in circs.iter_mut() {
        let name = c.input.name.as_str();
        let n = &c.input.inst.netlist;
        checks.check(c.diverged.is_none(), || {
            c.diverged.clone().unwrap_or_default()
        });
        let differing = (0..n.num_nets() as u32)
            .map(NetId)
            .filter(|&net| c.par.signal(net) != c.sim.signal(net))
            .count();
        checks.check(differing == 0, || {
            format!("{name}: {differing} nets end with a different Signal on ParSimulator")
        });
        serial::counter_checks(name, &c.sim, c.ticks, &mut checks);
        serial::settle_check(name, n, &mut c.sim, &mut checks);
        checks.check(c.lane_bad.is_none() && c.lane_samples > 0, || {
            c.lane_bad
                .clone()
                .unwrap_or_else(|| format!("{name}: no lane sampled"))
        });
        let unconverged = c.bp.stats().unconverged_vectors;
        checks.check(unconverged == 0, || {
            format!("{name}: {unconverged} BitParSim vectors did not settle")
        });
    }
    for (i, input) in inputs.iter().enumerate() {
        let name = input.name.as_str();
        let report = &st.reports[i];
        checks.check(!report.has_errors(), || {
            format!(
                "{name}: lint reports {} error(s)",
                report.count(analyze::Severity::Error)
            )
        });
        let eps = MultilevelPartitioner::new(PARTITION_SEED).balance_eps;
        let shape = check::bisection_shape(input.static_netlist(), &st.parts[i], eps);
        eprintln!("{name}: partition sides and floor {shape:?}");
        checks.check(shape.is_ok(), || {
            format!("{name}: partition: {}", shape.clone().unwrap_err())
        });
    }
    checks.check(cuts.iter().all(|&c| c == cuts[0]), || {
        format!("{}: cut differs between static rounds: {cuts:?}", spec.name)
    });
    (spec.extra_checks)(inputs, st, seed, &mut checks);
    checks
}

/// Which phase runs next.
#[derive(Clone, Copy)]
enum Schedule {
    /// Rounds are interleaved so that each phase's share of the elapsed
    /// time follows its share of the budget, until the budget (in
    /// seconds) is spent and every phase has had a round. Interleaving
    /// spreads each phase's rounds over the whole run, so a slow spell
    /// on the host does not fall on one phase alone.
    Budget { seconds: f64, shares: [f64; 3] },
    /// A fixed number of rounds per phase.
    Fixed([usize; 3]),
}

impl Schedule {
    fn next(self, done: [usize; 3], spent: [f64; 3], elapsed: f64) -> Option<usize> {
        match self {
            Schedule::Budget { seconds, shares } => {
                if let Some(p) = (0..3).find(|&p| done[p] == 0) {
                    return Some(p);
                }
                if elapsed >= seconds {
                    return None;
                }
                (0..3).min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            }
            Schedule::Fixed(n) => (0..3).find(|&p| done[p] < n[p]),
        }
    }
}

/// The upper quartile of a phase's per-round figures: the value a
/// quarter of the rounds beat (`pick_high`: higher is better) — with two
/// rounds, the better one. Other tenants of a shared host only ever slow
/// a round down, so the better rounds repeat from run to run far better
/// than the median does; the quartile, unlike the single best round, is
/// not set by one round whose window happened to hold unusually cheap
/// work.
fn upper_quartile(xs: &[f64], pick_high: bool) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if !pick_high {
        v.reverse();
    }
    let last = v.len() - 1;
    v[(3 * last).div_ceil(4)]
}

/// Set-up (`reps` times, timed, rotating over the CPUs), warm-up, the
/// three phases and, when `check` is set, the checks. Returns the
/// outcome and the wall time of the last set-up and the phases.
fn pass(
    spec: &Spec,
    seed: u64,
    how: Schedule,
    reps: usize,
    check: bool,
    layers: &mut Layers,
) -> (Outcome, f64) {
    let mut off = Layers::new(false);
    let cpus = Cpus::allowed();
    let mut setup = Vec::new();
    for rep in 1..reps {
        cpus.rotate(rep);
        let t = Instant::now();
        let inputs = (spec.build)(&mut off);
        let circs = engines(&inputs, seed, &mut off);
        setup.push(t.elapsed().as_secs_f64());
        drop(circs);
    }
    cpus.rotate(0);
    let t = Instant::now();
    let inputs = (spec.build)(layers);
    let mut circs = engines(&inputs, seed, layers);
    setup.push(t.elapsed().as_secs_f64());
    cpus.release();
    let mut measured = setup[setup.len() - 1];
    for c in &mut circs {
        c.gates = check::sole_driver_gates(&c.input.inst.netlist);
    }
    warm_up(&mut circs);
    let t = Instant::now();
    let (mut serial_rates, mut par_rates, mut vector_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lint, mut part, mut cuts, mut last) = (Vec::new(), Vec::new(), Vec::new(), None);
    let mut spent = [0.0f64; 3];
    loop {
        let done = [serial_rates.len(), vector_rates.len(), lint.len()];
        let Some(phase) = how.next(done, spent, t.elapsed().as_secs_f64()) else {
            break;
        };
        let round = Instant::now();
        match phase {
            0 => {
                let (s, p) = engine_round(&mut circs, done[0], &cpus, layers);
                serial_rates.push(s);
                par_rates.push(p);
            }
            1 => vector_rates.push(vector_round(&mut circs, done[1], &cpus, layers)),
            _ => {
                drop(last.take());
                cpus.rotate(done[2]);
                let r = static_round(&inputs, layers);
                cpus.release();
                lint.push(r.lint_s);
                part.push(r.partition_s);
                cuts.push(r.cut);
                last = Some(r);
            }
        }
        spent[phase] += round.elapsed().as_secs_f64();
    }
    let st = last.expect("at least one static round");
    measured += t.elapsed().as_secs_f64();
    eprintln!(
        "{}: engine rounds {serial_rates:.0?} / {par_rates:.0?} events/s; vector rounds \
         {vector_rates:.0?} lane-vectors/s; static rounds {lint:.3?} / {part:.3?} s",
        spec.name
    );
    if layers.on() {
        record(&circs, layers);
        let spans: f64 = [
            "circuits.build_s",
            "netlist.text.serialize_s",
            "sim.engine.new_s",
            "sim.par_engine.new_s",
            "sim.bitpar.compile_s",
            "sim.stimulus.apply_s",
            "sim.engine.step_s",
            "sim.engine.idle_step_s",
            "sim.par_engine.run_s",
            "sim.stimulus.apply64_s",
            "sim.bitpar.settle_s",
            "netlist.text.parse_s",
            "trace.lint_s",
            "trace.lint_subcalls_s",
            "partition.multilevel_s",
        ]
        .iter()
        .map(|n| layers.get(n))
        .sum();
        layers.add("workload.unattributed_s", measured - spans);
    }
    // Read before the checks, whose own allocations are not the
    // workload's.
    let peak_rss = peak_rss_mb();
    let checks = if check {
        checks(spec, &mut circs, &inputs, &st, &cuts, seed)
    } else {
        Checks::default()
    };
    let out = Outcome {
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            (
                "events_per_s",
                upper_quartile(&serial_rates, true),
                "events/s",
            ),
            (
                "par_events_per_s",
                upper_quartile(&par_rates, true),
                "events/s",
            ),
            (
                "scenarios_per_s",
                upper_quartile(&vector_rates, true),
                "lane-vectors/s",
            ),
            ("lint_s", upper_quartile(&lint, false), "s"),
            ("partition_s", upper_quartile(&part, false), "s"),
            ("cut_weight", cuts[0] as f64, "edge-weight"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ],
        checks,
    };
    (out, measured)
}

/// Runs a workload. Untraced, the phases share `--seconds`; traced, a
/// fixed number of rounds runs once untraced, for reference, and once
/// traced, and the difference in measured wall time is the tracing
/// overhead.
pub fn run(spec: &Spec, args: &Args, seed: u64, layers: &mut Layers) -> Outcome {
    if !layers.on() {
        let how = Schedule::Budget {
            seconds: args.seconds,
            shares: spec.shares,
        };
        return pass(spec, seed, how, spec.setup_reps, true, layers).0;
    }
    let how = Schedule::Fixed(spec.traced_rounds);
    let (_, reference) = pass(spec, seed, how, 1, false, &mut Layers::new(false));
    let (out, traced) = pass(spec, seed, how, 1, true, layers);
    layers.add("trace.overhead_s", traced - reference);
    out
}
