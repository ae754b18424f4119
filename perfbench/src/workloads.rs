//! The three workloads: their circuits, how each splits its time over
//! the pipeline's phases, and the checks particular to each.

use crate::check::{self, Checks, FactWatch};
use crate::layers::Layers;
use crate::pipeline::{Input, Spec, StaticRound, CHECKED_LANES, LANES, PARTS};
use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::netlist::analyze::dataflow::activity::Activity;
use logicsim::netlist::analyze::dataflow::timing::Timing;
use logicsim::netlist::analyze::dataflow::xreach::XReach;
use logicsim::netlist::analyze::opt;
use logicsim::netlist::{text, Level, NetId, Netlist};
use logicsim::partition::{cut_size, Partition};
use logicsim::sim::{BitParSim, SignalRole, Simulator, Stimulus64, StimulusSpec};

pub const ALL: [&Spec; 3] = [&EVENT_100K, &PAPER_LONG, &SIGNOFF_300K];

/// `event-100k`: the per-event kernel on circuits much larger than
/// cache; most of the time goes to the two event engines.
pub const EVENT_100K: Spec = Spec {
    name: "event-100k",
    setup_reps: 5,
    build: build_event,
    shares: [0.55, 0.15, 0.3],
    traced_rounds: [2, 2, 1],
    extra_checks: no_extra_checks,
};

/// `paper-long`: the five paper-size circuits, where fixed per-tick and
/// per-vector costs dominate; time goes to the engines' long, mostly
/// idle windows and to `BitParSim` vectors.
pub const PAPER_LONG: Spec = Spec {
    name: "paper-long",
    setup_reps: 31,
    build: build_paper,
    shares: [0.4, 0.4, 0.2],
    traced_rounds: [2, 2, 2],
    extra_checks: lane_differential,
};

/// `signoff-300k`: the static stack on `crossbar@300k`, starting from
/// its text form (parsed during set-up); most of the time goes to lint
/// and partition.
pub const SIGNOFF_300K: Spec = Spec {
    name: "signoff-300k",
    setup_reps: 5,
    build: build_signoff,
    shares: [0.25, 0.15, 0.6],
    traced_rounds: [1, 1, 1],
    extra_checks: signoff_checks,
};

fn no_extra_checks(_: &[Input], _: &StaticRound, _: u64, _: &mut Checks) {}

fn build_event(layers: &mut Layers) -> Vec<Input> {
    [
        (Benchmark::PriorityQueue, 2_000, 800),
        (Benchmark::CrossbarSwitch, 40_000, 4_000),
    ]
    .into_iter()
    .map(|(b, window, vectors)| Input {
        name: format!("{}@100k", b.slug()),
        inst: layers.span("circuits.build_s", || b.build_at(100_000)),
        window,
        vectors,
        text: None,
    })
    .collect()
}

fn build_paper(layers: &mut Layers) -> Vec<Input> {
    Benchmark::ALL
        .into_iter()
        .map(|b| {
            let (window, vectors) = match b {
                Benchmark::StopWatch => (40_000, 8_000),
                Benchmark::AssocMem => (20_000, 8_000),
                Benchmark::PriorityQueue => (6_000, 4_000),
                Benchmark::RtpChip => (10_000, 8_000),
                Benchmark::CrossbarSwitch => (40_000, 8_000),
            };
            Input {
                name: b.slug().to_string(),
                inst: layers.span("circuits.build_s", || b.build_default()),
                window,
                vectors,
                text: None,
            }
        })
        .collect()
}

fn build_signoff(layers: &mut Layers) -> Vec<Input> {
    let params = ScaledParams {
        base: Benchmark::CrossbarSwitch,
        target_components: 300_000,
        seed: scaled::DEFAULT_SEED,
    };
    let inst = layers.span("circuits.build_s", || scaled::build(&params));
    let src = layers.span("netlist.text.serialize_s", || {
        text::serialize(&inst.netlist)
    });
    let parsed = layers.span("netlist.text.parse_s", || {
        text::parse(&src).expect("serialized netlist parses")
    });
    vec![Input {
        name: "crossbar@300k".into(),
        inst,
        window: 40_000,
        vectors: 1_600,
        text: Some((src, parsed)),
    }]
}

/// Base seed of the lane differential, independent of `--seed`, so the
/// known divergence fails the same lane-vectors in every run.
const DIFF_SEED: u64 = 0x1987;
/// Vectors of the lane differential: past the first divergence of every
/// checked lane on both affected circuits.
const DIFF_VECTORS: u64 = 20_000;
/// Tick budget per vector when the serial engine replays a lane.
const VECTOR_CAP: u64 = 50_000;

/// The lane differential on every paper circuit: `BitParSim` against a
/// serial replay of each checked lane under the vector-synchronous
/// protocol, vector by vector. A diverging lane-vector is a failed
/// operation on the two circuits of the known fault (`assoc_mem`,
/// `crossbar`) and an error anywhere else.
fn lane_differential(inputs: &[Input], _: &StaticRound, _: u64, checks: &mut Checks) {
    for input in inputs {
        let (name, inst) = (input.name.as_str(), &input.inst);
        let n = &inst.netlist;
        let outs = n.outputs();
        let mut bp = BitParSim::new(n, LANES).expect("pre-flight");
        let mut stim =
            Stimulus64::new(&inst.stimulus, n, DIFF_SEED, LANES).expect("stimulus resolves");
        let mut got =
            vec![Vec::with_capacity(DIFF_VECTORS as usize * outs.len()); CHECKED_LANES.len()];
        let mut unconverged = 0u64;
        for v in 0..DIFF_VECTORS {
            stim.apply_with(v, |net, p| bp.set_input_plane(net, p));
            unconverged += u64::from(!bp.settle_vector());
            for (k, &lane) in CHECKED_LANES.iter().enumerate() {
                got[k].extend(outs.iter().map(|&o| bp.level(o, lane)));
            }
        }
        checks.check(unconverged == 0, || {
            format!("{name}: {unconverged} differential vectors did not settle")
        });
        let known = matches!(name, "assoc_mem" | "crossbar");
        for (k, &lane) in CHECKED_LANES.iter().enumerate() {
            let seed = Stimulus64::lane_seed(DIFF_SEED, lane);
            let mut stim = inst.stimulus.build(n, seed).expect("stimulus resolves");
            let mut sim = Simulator::new(n).expect("pre-flight");
            let mut want: Vec<Level> = Vec::with_capacity(got[k].len());
            let mut stuck = 0u64;
            for v in 0..DIFF_VECTORS {
                stim.apply_with(v, |net, l| sim.set_input(net, l));
                let cap = sim.now() + VECTOR_CAP;
                stuck += u64::from(sim.run_to_quiescence(cap) >= cap);
                want.extend(outs.iter().map(|&o| sim.level(o)));
            }
            checks.check(stuck == 0, || {
                format!("{name}: lane {lane} replay: {stuck} vectors never quiesced")
            });
            let diverged = check::trajectory_divergence(&got[k], &want, outs.len());
            if let Some(&first) = diverged.first() {
                let at = first * outs.len();
                let out = (0..outs.len())
                    .find(|&i| got[k][at + i] != want[at + i])
                    .map_or("?", |i| n.net_name(outs[i]));
                eprintln!(
                    "BitParSim divergence: circuit {name} lane {lane}: first vector {first} \
                     (output `{out}`), {} of {DIFF_VECTORS} vectors differ",
                    diverged.len()
                );
            }
            if known {
                checks.tally(DIFF_VECTORS, diverged.len() as u64);
            } else {
                for v in 0..DIFF_VECTORS as usize {
                    let ok = diverged.binary_search(&v).is_err();
                    checks.check(ok, || format!("{name}: lane {lane} diverges at vector {v}"));
                }
            }
        }
    }
}

/// Ticks observed after the reset pulse for the static-fact check.
const FACT_TICKS: u64 = 4_000;
/// Ticks of the optimizer-equivalence simulation.
const OPT_TICKS: u64 = 4_000;
/// The partition's cut must be at least this many times below a random
/// partition's.
const CUT_MARGIN: u64 = 10;

fn signoff_checks(inputs: &[Input], st: &StaticRound, seed: u64, checks: &mut Checks) {
    let input = &inputs[0];
    let (src, n) = input.text.as_ref().expect("signoff starts from text");
    let diff = check::first_difference(src, &text::serialize(n));
    checks.check(diff.is_none(), || {
        format!("serialize(parse(text)) differs from text at byte {diff:?}")
    });
    static_facts(n, &input.inst, seed, checks);
    opt_equivalence(n, &input.inst.stimulus, seed, checks);
    let random = Partition::new(check::random_assignment(n, PARTS, seed), PARTS);
    let random = cut_size(n, &random);
    eprintln!("signoff-300k: cut {} against random {random}", st.cut);
    checks.check(st.cut * CUT_MARGIN < random, || {
        format!(
            "cut {} is not {CUT_MARGIN}x below a random partition's {random}",
            st.cut
        )
    });
}

/// The last tick of any reset pulse in the stimulus plan.
fn reset_end(spec: &StimulusSpec) -> u64 {
    spec.assignments
        .iter()
        .map(|(_, r)| match r {
            SignalRole::Pulse { width, .. } => *width,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Static facts against a serial simulation, observed once the reset
/// pulse has ended and one vector period has cleared the power-up X
/// levels: the facts are steady-state facts.
fn static_facts(n: &Netlist, inst: &BenchmarkInstance, seed: u64, checks: &mut Checks) {
    let spec = &inst.stimulus;
    let seeds = spec.activity_seeds(n);
    let facts = check::net_facts(
        n,
        &Activity::analyze(n, &seeds),
        &Timing::analyze(n, &seeds),
        &XReach::analyze(n, &seeds),
    );
    let mut watch = FactWatch::new(&facts);
    let mut stim = spec.build(n, seed).expect("stimulus resolves");
    let mut sim = Simulator::new(n).expect("pre-flight");
    let start = reset_end(spec) + inst.vector_period;
    while sim.now() < start + FACT_TICKS {
        let t = sim.now();
        stim.apply_with(t, |net, l| sim.set_input(net, l));
        sim.step();
        if t >= start {
            watch.observe(t, |net| sim.level(net));
        }
    }
    let v = &watch.violations;
    eprintln!(
        "signoff-300k: static facts watched on {} nets",
        watch.watched()
    );
    checks.check(v.is_empty(), || {
        format!(
            "static facts: {} violations, first {:?}",
            v.len(),
            &v[..v.len().min(8)]
        )
    });
}

/// The optimized netlist's primary outputs equal the original's on
/// every tick under the same stimulus.
fn opt_equivalence(n: &Netlist, spec: &StimulusSpec, seed: u64, checks: &mut Checks) {
    let o = opt::optimize(n).netlist;
    let mut sa = spec.build(n, seed).expect("stimulus resolves");
    let mut sb = spec.build(&o, seed).expect("stimulus resolves");
    let mut a = Simulator::new(n).expect("pre-flight");
    let mut b = Simulator::new(&o).expect("pre-flight");
    let mut first: Option<(u64, NetId)> = None;
    for t in 0..OPT_TICKS {
        sa.apply_with(t, |net, l| a.set_input(net, l));
        sb.apply_with(t, |net, l| b.set_input(net, l));
        a.step();
        b.step();
        if first.is_none() {
            let out = n
                .outputs()
                .iter()
                .find(|&&out| a.level(out) != b.level(out));
            first = out.map(|&out| (t, out));
        }
    }
    checks.check(first.is_none(), || {
        let (t, out) = first.expect("a mismatch");
        format!(
            "optimized netlist differs on output `{}` at tick {t}",
            n.net_name(out)
        )
    });
}
