//! Output checks, computed apart from the engines under test.
//!
//! Every function here takes plain data (a netlist, a level lookup,
//! recorded trajectories) and returns what it found, so the self-tests
//! at the bottom can plant one error and see each check catch it.

use logicsim::netlist::analyze::dataflow::activity::Activity;
use logicsim::netlist::analyze::dataflow::timing::Timing;
use logicsim::netlist::analyze::dataflow::xreach::XReach;
use logicsim::netlist::{CompId, Component, ConnectivityGraph, GateKind, Level, NetId, Netlist};

/// Tally of checked operations. A check that fails marks the run
/// incorrect; a failure of the one known fault is counted in `failed`
/// and leaves the run correct.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Records one checked operation that must pass.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    /// Records `attempted` operations of the known `BitParSim`
    /// divergence, `failed` of which failed; these leave the run
    /// correct.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

// Kleene three-valued logic, written out as truth tables so that the
// reference does not share code with the engines' `Level` operators.
fn k_not(a: Level) -> Level {
    match a {
        Level::Zero => Level::One,
        Level::One => Level::Zero,
        Level::X => Level::X,
    }
}

fn k_and(a: Level, b: Level) -> Level {
    match (a, b) {
        (Level::Zero, _) | (_, Level::Zero) => Level::Zero,
        (Level::One, Level::One) => Level::One,
        _ => Level::X,
    }
}

fn k_or(a: Level, b: Level) -> Level {
    match (a, b) {
        (Level::One, _) | (_, Level::One) => Level::One,
        (Level::Zero, Level::Zero) => Level::Zero,
        _ => Level::X,
    }
}

fn k_xor(a: Level, b: Level) -> Level {
    match (a, b) {
        (Level::X, _) | (_, Level::X) => Level::X,
        (x, y) if x == y => Level::Zero,
        _ => Level::One,
    }
}

/// The settled output of a gate over its input levels; `None` for a
/// tristate, whose disabled output keeps stored charge.
pub fn kleene(kind: GateKind, inputs: &[Level]) -> Option<Level> {
    let fold =
        |init: Level, f: fn(Level, Level) -> Level| inputs.iter().fold(init, |a, &b| f(a, b));
    Some(match kind {
        GateKind::Buf => inputs[0],
        GateKind::Not => k_not(inputs[0]),
        GateKind::And => fold(Level::One, k_and),
        GateKind::Nand => k_not(fold(Level::One, k_and)),
        GateKind::Or => fold(Level::Zero, k_or),
        GateKind::Nor => k_not(fold(Level::Zero, k_or)),
        GateKind::Xor => fold(Level::Zero, k_xor),
        GateKind::Xnor => k_not(fold(Level::Zero, k_xor)),
        GateKind::Tristate => return None,
    })
}

/// Gates that alone drive their output net (no second gate, switch,
/// pull or input on it) and are not tristates: at quiescence each must
/// read the Kleene evaluation of its input levels.
pub fn sole_driver_gates(n: &Netlist) -> Vec<CompId> {
    n.iter()
        .filter_map(|(id, c)| match c {
            Component::Gate { kind, output, .. }
                if *kind != GateKind::Tristate && n.drivers(*output).len() == 1 =>
            {
                Some(id)
            }
            _ => None,
        })
        .collect()
}

/// Settled-gate check: the gates of `gates` whose output level differs
/// from the Kleene evaluation of their input levels.
pub fn settled_gate_mismatches(
    n: &Netlist,
    gates: &[CompId],
    level: impl Fn(NetId) -> Level,
) -> Vec<CompId> {
    let mut ins = Vec::new();
    gates
        .iter()
        .copied()
        .filter(|&g| {
            let Component::Gate {
                kind,
                inputs,
                output,
                ..
            } = n.component(g)
            else {
                return true;
            };
            ins.clear();
            ins.extend(inputs.iter().map(|&i| level(i)));
            kleene(*kind, &ins) != Some(level(*output))
        })
        .collect()
}

/// The vectors at which two recorded output trajectories differ, in
/// order. Each trajectory holds `outputs` levels per vector,
/// vector-major.
pub fn trajectory_divergence(got: &[Level], want: &[Level], outputs: usize) -> Vec<usize> {
    assert_eq!(got.len(), want.len(), "trajectories of unequal length");
    let outputs = outputs.max(1);
    got.chunks(outputs)
        .zip(want.chunks(outputs))
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(v, _)| v)
        .collect()
}

/// The first byte at which two texts differ (the round-trip check
/// compares `serialize(parse(text))` with `text`).
pub fn first_difference(a: &str, b: &str) -> Option<usize> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or((a.len() != b.len()).then_some(a.len().min(b.len())))
}

/// Bisection check: every simulated component has part 0 or 1, every
/// other component carries `u32::MAX`, and the lighter side keeps the
/// multilevel partitioner's balance floor. The sides are weighed as the
/// partitioner weighs them, by `ConnectivityGraph::node_weight` (1 for
/// a live component, 0 for a dead one), and the floor for a live total
/// `w` is `w/2 - max(1, floor(eps * w / 2))`. Returns the two sides'
/// weights and the floor, or a description of the violation.
pub fn bisection_shape(
    n: &Netlist,
    assignment: &[u32],
    balance_eps: f64,
) -> Result<([u64; 2], u64), String> {
    if assignment.len() != n.num_components() {
        return Err(format!(
            "assignment covers {} of {} components",
            assignment.len(),
            n.num_components()
        ));
    }
    for (c, &a) in n.components().iter().zip(assignment) {
        if c.is_gate() || c.is_switch() {
            if a >= 2 {
                return Err(format!("simulated component has part {a}"));
            }
        } else if a != u32::MAX {
            return Err(format!("non-simulated component has part {a}"));
        }
    }
    let graph = ConnectivityGraph::build(n, 16);
    let mut sides = [0u64; 2];
    for v in 0..graph.num_nodes() as u32 {
        sides[assignment[graph.component(v).index()] as usize] += u64::from(graph.node_weight(v));
    }
    let total = sides[0] + sides[1];
    let slack = ((balance_eps * total as f64) / 2.0).max(1.0) as u64;
    let floor = (total / 2).saturating_sub(slack);
    let min = sides[0].min(sides[1]);
    if min < floor {
        return Err(format!(
            "lighter side weighs {min} of {total}, below the floor {floor}"
        ));
    }
    Ok((sides, floor))
}

/// A seeded random assignment of the simulated components to `parts`
/// (SplitMix64), the baseline a real partitioner's cut must beat.
pub fn random_assignment(n: &Netlist, parts: u32, seed: u64) -> Vec<u32> {
    let mut s = seed;
    n.components()
        .iter()
        .map(|c| {
            if c.is_gate() || c.is_switch() {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % u64::from(parts)) as u32
            } else {
                u32::MAX
            }
        })
        .collect()
}

/// The static facts the dataflow analyses state about one net, as the
/// static-fact check tests them against a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFacts {
    /// A level the net never reads (`p1` pinned to 0 or to 1).
    pub excluded: Option<Level>,
    /// Zero activity density: the net never changes.
    pub frozen: bool,
    /// Least separation between two successive level changes
    /// (`u32::MAX`: at most one change).
    pub sep: u32,
    /// X-stuck: the net reads X throughout.
    pub x_stuck: bool,
}

/// Collects [`NetFacts`] for every net from the three analyses.
pub fn net_facts(n: &Netlist, act: &Activity, timing: &Timing, xr: &XReach) -> Vec<NetFacts> {
    (0..n.num_nets() as u32)
        .map(|i| {
            let net = NetId(i);
            let (lo, hi) = act.net(net).p1();
            let excluded = if hi <= 0.0 {
                Some(Level::One)
            } else if lo >= 1.0 {
                Some(Level::Zero)
            } else {
                None
            };
            let w = timing.window(net);
            NetFacts {
                excluded,
                frozen: act.density(net) == 0.0,
                sep: if w.is_empty() { u32::MAX } else { w.sep },
                x_stuck: xr.is_x_stuck(net),
            }
        })
        .collect()
}

/// Watches net levels tick by tick and records every violation of the
/// static facts. Only nets with at least one fact are tracked.
#[derive(Debug)]
pub struct FactWatch {
    nets: Vec<(u32, NetFacts)>,
    last: Vec<Level>,
    first: Vec<Level>,
    last_change: Vec<Option<u64>>,
    started: bool,
    pub violations: Vec<String>,
}

impl FactWatch {
    pub fn new(facts: &[NetFacts]) -> FactWatch {
        let nets: Vec<(u32, NetFacts)> = facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.excluded.is_some() || f.frozen || f.sep > 1 || f.x_stuck)
            .map(|(i, f)| (i as u32, *f))
            .collect();
        let k = nets.len();
        FactWatch {
            nets,
            last: vec![Level::X; k],
            first: vec![Level::X; k],
            last_change: vec![None; k],
            started: false,
            violations: Vec::new(),
        }
    }

    /// Number of nets under watch.
    pub fn watched(&self) -> usize {
        self.nets.len()
    }

    /// Observes every watched net's level at `tick`.
    pub fn observe(&mut self, tick: u64, level: impl Fn(NetId) -> Level) {
        for (k, &(i, f)) in self.nets.iter().enumerate() {
            let l = level(NetId(i));
            if !self.started {
                self.first[k] = l;
                self.last[k] = l;
            } else if l != self.last[k] {
                if let Some(prev) = self.last_change[k] {
                    if f.sep != u32::MAX && tick - prev < u64::from(f.sep) {
                        self.violations.push(format!(
                            "net {i}: changes at {prev} and {tick}, sep {}",
                            f.sep
                        ));
                    }
                    if f.sep == u32::MAX {
                        self.violations.push(format!(
                            "net {i}: second change at {tick}, at most one allowed"
                        ));
                    }
                }
                if f.frozen {
                    self.violations
                        .push(format!("net {i}: zero density but changes at {tick}"));
                }
                self.last_change[k] = Some(tick);
                self.last[k] = l;
            }
            if f.excluded == Some(l) {
                self.violations
                    .push(format!("net {i}: reads excluded level {l:?} at {tick}"));
            }
            if f.x_stuck && l != Level::X {
                self.violations
                    .push(format!("net {i}: X-stuck but reads {l:?} at {tick}"));
            }
        }
        self.started = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim::circuits::Benchmark;
    use logicsim::netlist::analyze::dataflow::seeds::InputSeeds;
    use logicsim::netlist::text;
    use logicsim::partition::multilevel_assignment;
    use logicsim::sim::{BitParSim, Simulator, Stimulus64};

    /// Settles the stop watch for a few hundred ticks, then holds the
    /// inputs and runs it to quiescence.
    fn settled_stopwatch() -> (logicsim::circuits::BenchmarkInstance, Vec<Level>) {
        let inst = Benchmark::StopWatch.build_default();
        let mut stim = inst.stimulus.build(&inst.netlist, 7).unwrap();
        let mut sim = Simulator::new(&inst.netlist).unwrap();
        for t in 0..3000 {
            stim.apply_with(t, |n, l| sim.set_input(n, l));
            sim.step();
        }
        let end = sim.now() + 100_000;
        assert!(sim.run_to_quiescence(end) < end);
        let levels = (0..inst.netlist.num_nets() as u32)
            .map(|i| sim.level(NetId(i)))
            .collect();
        (inst, levels)
    }

    #[test]
    fn settled_gate_check_passes_on_engine_state() {
        let (inst, levels) = settled_stopwatch();
        let gates = sole_driver_gates(&inst.netlist);
        assert!(gates.len() > 100);
        assert!(settled_gate_mismatches(&inst.netlist, &gates, |n| levels[n.index()]).is_empty());
    }

    #[test]
    fn one_corrupted_level_fails_the_settled_gate_check() {
        let (inst, mut levels) = settled_stopwatch();
        let gates = sole_driver_gates(&inst.netlist);
        let Component::Gate { output, .. } = inst.netlist.component(gates[gates.len() / 2]) else {
            unreachable!()
        };
        let l = &mut levels[output.index()];
        *l = if *l == Level::One {
            Level::Zero
        } else {
            Level::One
        };
        let bad = settled_gate_mismatches(&inst.netlist, &gates, |n| levels[n.index()]);
        assert!(!bad.is_empty());
    }

    #[test]
    fn one_changed_byte_fails_the_round_trip() {
        let inst = Benchmark::AssocMem.build_default();
        let src = text::serialize(&inst.netlist);
        let back = text::serialize(&text::parse(&src).unwrap());
        assert_eq!(first_difference(&src, &back), None);
        let mut planted = back.into_bytes();
        let k = planted.len() / 2;
        planted[k] = if planted[k] == b'0' { b'1' } else { b'0' };
        let planted = String::from_utf8(planted).unwrap();
        assert_eq!(first_difference(&src, &planted), Some(k));
        assert_eq!(first_difference(&src, &src[..k]), Some(k));
    }

    #[test]
    fn bad_parts_fail_the_partition_check() {
        let inst = Benchmark::PriorityQueue.build_default();
        let n = &inst.netlist;
        let good = multilevel_assignment(n, 2, 3);
        assert!(bisection_shape(n, &good, 0.05).is_ok());
        let first_sim = n
            .components()
            .iter()
            .position(|c| c.is_gate() || c.is_switch())
            .unwrap();
        let mut out_of_range = good.clone();
        out_of_range[first_sim] = 2;
        assert!(bisection_shape(n, &out_of_range, 0.05).is_err());
        let one_sided: Vec<u32> = good
            .iter()
            .map(|&a| if a == u32::MAX { a } else { 0 })
            .collect();
        assert!(bisection_shape(n, &one_sided, 0.05).is_err());
        let mut tagged_input = good;
        let input = n
            .components()
            .iter()
            .position(|c| matches!(c, Component::Input { .. }))
            .unwrap();
        tagged_input[input] = 0;
        assert!(bisection_shape(n, &tagged_input, 0.05).is_err());
    }

    #[test]
    fn one_flipped_lane_output_fails_the_lane_comparison() {
        let inst = Benchmark::StopWatch.build_default();
        let n = &inst.netlist;
        let outs = n.outputs().len();
        let mut stim = Stimulus64::new(&inst.stimulus, n, 11, 64).unwrap();
        let mut bp = BitParSim::new(n, 64).unwrap();
        let mut serial_stim = inst
            .stimulus
            .build(n, Stimulus64::lane_seed(11, 5))
            .unwrap();
        let mut sim = Simulator::new(n).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for v in 0..64 {
            stim.apply_with(v, |net, p| bp.set_input_plane(net, p));
            assert!(bp.settle_vector());
            serial_stim.apply_with(v, |net, l| sim.set_input(net, l));
            let cap = sim.now() + 50_000;
            sim.run_to_quiescence(cap);
            got.extend(n.outputs().iter().map(|&o| bp.level(o, 5)));
            want.extend(n.outputs().iter().map(|&o| sim.level(o)));
        }
        assert!(trajectory_divergence(&got, &want, outs).is_empty());
        let k = got.len() / 2;
        got[k] = if got[k] == Level::One {
            Level::Zero
        } else {
            Level::One
        };
        assert_eq!(trajectory_divergence(&got, &want, outs), vec![k / outs]);
    }

    #[test]
    fn planted_change_on_a_frozen_net_fails_the_static_fact_check() {
        let inst = Benchmark::StopWatch.build_default();
        let n = &inst.netlist;
        let seeds: InputSeeds = inst.stimulus.activity_seeds(n);
        let facts = net_facts(
            n,
            &Activity::analyze(n, &seeds),
            &Timing::analyze(n, &seeds),
            &XReach::analyze(n, &seeds),
        );
        let frozen = facts
            .iter()
            .position(|f| f.frozen && f.excluded.is_none() && !f.x_stuck);
        let frozen = frozen.expect("the stop watch has a zero-density net");
        let mut watch = FactWatch::new(&facts);
        let base = |net: NetId| {
            if net.index() == frozen {
                Level::Zero
            } else {
                Level::X
            }
        };
        watch.observe(0, base);
        watch.observe(1, base);
        assert!(watch
            .violations
            .iter()
            .all(|v| !v.starts_with(&format!("net {frozen}:"))));
        watch.observe(2, |net| {
            if net.index() == frozen {
                Level::One
            } else {
                Level::X
            }
        });
        assert!(watch
            .violations
            .iter()
            .any(|v| v.starts_with(&format!("net {frozen}: zero density"))));
    }
}
