//! The logicsim benchmark: three workloads, each run in its own
//! process, that time the workspace's layers from outside and check
//! every output against an independent computation. See `README.md`.
//!
//! ```text
//! perfbench --workload <event-100k|paper-long|signoff-300k> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end figures; with `--trace 1` they are the
//! per-layer figures, preceded by a human-readable table.

mod check;
mod cpu;
mod layers;
mod pipeline;
mod serial;
mod workloads;

use check::Checks;
use layers::Layers;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run produced: end-to-end metrics (untraced) or
/// per-layer metrics (traced), plus the check tally.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Checks,
}

/// Median of a sample set.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// A 64-bit mix of the workload seed and a purpose tag, so each input
/// stream drawn from one `--seed` is distinct.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn json_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.correct(),
        out.checks.attempted,
        out.checks.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut layers = Layers::new(args.trace);
    let Some(spec) = workloads::ALL.iter().find(|s| s.name == args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let out = pipeline::run(spec, &args, derive_seed(args.seed, 1), &mut layers);
    let out = if args.trace {
        print!("{}", layers.table(&args.workload));
        Outcome {
            metrics: layers.metrics(),
            checks: out.checks,
        }
    } else {
        out
    };
    println!("{}", json_line(&out));
}
