//! The repo's benchmark: four closed-loop, single-client,
//! single-threaded workloads, each a run of identical *passes* over
//! inputs generated from a seed, reporting the **median pass time**,
//! each pass held against the host's speed around it
//! ([`harness::HostClock`]), so that a slow phase of a shared host
//! moves neither a few passes nor the result. See `README.md` beside
//! `Cargo.toml` for the metric glossary.
//!
//! One invocation measures one workload:
//!
//! ```text
//! wbench --workload W --seed N --seconds S --trace 0   # end-to-end metrics
//! wbench-traced --workload W ... --trace 1             # per-layer metrics
//! ```
//!
//! and prints every metric by name with its unit, then, as the last
//! line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod harness;
pub mod layers;
pub mod selfcheck;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{median, proc_sample, result_line, HostClock, Metrics, Stamp, Summary, Timing};
use layers::{layer_metrics, pass_seconds, probe_layers, ProbeCounts, TracedRun};
use trace::Recorder;
use workloads::{check_pass, PassOut, Workload, WORKLOADS};

/// Parsed command line of one measuring run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the run lasts: set-ups, probes and timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end).
    pub trace: bool,
    /// Tiny fleets, one set-up, a fraction of a second: for tests.
    pub smoke: bool,
    /// Test hook: corrupt the batch reference after set-up.
    pub corrupt_reference: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// Seconds a run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: wbench --workload <live_stack|ingest_wide|ingest_churn|fed_lossy> \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out-dir DIR]\n       \
wbench --selfcheck";

/// What the command line asked for.
pub enum Command {
    /// Measure one workload.
    Run(Args),
    /// The A/A self-check over every workload.
    SelfCheck,
}

/// Parses the command line (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        corrupt_reference: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut selfcheck = false;
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                a.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--corrupt-reference" => a.corrupt_reference = true,
            "--out-dir" => a.out_dir = PathBuf::from(value("--out-dir")?),
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if a.smoke && !seconds_given {
        a.seconds = DEFAULT_SECONDS / 20.0;
    }
    if selfcheck {
        return Ok(Command::SelfCheck);
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Command::Run(a))
}

/// Entry point shared by both binaries.
pub fn main_from_env() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::SelfCheck) => selfcheck::run(),
        Err(e) => {
            eprintln!("wbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Fewest timed passes, however short `--seconds` is. In the traced
/// run that is one traced pass with untraced ones on either side.
const MIN_PASSES: usize = 5;

/// How much of everything a run does.
struct Plan {
    /// Set-ups performed; `setup_s` is their median.
    setups: usize,
    /// Warm-up passes per set-up; the first is verified in full.
    warmups: usize,
    /// Repetitions of each layer probe (traced run only).
    probe_reps: usize,
}

impl Plan {
    fn of(args: &Args) -> Plan {
        if args.smoke {
            return Plan {
                setups: 1,
                warmups: 1,
                probe_reps: 1,
            };
        }
        Plan {
            // The traced run reports no `setup_s`.
            setups: if args.trace { 1 } else { 3 },
            // Warm-up pads set-up from milliseconds to seconds, so that
            // host noise moves `setup_s` by percents, not multiples.
            warmups: if args.workload == "fed_lossy" { 2 } else { 3 },
            probe_reps: 3,
        }
    }
}

/// Operations attempted and failed so far: every frame offered and
/// every pass verified is one operation.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Verifies one pass; returns what failed.
    fn verify(&mut self, w: &dyn Workload, out: &PassOut, full: bool) -> Vec<&'static str> {
        let bad = check_pass(&w.fixture().reference, out, full);
        self.attempted += out.offered.frames + 1;
        self.failed += out.offered.frame_errors + u64::from(!bad.is_empty());
        bad
    }
}

/// A workload set up and warm.
struct Ready {
    workload: Box<dyn Workload>,
    /// One entry per set-up.
    setups: Vec<Timing>,
    /// Output of the last warm-up pass.
    warm: PassOut,
}

/// Sets the workload up `plan.setups` times, each followed by its
/// warm-up passes, and returns the last instance. A set-up's time is
/// the sum of its steps (building the fixture, then each warm-up pass
/// with its verification), each held against the host's speed around
/// it. A failed verification here ends the run before any number is
/// printed.
fn set_up(args: &Args, plan: &Plan, ops: &mut Ops, clock: &mut HostClock) -> Result<Ready, String> {
    let mut off = Recorder::default();
    let mut setups = Vec::with_capacity(plan.setups);
    let mut current: Option<(Box<dyn Workload>, PassOut)> = None;
    for _ in 0..plan.setups {
        // Free the previous instance first, outside the timer, so every
        // set-up starts from the same heap and the peak does not double.
        drop(current.take());
        let (w, mut spent) = clock.time(|| workloads::setup(&args.workload, args.seed, args.smoke));
        let mut w = w.ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
        if args.corrupt_reference {
            w.fixture_mut().corrupt_reference();
        }
        let mut warm = None;
        for i in 0..plan.warmups {
            drop(warm.take());
            let ((out, bad), step) = clock.time(|| {
                let out = w.pass(&mut off);
                let bad = ops.verify(w.as_ref(), &out, i == 0);
                (out, bad)
            });
            if !bad.is_empty() {
                return Err(format!(
                    "warm-up pass {i} failed verification: {}",
                    bad.join("; ")
                ));
            }
            spent += step;
            warm = Some(out);
        }
        setups.push(spent);
        current = Some((w, warm.expect("at least one warm-up pass")));
    }
    let (workload, warm) = current.expect("at least one set-up");
    Ok(Ready {
        workload,
        setups,
        warm,
    })
}

/// What the timed region produced.
struct Timed {
    /// Every pass in order: whether it was traced, and its wall seconds.
    passes: Vec<(bool, f64)>,
    /// The same passes against the host's speed.
    timings: Vec<Timing>,
    /// Spans of the traced passes.
    rec: Recorder,
    /// Offer → drained latencies of the traced passes.
    frame_latency_ns: Vec<f64>,
    /// Output of the last pass.
    last: PassOut,
    /// What failed verification, if anything.
    failures: Vec<&'static str>,
}

/// The timed region: passes until `deadline`. In the traced run every
/// fourth pass records spans, so traced and untraced passes sample the
/// same phases of the host.
fn timed_region(
    w: &dyn Workload,
    args: &Args,
    ops: &mut Ops,
    clock: &mut HostClock,
    deadline: Instant,
) -> Timed {
    let mut rec = Recorder::default();
    let mut passes: Vec<(bool, f64)> = Vec::new();
    let mut timings = Vec::new();
    let mut frame_latency_ns = Vec::new();
    let mut failures = Vec::new();
    let mut last: Option<PassOut> = None;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let traced = args.trace && passes.len() % 4 == 3;
        rec.set_on(traced);
        // The previous output is freed before the timer starts.
        drop(last.take());
        let (mut out, timing) = clock.time(|| w.pass(&mut rec));
        passes.push((traced, timing.wall_s));
        timings.push(timing);
        rec.end_pass();
        frame_latency_ns.append(&mut out.frame_latency_ns);
        failures.extend(ops.verify(w, &out, false));
        last = Some(out);
    }
    rec.set_on(false);
    failures.sort_unstable();
    failures.dedup();
    Timed {
        passes,
        timings,
        rec,
        frame_latency_ns,
        last: last.expect("at least MIN_PASSES passes ran"),
        failures,
    }
}

/// Median host factor of some timed regions.
fn host_factor(timings: &[Timing]) -> f64 {
    median(&timings.iter().map(Timing::host_factor).collect::<Vec<_>>())
}

/// The end-to-end metrics of a plain run.
fn end_to_end_metrics(setups: &[Timing], timed: &Timed) -> (Metrics, Vec<String>) {
    let norm = |t: &[Timing]| t.iter().map(|t| t.norm_s).collect::<Vec<_>>();
    let wall = |t: &[Timing]| t.iter().map(|t| t.wall_s).collect::<Vec<_>>();
    let pass = Summary::of(&norm(&timed.timings));
    let setup = Summary::of(&norm(setups));
    let events = timed.last.offered.events;
    let mut m = Metrics::default();
    m.push("setup_s", setup.median, "s");
    m.push("pass_s", pass.median, "s");
    m.push("events_per_s", events as f64 / pass.median, "1/s");
    m.push("peak_rss_mb", proc_sample().peak_rss_mb, "MB");
    let notes = vec![
        format!(
            "pass_s: median of n={} passes, each its wall time over the host factor around it \
             (min {:.4} q1 {:.4} q3 {:.4} max {:.4}); wall median {:.4} s, host factor median {:.3}",
            pass.n,
            pass.min,
            pass.q1,
            pass.q3,
            pass.max,
            median(&wall(&timed.timings)),
            host_factor(&timed.timings)
        ),
        format!(
            "setup_s: median of n={} set-ups {:.3?}; wall {:.3?}, host factor median {:.3}",
            setups.len(),
            norm(setups),
            wall(setups),
            host_factor(setups)
        ),
        format!("events_per_s: {events} events per pass over pass_s"),
        format!("passes_wall_s: {:.4?}", wall(&timed.timings)),
        format!("passes_s: {:.4?}", norm(&timed.timings)),
    ];
    (m, notes)
}

/// Probes each layer `reps` times over the pass's own input.
fn run_probes(w: &dyn Workload, out: &PassOut, reps: usize) -> (Recorder, ProbeCounts) {
    let mut probes = Recorder::default();
    probes.set_on(true);
    let mut counts = ProbeCounts::default();
    let wire_input = w.wire_input();
    for _ in 0..reps {
        probe_layers(w, out, &wire_input, &mut probes, &mut counts);
    }
    (probes, counts)
}

/// The per-layer metrics of a traced run: builds the table and writes
/// the trace file.
fn per_layer_metrics(
    w: &dyn Workload,
    args: &Args,
    (probes, counts): &(Recorder, ProbeCounts),
    timed: &Timed,
    stamp_json: &str,
) -> std::io::Result<(Metrics, Vec<String>)> {
    let (m, mut notes) = layer_metrics(&TracedRun {
        workload: w,
        passes: &timed.rec,
        probes,
        counts,
        last: &timed.last,
        timed: &timed.passes,
        host_factor: host_factor(&timed.timings),
        frame_latency_ns: &timed.frame_latency_ns,
        proc_end: proc_sample(),
    });
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(&path, timed.rec.to_json(stamp_json))?;
    notes.push(format!(
        "trace: {} spans in {}",
        timed.rec.spans().len(),
        path.display()
    ));
    Ok((m, notes))
}

/// Measures one workload and prints its metrics. Set-ups, probes and
/// passes together last `--seconds`: the passes take what the others
/// leave, so a whole run ends one pass after `--seconds` at most.
pub fn run(args: &Args) -> ExitCode {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    if args.trace && !trace::counting_allocator_installed() {
        eprintln!("wbench: --trace 1 needs the wbench-traced binary (counting allocator)");
        return ExitCode::from(2);
    }
    let plan = Plan::of(args);
    let mut ops = Ops::default();
    let mut clock = HostClock::default();
    let ready = match set_up(args, &plan, &mut ops, &mut clock) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("wbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let w = ready.workload.as_ref();
    // The probes run before the passes, on a warm-up pass's output
    // (every pass produces the same), so that the passes can run up to
    // the deadline.
    let probes = args
        .trace
        .then(|| run_probes(w, &ready.warm, plan.probe_reps));
    drop(ready.warm);
    let timed = timed_region(w, args, &mut ops, &mut clock, deadline);

    let traced_passes = pass_seconds(&timed.passes, true).len();
    let stamp_json = Stamp {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.trace,
        setups: plan.setups,
        warmup_passes: plan.warmups,
        timed_passes: timed.passes.len(),
        traced_passes,
    }
    .to_json();
    let (metrics, notes) = match &probes {
        Some(probes) => match per_layer_metrics(w, args, probes, &timed, &stamp_json) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "wbench: cannot write the trace under {}: {e}",
                    args.out_dir.display()
                );
                return ExitCode::FAILURE;
            }
        },
        None => end_to_end_metrics(&ready.setups, &timed),
    };

    println!("stamp {stamp_json}");
    for m in &metrics.0 {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &notes {
        println!("# {n}");
    }
    println!(
        "# ops: {} attempted (frames offered + passes verified), {} failed",
        ops.attempted, ops.failed
    );
    println!(
        "# run: {:.2} s of wall time for --seconds {}",
        start.elapsed().as_secs_f64(),
        args.seconds
    );
    for f in &timed.failures {
        eprintln!(
            "wbench: {}: a timed pass failed verification: {f}",
            args.workload
        );
    }
    println!("{}", result_line(ops.attempted, ops.failed, &metrics));
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
