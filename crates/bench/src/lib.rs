//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation, printing the paper's reported values next to the
//! measured ones so shape agreement (who wins, by what factor, where
//! knees fall) is visible at a glance. `EXPERIMENTS.md` records the
//! outcomes.
//!
//! The `sentinel` and `infer` drivers share their fleet-scale scenario
//! setup and JSON emission through this crate: [`fleet_config`],
//! [`run_fleet`], [`PUBLISHED_FLEET`] and its [`PUBLISHED_FP`],
//! [`fleet_stream`], [`json_escape`], and
//! [`write_json_file`]. Speed is measured in `benchmark/`, not here.

use whodunit_apps::federation::{fleet_epochs, leaf_stream, replica_header};
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig, TpcwReport};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{EpochBatch, StreamHeader};
use whodunit_core::pipeline::replicate_fleet;
use whodunit_core::stitch::StageDump;

/// Prints a standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!("==========================================================");
}

/// Formats a paper-vs-measured comparison line.
pub fn compare(label: &str, paper: f64, measured: f64, unit: &str) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!("{label:<44} paper {paper:>10.2} {unit:<8} measured {measured:>10.2} {unit:<8} (x{ratio:.2})");
}

/// The published TPC-W fleet: clients, simulated seconds (see
/// [`fleet_config`]) and replicas (see [`run_fleet`]).
pub const PUBLISHED_FLEET: (u32, u64, usize) = (24, 40, 48);

/// The batch fingerprint of [`PUBLISHED_FLEET`]: what `infer` gates
/// `BENCH_infer.json` on and `tests/fingerprint.rs` pins.
pub const PUBLISHED_FP: u64 = 0x20ca_3d2b_1a10_7f2a;

/// The standard fleet-bench TPC-W configuration: `duration_s` seconds
/// of simulated traffic with a quarter of it as warmup.
pub fn fleet_config(clients: u32, duration_s: u64) -> TpcwConfig {
    TpcwConfig {
        clients,
        duration: duration_s * CPU_HZ,
        warmup: (duration_s / 4) * CPU_HZ,
        ..Default::default()
    }
}

/// Runs the 3-tier TPC-W stack once and replicates its dumps into a
/// `replicas`-wide fleet of disjoint-process-id copies.
pub fn run_fleet(cfg: TpcwConfig, replicas: usize) -> (TpcwReport, Vec<StageDump>) {
    let report = run_tpcw(cfg);
    assert_eq!(report.dumps.len(), 3, "all three tiers must dump");
    let fleet = replicate_fleet(&report.dumps, replicas);
    (report, fleet)
}

/// Replicates a recorded single-stack delta stream into a staggered
/// fleet stream: replica `r`'s batches are process-remapped into the
/// `r*g..r*g+g` stage range (mirroring `replicate_fleet`) and start
/// `r * stagger` epochs late.
pub fn fleet_stream(
    hdr: &StreamHeader,
    batches: &[EpochBatch],
    replicas: usize,
    stagger: u64,
) -> (StreamHeader, Vec<EpochBatch>) {
    let total = fleet_epochs(batches.len(), replicas, stagger);
    let slice = leaf_stream(hdr, batches, 0, replicas, stagger, total, CPU_HZ);
    // The federation splitter omits content-free epochs; a flat
    // collector expects a dense batch sequence, so reinsert them.
    let mut out = Vec::with_capacity(total as usize);
    let mut it = slice.into_iter().peekable();
    for ge in 0..total {
        if it.peek().is_some_and(|b| b.epoch == ge) {
            out.push(it.next().expect("peeked"));
        } else {
            out.push(EpochBatch {
                epoch: ge,
                seq: ge,
                end: (ge + 1) * CPU_HZ,
                deltas: Vec::new(),
            });
        }
    }
    (replica_header(hdr, replicas), out)
}

/// The shared scenario corpus of the differential suites.
///
/// Every suite that sweeps the "36-scenario matrix" (6 seeds × 3
/// schedule policies × clean/faulty) builds it from here —
/// `core/tests/parallel_diff.rs`, `collector/tests/streaming_diff.rs`,
/// `collector/tests/federation_diff.rs` and
/// `tests/golden_federation.rs` — instead of carrying per-file copies
/// that can drift apart. A corpus change here intentionally moves
/// every one of those suites at once.
pub mod matrix {
    use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
    use whodunit_apps::STEP_BUDGET;
    use whodunit_core::cost::CPU_HZ;
    use whodunit_core::stitch::StageDump;
    use whodunit_sim::fault::ChannelFaults;
    use whodunit_sim::sched::SchedulePolicy;
    use whodunit_sim::ScenarioFaults;

    /// The matrix seeds: 6 × [`schedules`] × clean/faulty = 36.
    pub const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

    /// The three schedule policies per seed.
    pub fn schedules(seed: u64) -> [SchedulePolicy; 3] {
        [
            SchedulePolicy::Fifo,
            SchedulePolicy::Random { seed: seed ^ 0xa5 },
            SchedulePolicy::Perturb {
                seed: seed ^ 0x5a,
                swap_ppm: 200_000,
            },
        ]
    }

    /// The matrix fault plan: lossy/dup/laggy DB channel, lossy
    /// frontend channel.
    pub fn faults(seed: u64) -> ScenarioFaults {
        ScenarioFaults {
            seed: seed ^ 0xfa07,
            backbone: ChannelFaults {
                drop_p: 0.02,
                dup_p: 0.01,
                delay_p: 0.05,
                delay_cycles: CPU_HZ / 100,
            },
            front: ChannelFaults {
                drop_p: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// One matrix scenario's TPC-W configuration.
    pub fn scenario_cfg(seed: u64, sched: SchedulePolicy, faulty: bool) -> TpcwConfig {
        TpcwConfig {
            clients: 12,
            duration: 25 * CPU_HZ,
            warmup: 5 * CPU_HZ,
            seed,
            sched,
            faults: faulty.then(|| faults(seed)),
            step_budget: Some(STEP_BUDGET),
            ..Default::default()
        }
    }

    /// Runs one matrix scenario and returns its three stage dumps.
    pub fn scenario_dumps(seed: u64, sched: SchedulePolicy, faulty: bool) -> Vec<StageDump> {
        let report = run_tpcw(scenario_cfg(seed, sched, faulty));
        assert_eq!(report.dumps.len(), 3, "squid, tomcat, mysql all dump");
        report.dumps
    }

    /// The 12-scenario inference slice of the matrix: the 6 seeds ×
    /// clean/faulty under Fifo, each with the passive comm-event log
    /// enabled so black-box inference (`whodunit-infer`) has a trace
    /// to stitch and score. Fifo only: the inference suites measure
    /// attribution quality against message-level ground truth, and the
    /// fault axis (drops, dups, delays) already supplies the pairing
    /// ambiguity that the schedule axis would add; the full 36-way
    /// product stays with the byte-identity suites.
    pub fn inference_slice() -> Vec<(String, TpcwConfig)> {
        let mut out = Vec::new();
        for faulty in [false, true] {
            for seed in SEEDS {
                let mut cfg = scenario_cfg(seed, SchedulePolicy::Fifo, faulty);
                cfg.comm_log = true;
                let kind = if faulty { "faulty" } else { "clean" };
                out.push((format!("tpcw/{kind}/s{seed}"), cfg));
            }
        }
        out
    }

    /// The federation suites' smaller clean scenario (fan-in shapes
    /// multiply the replica count, so each stack run is shorter).
    pub fn federation_cfg(seed: u64) -> TpcwConfig {
        TpcwConfig {
            clients: 10,
            duration: 20 * CPU_HZ,
            warmup: 5 * CPU_HZ,
            seed,
            step_budget: Some(STEP_BUDGET),
            ..Default::default()
        }
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes a JSON document, creating parent directories as needed.
pub fn write_json_file(path: &str, content: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(path, content).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}
