//! federation: leaf/regional/global aggregation at fleet scale.
//!
//! Records one 3-tier TPC-W run's epoch delta stream, replicates it
//! into a staggered fleet of disjoint-process-id replicas (the same
//! delta-level remap trick as `collectord`, scaled into the thousands
//! now that synopses carry 64-bit process ids), and carves the fleet
//! across a leaf → regional → root federation. Four scenarios, each a
//! hard gate:
//!
//! - **clean**: every uplink delivers; the root's finalized report
//!   must be byte-identical to batch `analyze` over `replicate_fleet`
//!   of the same dumps, with zero ledger mass loss, bounded resident
//!   peaks at every level, and the summary path compacting (never
//!   inflating) the stream;
//! - **recovery**: a planted leaf crash at a mid-run tick with a later
//!   restart; the leaf must recover from its checkpoint with zero mass
//!   loss and byte-identity intact, and the root-observed recovery
//!   latency (epochs from crash to the recovered leaf reappearing in
//!   root state) is recorded;
//! - **lossy**: every link runs under a seeded drop/dup/delay plan;
//!   retransmission must heal the stream back to byte-identity;
//! - **degraded**: a leaf dies and never returns; the run must
//!   finalize (not abort) with honest partial coverage — the lost
//!   subtree marked degraded, the survivors' mass fully delivered,
//!   and the federation ledger oracle clean.
//!
//! Results go to `BENCH_federation.json`. Modes:
//!
//! - `federation [--replicas R] [--max-replicas CAP] [--clients C]
//!   [--duration-s S] [--stagger E] [--leaves L] [--regions G]
//!   [--out FILE]` — full run. The effective replica cap is
//!   `--max-replicas` when given, else `WHODUNIT_MAX_REPLICAS`, else
//!   the legacy default; the full-mode default asks for 1024 replicas,
//!   so raise the cap to get the fleet-scale headline numbers.
//! - `federation --smoke` — small fixed configuration; CI gate.

use std::process::ExitCode;
use std::time::Instant;
use whodunit_apps::federation::{fan_in_topology, run_federation, FaultLinkPolicy, FedCrash};
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::{clamp_replicas_to, fleet_config, header, replica_cap, write_json_file};
use whodunit_collector::federation::{
    CleanLinks, FedNodeId, FederationConfig, FederationOutput, LinkPolicy,
};
use whodunit_collector::CollectorConfig;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::RecordingSink;
use whodunit_core::oracle::check_federation;
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_sim::fault::ChannelFaults;
use whodunit_sim::FaultPlan;

struct Args {
    replicas: usize,
    max_replicas: Option<usize>,
    clients: u32,
    duration_s: u64,
    stagger: u64,
    leaves: usize,
    regions: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        replicas: 1024,
        max_replicas: None,
        clients: 12,
        duration_s: 20,
        stagger: 2,
        leaves: 64,
        regions: 8,
        out: "BENCH_federation.json".to_owned(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--replicas" => {
                a.replicas = val("--replicas")?.parse().map_err(|e| format!("--replicas: {e}"))?
            }
            "--max-replicas" => {
                a.max_replicas = Some(
                    val("--max-replicas")?
                        .parse()
                        .map_err(|e| format!("--max-replicas: {e}"))?,
                )
            }
            "--clients" => {
                a.clients = val("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--duration-s" => {
                a.duration_s =
                    val("--duration-s")?.parse().map_err(|e| format!("--duration-s: {e}"))?
            }
            "--stagger" => {
                a.stagger = val("--stagger")?.parse().map_err(|e| format!("--stagger: {e}"))?
            }
            "--leaves" => {
                a.leaves = val("--leaves")?.parse().map_err(|e| format!("--leaves: {e}"))?
            }
            "--regions" => {
                a.regions = val("--regions")?.parse().map_err(|e| format!("--regions: {e}"))?
            }
            "--out" => a.out = val("--out")?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.smoke {
        a.replicas = 24;
        a.clients = 10;
        a.duration_s = 12;
        a.stagger = 2;
        a.leaves = 4;
        a.regions = 2;
    }
    let requested = a.replicas;
    let cap = a.max_replicas.unwrap_or_else(replica_cap);
    a.replicas = clamp_replicas_to(a.replicas, cap);
    if a.replicas < requested {
        println!(
            "replica cap {cap} clamped the fleet {requested} -> {} \
             (pass --max-replicas or set WHODUNIT_MAX_REPLICAS to scale further)",
            a.replicas
        );
    }
    a.stagger = a.stagger.max(1);
    a.regions = a.regions.clamp(1, a.leaves.max(1));
    a.leaves = a.leaves.max(a.regions);
    Ok(a)
}

/// Leaf counts per region: sizes differing by at most one.
fn regions_of(leaves: usize, regions: usize) -> Vec<usize> {
    let base = leaves / regions;
    (0..regions)
        .map(|r| base + usize::from(r < leaves % regions))
        .collect()
}

fn identical(reference: &PipelineReport, got: &PipelineReport) -> bool {
    got.fingerprint() == reference.fingerprint()
        && got.stitched_text() == reference.stitched_text()
        && got.crosstalk_text() == reference.crosstalk_text()
        && got.dumps_json == reference.dumps_json
        && got.dict == reference.dict
}

/// Undelivered mass across the whole ledger: zero means the root
/// accounted for every cycle the leaves ingested.
fn mass_loss(out: &FederationOutput) -> u64 {
    let truth: u64 = out.evidence.subtrees.iter().map(|s| s.truth).sum();
    let delivered: u64 = out.evidence.subtrees.iter().map(|s| s.delivered).sum();
    truth.saturating_sub(delivered)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("federation: {e}");
            return ExitCode::FAILURE;
        }
    };
    header(
        "federation",
        "fault-tolerant collector federation: leaf/regional/global aggregation",
    );

    let cfg = fleet_config(args.clients, args.duration_s);
    println!(
        "recording 3-tier TPC-W delta stream: clients={} duration={}s epoch=1s",
        cfg.clients, args.duration_s
    );
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
    assert_eq!(report.dumps.len(), 3, "all three tiers must dump");

    let regions = regions_of(args.leaves, args.regions);
    let fed_cfg = FederationConfig::default();

    let t = Instant::now();
    let reference = analyze(
        replicate_fleet(&report.dumps, args.replicas),
        PipelineConfig {
            workers: 1,
            shards: CollectorConfig::default().shards,
        },
    );
    let batch_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "fleet: {} replicas across {} leaves in {} regions ({} origins, batch reference {:.0} ms)",
        args.replicas,
        regions.iter().sum::<usize>().min(args.replicas),
        regions.len(),
        reference.profiles.len(),
        batch_ms
    );

    let run = |policy: Box<dyn LinkPolicy>, crashes: &[FedCrash]| -> (FederationOutput, f64) {
        let t = Instant::now();
        let out = run_federation(
            &sink.header,
            &sink.batches,
            args.replicas,
            args.stagger,
            CPU_HZ,
            &regions,
            fed_cfg.clone(),
            policy,
            crashes,
        );
        (out, t.elapsed().as_secs_f64() * 1e3)
    };

    let mut ok = true;

    // -- clean: byte-identity, zero loss, bounded residency --
    let (clean, clean_ms) = run(Box::new(CleanLinks), &[]);
    let s = clean.stats.clone();
    let byte_identical_clean = identical(&reference, &clean.output.report);
    let mass_loss_clean = mass_loss(&clean);
    let compaction = s.leaf_events_in as f64 / (s.root_events_applied.max(1)) as f64;
    println!(
        "clean: {:.0} ms  events {} -> {} (compaction x{:.2})  frames {}  identical={}  mass loss {}",
        clean_ms, s.leaf_events_in, s.root_events_applied, compaction, s.frames_sent,
        byte_identical_clean, mass_loss_clean
    );
    println!(
        "peak resident: leaf {}  regional {}  root {}  (stream {} events)",
        s.peak_resident_leaf, s.peak_resident_regional, s.peak_resident_root, s.leaf_events_in
    );
    println!(
        "links: leaf {} B  regional {} B  decode errors {}",
        s.leaf_link_wire_bytes, s.regional_link_wire_bytes, s.wire_decode_errors
    );
    ok &= byte_identical_clean
        && mass_loss_clean == 0
        && s.wire_decode_errors == 0
        && s.leaf_link_wire_bytes > 0
        && s.regional_link_wire_bytes > 0
        && clean.coverage_ppm == 1_000_000
        && clean.degraded.is_empty()
        && !clean.output.stats.used_fallback
        && check_federation(&clean.evidence).is_empty()
        && s.peak_resident_leaf < s.leaf_events_in
        && s.peak_resident_regional < s.leaf_events_in
        && s.root_events_applied <= s.leaf_events_in
        && s.spool_stalls == 0;

    // -- recovery: planted leaf crash, restart from checkpoint --
    // The stagger gives each leaf a narrow activity window inside the
    // fleet stream; a crash outside it is vacuous (nothing missed, no
    // frame for the root to observe the restart by), so plant it a
    // third of the way into the victim's own window.
    let victim = 1.min(regions.iter().sum::<usize>() - 1);
    let g = sink.header.stages.len();
    let (_, ranges) = fan_in_topology(args.replicas, g, &regions);
    let (r0, r1) = ranges[victim];
    let window_start = r0 as u64 * args.stagger;
    let window_end = (r1 as u64 - 1) * args.stagger + sink.batches.len() as u64;
    let crash_at = window_start + (window_end - window_start) / 3;
    let crash = FedCrash {
        node: FedNodeId::Leaf(victim),
        at: crash_at,
        recover_at: Some(crash_at + 8),
    };
    let (rec, rec_ms) = run(Box::new(CleanLinks), &[crash]);
    let rec_identical = identical(&reference, &rec.output.report);
    let rec_loss = mass_loss(&rec);
    let latency = rec.recovery.first().and_then(|r| {
        r.recovered_epoch.map(|e| e.saturating_sub(r.crash_epoch))
    });
    println!(
        "recovery: {:.0} ms  crash tick {}  missed {} batches  latency {:?} epochs  identical={}  mass loss {}",
        rec_ms, crash_at, rec.stats.missed_batches, latency, rec_identical, rec_loss
    );
    ok &= rec_identical
        && rec_loss == 0
        && rec.coverage_ppm == 1_000_000
        && rec.stats.recoveries == 1
        && latency.is_some();

    // -- lossy: seeded drop/dup/delay on every link, healed by retry --
    let plan = FaultPlan::new(0xfed).default_channel_faults(ChannelFaults {
        drop_p: 0.08,
        dup_p: 0.04,
        delay_p: 0.08,
        delay_cycles: 3,
    });
    let (lossy, lossy_ms) = run(Box::new(FaultLinkPolicy::new(plan)), &[]);
    let lossy_identical = identical(&reference, &lossy.output.report);
    println!(
        "lossy: {:.0} ms  lost {}+{}  retransmits {}  dups seen {}  identical={}",
        lossy_ms,
        lossy.stats.frames_lost,
        lossy.stats.acks_lost,
        lossy.stats.retransmits,
        lossy.stats.dup_frames,
        lossy_identical
    );
    ok &= lossy_identical
        && mass_loss(&lossy) == 0
        && lossy.stats.frames_lost + lossy.stats.acks_lost > 0
        && lossy.stats.retransmits > 0;

    // -- degraded: unrecoverable leaf, honest partial finalize --
    let mut degraded_cfg = fed_cfg.clone();
    degraded_cfg.deadline_ticks = 256;
    let t = Instant::now();
    let deg = run_federation(
        &sink.header,
        &sink.batches,
        args.replicas,
        args.stagger,
        CPU_HZ,
        &regions,
        degraded_cfg,
        Box::new(CleanLinks),
        &[FedCrash {
            node: crash.node,
            at: crash_at,
            recover_at: None,
        }],
    );
    let deg_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "degraded: {:.0} ms  coverage {}.{:04}%  degraded subtrees {:?}",
        deg_ms,
        deg.coverage_ppm / 10_000,
        deg.coverage_ppm % 10_000,
        deg.degraded
    );
    ok &= deg.coverage_ppm < 1_000_000
        && deg.coverage_ppm > 0
        && !deg.degraded.is_empty()
        && check_federation(&deg.evidence).is_empty()
        && !deg.output.report.profiles.is_empty();

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"federation\",\n");
    j.push_str(&format!(
        "  \"config\": {{\"replicas\": {}, \"clients\": {}, \"duration_s\": {}, \"stagger_epochs\": {}, \"smoke\": {}}},\n",
        args.replicas, args.clients, args.duration_s, args.stagger, args.smoke
    ));
    j.push_str(&format!(
        "  \"fan_in\": {{\"leaves\": {}, \"regions\": {}, \"replicas_per_leaf\": {:.1}}},\n",
        regions.iter().sum::<usize>().min(args.replicas),
        regions.len(),
        args.replicas as f64 / regions.iter().sum::<usize>().min(args.replicas) as f64
    ));
    j.push_str(&format!(
        "  \"batch_fingerprint\": \"{:016x}\",\n",
        reference.fingerprint()
    ));
    j.push_str(&format!("  \"byte_identical_clean\": {byte_identical_clean},\n"));
    j.push_str(&format!("  \"mass_loss_clean\": {mass_loss_clean},\n"));
    j.push_str(&format!(
        "  \"clean\": {{\"wall_ms\": {:.1}, \"batch_wall_ms\": {:.1}, \"frames_sent\": {}, \"checkpoints\": {}, \"leaf_events_in\": {}, \"root_events_applied\": {}, \"compaction_ratio\": {:.3}}},\n",
        clean_ms, batch_ms, s.frames_sent, s.checkpoints, s.leaf_events_in,
        s.root_events_applied, compaction
    ));
    j.push_str(&format!(
        "  \"peak_resident\": {{\"per_level\": {{\"leaf\": {}, \"regional\": {}, \"root\": {}}}, \"stream_events\": {}}},\n",
        s.peak_resident_leaf, s.peak_resident_regional, s.peak_resident_root, s.leaf_events_in
    ));
    j.push_str(&format!(
        "  \"recovery\": {{\"latency_epochs\": {}, \"crash_tick\": {}, \"missed_batches\": {}, \"mass_loss\": {}, \"byte_identical\": {}}},\n",
        latency.unwrap_or(u64::MAX),
        crash_at,
        rec.stats.missed_batches,
        rec_loss,
        rec_identical
    ));
    j.push_str(&format!(
        "  \"lossy\": {{\"frames_lost\": {}, \"acks_lost\": {}, \"retransmits\": {}, \"dup_frames\": {}, \"byte_identical\": {}}},\n",
        lossy.stats.frames_lost, lossy.stats.acks_lost, lossy.stats.retransmits,
        lossy.stats.dup_frames, lossy_identical
    ));
    j.push_str(&format!(
        "  \"degraded\": {{\"coverage_ppm\": {}, \"subtrees\": {}}},\n",
        deg.coverage_ppm,
        deg.degraded.len()
    ));
    j.push_str(&format!(
        "  \"wire_links\": {{\"leaf_wire_bytes\": {}, \"regional_wire_bytes\": {}, \"decode_errors\": {}}},\n",
        s.leaf_link_wire_bytes, s.regional_link_wire_bytes, s.wire_decode_errors
    ));
    j.push_str(&format!("  \"ok\": {ok}\n"));
    j.push_str("}\n");
    write_json_file(&args.out, &j);
    println!("wrote {}", args.out);

    if !ok {
        eprintln!("FAIL: divergence, mass loss, unbounded residency, or a dishonest finalize");
        return ExitCode::FAILURE;
    }
    println!("all four scenarios held: byte-identical, zero-loss, bounded, honest when degraded");
    ExitCode::SUCCESS
}
