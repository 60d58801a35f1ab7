//! Driving the collector federation from recorded application streams.
//!
//! The federation tier ([`whodunit_collector::federation`]) is
//! substrate-agnostic: it consumes [`EpochBatch`]es per leaf and a
//! [`LinkPolicy`] for its uplinks. This module supplies both from the
//! TPC-W stack:
//!
//! - [`replica_header`] / [`leaf_stream`]: the delta-level
//!   process-remap trick the fleet benches use (`replicate_fleet` at
//!   the dump level, `fleet_stream` at the stream level), sliced per
//!   leaf — replica `r`'s single-stack stream is remapped into the
//!   `r*g..r*g+g` global stage range and staggered `r * stagger`
//!   epochs, so a leaf owning replicas `[r0, r1)` sees exactly its
//!   subtree's slice of the fleet;
//! - [`fan_in_topology`]: contiguous replica → leaf → region
//!   assignment for any fan-in shape;
//! - [`FaultLinkPolicy`]: the simulator's seeded [`FaultPlan`]
//!   (drop/dup/delay/partition, bit-stable draw stream) adapted onto
//!   the federation's links;
//! - [`run_federation`]: the whole drive loop — build, feed, tick,
//!   finalize — shared by the differential suite and the
//!   `federation` bench.

use whodunit_collector::federation::{
    FedNodeId, Federation, FederationConfig, FederationOutput, LinkPolicy, LinkVerdict,
};
use whodunit_core::delta::{EpochBatch, StreamHeader, StreamStage};
use whodunit_core::ids::ChanId;
use whodunit_sim::FaultPlan;

use std::collections::HashMap;

/// The global fleet header for `replicas` copies of the recorded
/// single-stack header: replica `r`'s stage `i` becomes global stage
/// `r*g + i` with process id `r*g + proc_index(i)` — exactly the id
/// space `replicate_fleet` uses at the dump level.
pub fn replica_header(hdr: &StreamHeader, replicas: usize) -> StreamHeader {
    let g = hdr.stages.len();
    let proc_index = proc_index_of(hdr);
    let mut stages = Vec::with_capacity(g * replicas);
    for r in 0..replicas {
        for s in &hdr.stages {
            stages.push(StreamStage {
                proc: (r * g + proc_index[&s.proc]) as u32,
                stage_name: s.stage_name.clone(),
            });
        }
    }
    StreamHeader { stages }
}

fn proc_index_of(hdr: &StreamHeader) -> HashMap<u32, usize> {
    hdr.stages
        .iter()
        .enumerate()
        .map(|(i, s)| (s.proc, i))
        .collect()
}

/// Total fleet-stream epochs for a recorded stream of `local` epochs
/// replicated `replicas` times with the given stagger.
pub fn fleet_epochs(local: usize, replicas: usize, stagger: u64) -> u64 {
    local as u64 + (replicas as u64 - 1) * stagger
}

/// The slice of the staggered fleet stream owned by one leaf: batches
/// carrying replicas `[r0, r1)`, remapped into global stage/process
/// space, one batch per global epoch (batches with no deltas for the
/// slice are omitted). `end` is stamped as `(epoch + 1) * epoch_len`.
pub fn leaf_stream(
    hdr: &StreamHeader,
    batches: &[EpochBatch],
    r0: usize,
    r1: usize,
    stagger: u64,
    total_epochs: u64,
    epoch_len: u64,
) -> Vec<EpochBatch> {
    let g = hdr.stages.len();
    let proc_index = proc_index_of(hdr);
    let local = batches.len() as u64;
    let mut out = Vec::new();
    for ge in 0..total_epochs {
        let mut deltas = Vec::new();
        for r in r0..r1 {
            let start = r as u64 * stagger;
            if ge < start || ge - start >= local {
                continue;
            }
            let b = &batches[(ge - start) as usize];
            let map = |p: u32| proc_index.get(&p).map(|&i| (r * g + i) as u32);
            for d in &b.deltas {
                deltas.push(d.with_remapped_proc(r * g + d.stage, &map));
            }
        }
        if deltas.is_empty() {
            continue;
        }
        out.push(EpochBatch {
            epoch: ge,
            seq: ge,
            end: (ge + 1) * epoch_len,
            deltas,
        });
    }
    out
}

/// A federation topology: per region, per leaf, the owned global
/// stage indices (the shape `Federation::new` consumes).
pub type FedTopology = Vec<Vec<Vec<usize>>>;

/// Contiguous replica → leaf → region assignment.
///
/// `leaves_by_region[r]` is the leaf count of region `r`; `replicas`
/// are split across the leaves in order, sizes differing by at most
/// one (leaves beyond the replica count own nothing and are not
/// created). Returns the federation topology (per-leaf owned global
/// stage index lists, `g` stages per replica) and the per-leaf replica
/// ranges `[r0, r1)` in leaf-id order.
pub fn fan_in_topology(
    replicas: usize,
    g: usize,
    leaves_by_region: &[usize],
) -> (FedTopology, Vec<(usize, usize)>) {
    let total_leaves: usize = leaves_by_region.iter().sum();
    assert!(total_leaves > 0, "topology needs at least one leaf");
    let used = total_leaves.min(replicas);
    let base = replicas / used;
    let extra = replicas % used;
    let mut ranges = Vec::with_capacity(used);
    let mut next = 0;
    for l in 0..used {
        let take = base + usize::from(l < extra);
        ranges.push((next, next + take));
        next += take;
    }
    assert_eq!(next, replicas);
    let mut topo = Vec::new();
    let mut leaf = 0;
    for &n in leaves_by_region {
        let mut region = Vec::new();
        for _ in 0..n {
            if leaf >= used {
                break;
            }
            let (r0, r1) = ranges[leaf];
            region.push((r0 * g..r1 * g).collect());
            leaf += 1;
        }
        if !region.is_empty() {
            topo.push(region);
        }
    }
    (topo, ranges)
}

/// The simulator's seeded fault plan adapted onto federation links:
/// link ids become [`ChanId`]s, federation ticks become the plan's
/// virtual time (so partition windows are expressed in ticks), and
/// `extra_delay` is used as a tick count.
pub struct FaultLinkPolicy {
    plan: FaultPlan,
}

impl FaultLinkPolicy {
    /// Wraps a plan. Channel ids in the plan address federation links:
    /// leaf uplinks are `ChanId(leaf_id)`, regional uplinks are
    /// `ChanId(leaf_count + region)`.
    pub fn new(plan: FaultPlan) -> FaultLinkPolicy {
        FaultLinkPolicy { plan }
    }
}

impl LinkPolicy for FaultLinkPolicy {
    fn verdict(&mut self, link: u32, now: u64) -> LinkVerdict {
        let v = self.plan.send_verdict_at(ChanId(link), now);
        LinkVerdict {
            copies: v.copies,
            delay: v.extra_delay,
        }
    }
}

/// One planted crash for [`run_federation`].
#[derive(Clone, Copy, Debug)]
pub struct FedCrash {
    /// The node to kill.
    pub node: FedNodeId,
    /// Federation tick of the crash.
    pub at: u64,
    /// Recovery tick, or `None` for an unrecoverable loss.
    pub recover_at: Option<u64>,
}

/// Builds a federation over the replicated fleet of a recorded
/// single-stack stream and drives it to completion: one feed round per
/// global epoch (each leaf gets its slice), one tick per epoch, then
/// finalize (which drains until quiescent or deadline).
#[allow(clippy::too_many_arguments)]
pub fn run_federation(
    hdr: &StreamHeader,
    batches: &[EpochBatch],
    replicas: usize,
    stagger: u64,
    epoch_len: u64,
    leaves_by_region: &[usize],
    cfg: FederationConfig,
    policy: Box<dyn LinkPolicy>,
    crashes: &[FedCrash],
) -> FederationOutput {
    let g = hdr.stages.len();
    let global = replica_header(hdr, replicas);
    let (topo, ranges) = fan_in_topology(replicas, g, leaves_by_region);
    let total = fleet_epochs(batches.len(), replicas, stagger);
    let streams: Vec<Vec<EpochBatch>> = ranges
        .iter()
        .map(|&(r0, r1)| leaf_stream(hdr, batches, r0, r1, stagger, total, epoch_len))
        .collect();
    let mut fed = Federation::new(&global, &topo, cfg, policy);
    for c in crashes {
        fed.crash(c.node, c.at, c.recover_at);
    }
    let mut cursors = vec![0usize; streams.len()];
    for ge in 0..total {
        // One round per global epoch, at most one batch per leaf.
        let mut round: Vec<(usize, &EpochBatch)> = Vec::new();
        for (leaf, stream) in streams.iter().enumerate() {
            let cur = cursors[leaf];
            if cur < stream.len() && stream[cur].epoch == ge {
                round.push((leaf, &stream[cur]));
                cursors[leaf] = cur + 1;
            }
        }
        fed.feed_round(&round);
        fed.tick();
    }
    fed.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_splits_replicas_contiguously() {
        let (topo, ranges) = fan_in_topology(10, 3, &[2, 2]);
        assert_eq!(topo.len(), 2);
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        // Leaf 0 owns replicas 0..3 → global stages 0..9.
        assert_eq!(topo[0][0], (0..9).collect::<Vec<_>>());
        assert_eq!(topo[1][1], (24..30).collect::<Vec<_>>());
    }

    #[test]
    fn topology_with_more_leaves_than_replicas_shrinks() {
        let (topo, ranges) = fan_in_topology(2, 3, &[2, 2]);
        let leaves: usize = topo.iter().map(|r| r.len()).sum();
        assert_eq!(leaves, 2);
        assert_eq!(ranges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn fault_link_policy_mirrors_the_plan() {
        let plan = FaultPlan::new(7).partition(ChanId(0), 5, 10);
        let mut ours = FaultLinkPolicy::new(plan.clone());
        let mut theirs = plan;
        for now in 0..20 {
            for link in [0u32, 1] {
                let a = ours.verdict(link, now);
                let b = theirs.send_verdict_at(ChanId(link), now);
                assert_eq!((a.copies, a.delay), (b.copies, b.extra_delay));
            }
        }
    }
}
