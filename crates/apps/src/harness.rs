//! The build harness every model's `run_*` goes through. A model
//! names its machines, channels, threads and fault plan; [`Build`]
//! owns what every model shares around them: the simulator with its
//! schedule policy and step budget, tier registration, the client
//! process, the livelock plant, the batch or streaming run, and the
//! [`RunTail`] every verdict reads. The order in which a model
//! registers processes, creates channels and spawns threads fixes ids,
//! the schedule and the fault plan's roll stream, so each call sits at
//! a fixed point of the model's build (DESIGN.md §8, "One harness").

use crate::rtconf::{make_runtime, ProcRuntime, RtKind};
use whodunit_core::blackbox::CommLog;
use whodunit_core::delta::DeltaSink;
use whodunit_core::ids::ProcId;
use whodunit_sim::{
    plant_livelock_pair, Cycles, MachineId, RunOutcome, SchedulePolicy, Sim, SimConfig,
};

/// A streaming run's epoch length and sink; `None` runs in batch.
pub(crate) type Stream<'a> = Option<(u64, &'a mut dyn DeltaSink)>;

/// What every run leaves behind for its verdict
/// ([`crate::chaos::Assembly::run`]).
#[derive(Debug)]
pub struct RunTail {
    /// How the run ended: limit reached, idle, or a detected
    /// deadlock/livelock with its diagnostic.
    pub outcome: RunOutcome,
    /// Ground-truth compute cycles per profiled tier, in registration
    /// order, straight from the simulator: the denominator of
    /// profile-mass conservation.
    pub compute_truth: Vec<u64>,
    /// The comm event log (with ground truth) when the model's
    /// `comm_log` was set. Procs are numbered in registration order;
    /// the client process is the marked origin.
    pub comm: Option<CommLog>,
    /// Messages the fault plan dropped on the wire.
    pub dropped_msgs: u64,
    /// Messages the fault plan duplicated on the wire.
    pub duplicated_msgs: u64,
    /// Messages the fault plan delayed on the wire.
    pub delayed_msgs: u64,
}

/// One model's simulation while it is built and run.
pub(crate) struct Build {
    pub(crate) sim: Sim,
    rt: RtKind,
    tiers: Vec<ProcId>,
    /// The client process and its machine, once registered.
    pub(crate) client: Option<(ProcId, MachineId)>,
}

impl Build {
    /// A new simulation whose profiled tiers get runtimes of kind `rt`.
    pub(crate) fn start(rt: RtKind, sched: SchedulePolicy, step_budget: Option<u64>) -> Build {
        let mut sim = Sim::new(SimConfig::default());
        sim.set_schedule_policy(sched);
        sim.set_step_budget(step_budget);
        Build {
            sim,
            rt,
            tiers: Vec::new(),
            client: None,
        }
    }

    /// Registers a profiled tier named `name`.
    pub(crate) fn tier(&mut self, name: &str) -> (ProcId, ProcRuntime) {
        let proc = self.sim.next_proc();
        let pr = make_runtime(self.rt, proc, name, self.sim.frames().clone());
        let p = self.sim.add_process(pr.rt.clone());
        self.tiers.push(p);
        (p, pr)
    }

    /// Registers the unprofiled client process, whose threads run on
    /// `machine` (the livelock pair joins them there).
    pub(crate) fn client(&mut self, machine: MachineId, comm_log: bool) -> ProcId {
        let p = self.sim.add_unprofiled_process();
        if comm_log {
            self.sim.mark_comm_origin(p);
        }
        self.client = Some((p, machine));
        p
    }

    /// Plants the livelock pair among the clients if asked, runs to
    /// `duration` (in epochs into the sink, if streaming) and reads the
    /// run's tail. The simulation stays readable for the model's own
    /// measurements.
    pub(crate) fn run(
        &mut self,
        duration: Cycles,
        livelock_pair: bool,
        stream: Stream<'_>,
    ) -> RunTail {
        if livelock_pair {
            let (p, m) = self.client.expect("the livelock pair joins the clients");
            plant_livelock_pair(&mut self.sim, p, m);
        }
        let sim = &mut self.sim;
        let outcome = match stream {
            None => sim.run_until(duration),
            Some((epoch_len, sink)) => sim.run_streaming(duration, epoch_len, sink),
        };
        RunTail {
            outcome,
            comm: sim.take_comm_log(),
            compute_truth: self
                .tiers
                .iter()
                .map(|&p| sim.proc_compute_cycles(p))
                .collect(),
            dropped_msgs: sim.chans.total_dropped(),
            duplicated_msgs: sim.chans.total_duplicated(),
            delayed_msgs: sim.chans.total_delayed(),
        }
    }
}
