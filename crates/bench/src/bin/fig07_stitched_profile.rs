//! Figure 7: the stitched transactional profile of an RPC caller and
//! callee with two transaction paths (`foo` and `bar`).
//!
//! Figures 6–7 are the paper's illustration of transaction contexts
//! across message passing: the callee's call-path tree appears once per
//! caller context, connected by request edges. This binary builds the
//! exact scenario, stitches the two stage dumps, and renders the
//! Figure 7 graph (text and DOT).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use whodunit_bench::header;
use whodunit_core::cost::ms_to_cycles;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, ProcId};
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_core::profiler::{Whodunit, WhodunitConfig};
use whodunit_core::rt::Runtime;
use whodunit_report::render;
use whodunit_sim::{Msg, Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake};

struct Caller {
    svc: ChanId,
    reply: ChanId,
    frames: Vec<FrameId>, // [main, foo, bar, rpc_call, send]
    rounds: u32,
    state: u8,
}

impl ThreadBody for Caller {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                cx.push_frame(self.frames[0]);
                self.state = 1;
                Op::Compute(ms_to_cycles(0.1))
            }
            1 => {
                if self.rounds == 0 {
                    return Op::Exit;
                }
                let via = if self.rounds.is_multiple_of(2) { 1 } else { 2 };
                cx.push_frame(self.frames[via]);
                cx.push_frame(self.frames[3]);
                cx.push_frame(self.frames[4]);
                self.state = 2;
                Op::Send(self.svc, Msg::new(self.reply, 256))
            }
            2 => {
                self.state = 3;
                Op::Recv(self.reply)
            }
            3 => {
                let Wake::Received(_) = wake else {
                    unreachable!()
                };
                cx.pop_frame();
                cx.pop_frame();
                cx.pop_frame();
                self.rounds -= 1;
                self.state = 1;
                Op::Compute(ms_to_cycles(0.3))
            }
            _ => Op::Exit,
        }
    }
}

struct Callee {
    in_chan: ChanId,
    frames: Vec<FrameId>, // [main, svc_run, dispatch, callee_rpc_svc, send]
    queue: VecDeque<ChanId>,
    state: u8,
}

impl ThreadBody for Callee {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                cx.push_frame(self.frames[0]);
                cx.push_frame(self.frames[1]);
                self.state = 1;
                Op::Recv(self.in_chan)
            }
            1 => {
                let Wake::Received(msg) = wake else {
                    unreachable!()
                };
                self.queue.push_back(msg.take::<ChanId>());
                cx.push_frame(self.frames[2]);
                cx.push_frame(self.frames[3]);
                self.state = 2;
                Op::Compute(ms_to_cycles(2.0))
            }
            2 => {
                cx.pop_frame();
                cx.push_frame(self.frames[4]);
                self.state = 3;
                Op::Send(self.queue.pop_front().unwrap(), Msg::new((), 512))
            }
            3 => {
                cx.pop_frame();
                cx.pop_frame();
                self.state = 1;
                Op::Recv(self.in_chan)
            }
            _ => Op::Exit,
        }
    }
}

fn main() {
    header(
        "Figure 7",
        "stitched caller/callee transactional profile (foo and bar paths)",
    );
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.add_machine(2);
    let caller_rt = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(0), "caller"),
        sim.frames().clone(),
    )));
    let callee_rt = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(1), "callee"),
        sim.frames().clone(),
    )));
    let pc = sim.add_process(caller_rt.clone());
    let ps = sim.add_process(callee_rt.clone());
    let svc = sim.add_channel(50_000, 2);
    let reply = sim.add_channel(50_000, 2);
    let caller_frames = ["main_caller", "foo", "bar", "rpc_call", "send"]
        .iter()
        .map(|n| sim.frame(n))
        .collect();
    let callee_frames = [
        "main_callee",
        "svc_run",
        "dispatch",
        "callee_rpc_svc",
        "send",
    ]
    .iter()
    .map(|n| sim.frame(n))
    .collect();
    sim.spawn(
        pc,
        m,
        "caller",
        Box::new(Caller {
            svc,
            reply,
            frames: caller_frames,
            rounds: 40,
            state: 0,
        }),
    );
    sim.spawn(
        ps,
        m,
        "callee",
        Box::new(Callee {
            in_chan: svc,
            frames: callee_frames,
            queue: VecDeque::new(),
            state: 0,
        }),
    );
    let outcome = sim.run_to_idle();
    outcome.assert_ok();

    let dumps = vec![
        caller_rt.borrow().dump().unwrap(),
        callee_rt.borrow().dump().unwrap(),
    ];
    let stitched = analyze(dumps, PipelineConfig::default());
    print!("{}", render::render_stitched_text(&stitched));

    // The Figure 7 shape: the callee's call-path tree appears twice,
    // once per caller transaction context.
    let callee_ccts = stitched.stages[1].ccts.len();
    println!("\ncallee CCT instances: {callee_ccts} (Figure 7 shows the tree twice)");
    assert_eq!(callee_ccts, 2, "one CCT per caller path");
    let edges = &stitched.edges;
    assert!(edges.len() >= 2, "request edges connect both paths");
    println!("DOT output (render with graphviz):\n");
    print!("{}", render::render_stitched_dot(&stitched));
}
