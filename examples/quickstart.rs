//! Quickstart: profile a two-stage RPC with Whodunit.
//!
//! Builds a tiny client → server simulation where two different caller
//! paths (`foo` and `bar`) issue RPCs to the same service routine, and
//! shows that Whodunit keeps the server's profile separate per caller
//! context (the paper's Figure 6/7 scenario).
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;
use whodunit::core::cost::ms_to_cycles;
use whodunit::core::ids::ProcId;
use whodunit::core::profiler::{Whodunit, WhodunitConfig};
use whodunit::core::rt::Runtime;
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::report::render;
use whodunit::sim::{Msg, Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::ChanId;

/// The caller: alternates RPCs through `foo` and `bar`.
struct Caller {
    svc: ChanId,
    reply: ChanId,
    f_main: FrameId,
    f_foo: FrameId,
    f_bar: FrameId,
    f_rpc: FrameId,
    rounds: u32,
    state: u8,
}

impl ThreadBody for Caller {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                cx.push_frame(self.f_main);
                self.state = 1;
                // Compute a little under main before the first call.
                Op::Compute(ms_to_cycles(0.1))
            }
            1 => {
                if self.rounds == 0 {
                    return Op::Exit;
                }
                // Enter foo or bar, then the rpc_call frame, and send.
                let via = if self.rounds.is_multiple_of(2) {
                    self.f_foo
                } else {
                    self.f_bar
                };
                cx.push_frame(via);
                cx.push_frame(self.f_rpc);
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
                cx.pop_frame(); // rpc_call
                cx.pop_frame(); // foo/bar
                self.rounds -= 1;
                self.state = 1;
                Op::Compute(ms_to_cycles(0.2))
            }
            _ => Op::Exit,
        }
    }
}

/// The callee: one service routine, same code for every caller.
struct Callee {
    in_chan: ChanId,
    f_main: FrameId,
    f_svc: FrameId,
    state: u8,
    reply: Option<ChanId>,
}

impl ThreadBody for Callee {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                cx.push_frame(self.f_main);
                self.state = 1;
                Op::Recv(self.in_chan)
            }
            1 => {
                let Wake::Received(msg) = wake else {
                    unreachable!()
                };
                self.reply = Some(msg.take::<ChanId>());
                cx.push_frame(self.f_svc);
                self.state = 2;
                Op::Compute(ms_to_cycles(2.0))
            }
            2 => {
                cx.pop_frame();
                self.state = 3;
                Op::Send(self.reply.take().unwrap(), Msg::new((), 512))
            }
            3 => {
                self.state = 1;
                Op::Recv(self.in_chan)
            }
            _ => Op::Exit,
        }
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.add_machine(2);

    // One Whodunit instance per process, sharing the frame table.
    let caller_rt = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(0), "caller"),
        sim.frames().clone(),
    )));
    let callee_rt = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(1), "callee"),
        sim.frames().clone(),
    )));
    let p_caller = sim.add_process(caller_rt.clone());
    let p_callee = sim.add_process(callee_rt.clone());

    let svc = sim.add_channel(10_000, 2);
    let reply = sim.add_channel(10_000, 2);

    let caller = Caller {
        svc,
        reply,
        f_main: sim.frame("main_caller"),
        f_foo: sim.frame("foo"),
        f_bar: sim.frame("bar"),
        f_rpc: sim.frame("rpc_call"),
        rounds: 10,
        state: 0,
    };
    let callee = Callee {
        in_chan: svc,
        f_main: sim.frame("main_callee"),
        f_svc: sim.frame("callee_rpc_svc"),
        state: 0,
        reply: None,
    };
    sim.spawn(p_caller, m, "caller", Box::new(caller));
    sim.spawn(p_callee, m, "callee", Box::new(callee));
    let outcome = sim.run_to_idle();
    outcome.assert_ok();

    // Post-mortem: dump both stages and stitch.
    let dumps = vec![
        caller_rt.borrow().dump().unwrap(),
        callee_rt.borrow().dump().unwrap(),
    ];
    for d in &dumps {
        println!("{}", render::render_stage(d));
    }
    let stitched = analyze(dumps, PipelineConfig::default());
    println!("request edges (caller send point -> callee context):");
    for e in &stitched.edges {
        println!(
            "  {}:{} -> {}:{}",
            stitched.stages[e.from_stage].stage_name,
            stitched.stages[e.from_stage].ctx_string(e.from_ctx),
            stitched.stages[e.to_stage].stage_name,
            stitched.stages[e.to_stage].ctx_string(e.to_ctx),
        );
    }
    // The callee accumulated two separate contexts: one per caller path.
    let callee_dump = &stitched.stages[1];
    assert!(
        callee_dump.ccts.len() >= 2,
        "callee profile split by caller context"
    );
    println!("\nThe callee's profile is kept separately per caller path (foo vs bar).");
}
