//! MySQL-like database server (§8.1, §8.4, Table 1, Figs 11–12).
//!
//! A pool of executor threads serves SQL requests arriving on a
//! channel. Each TPC-W interaction maps to one aggregate query with a
//! CPU cost and a set of tables it reads/writes. Locking follows the
//! storage engine:
//!
//! - **MyISAM** ([`Engine::MyIsam`]): table-wide locks — readers share,
//!   a writer excludes everyone. `AdminConfirm`'s expensive update of
//!   the read-hot `item` table is the §8.4 crosstalk headline.
//! - **InnoDB** ([`Engine::InnoDb`]): row-level locking — readers take
//!   no locks (MVCC) and writers lock one row stripe, which is the
//!   paper's Figure 11 optimization.
//!
//! Executors also bump a lock-protected shared statistics counter on
//! the instruction emulator after every query; §8.1 validates that
//! Whodunit detects this counter but correctly infers *no* transaction
//! flow in MySQL.
//!
//! Query costs are calibrated so the browsing mix averages ≈50 ms of
//! DB CPU per interaction: a single-core database then saturates at
//! ≈19.7 interactions/s = 1184/min, the paper's original TPC-W peak.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::ms_to_cycles;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, LockId, LockMode, ThreadId};
use whodunit_core::rt::Runtime;
use whodunit_sim::{Cycles, Msg, Op, Sim, ThreadBody, ThreadCx, Wake};
use whodunit_vm::programs::SharedCounter;
use whodunit_vm::{Cpu, CsEmulator, ExecMode, GuestMem, TranslationCache};
use whodunit_workload::Interaction;

/// The TPC-W tables the query model touches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Table {
    /// Books: read by almost everything, updated by `AdminConfirm`.
    Item,
    /// Book authors.
    Author,
    /// Orders master rows.
    Orders,
    /// Order line items (scanned by `BestSellers`).
    OrderLine,
    /// Customers.
    Customer,
    /// Credit-card transactions.
    CcXacts,
    /// Shopping carts.
    ShoppingCart,
}

impl Table {
    /// All tables in canonical (deadlock-free acquisition) order.
    pub const ALL: [Table; 7] = [
        Table::Item,
        Table::Author,
        Table::Orders,
        Table::OrderLine,
        Table::Customer,
        Table::CcXacts,
        Table::ShoppingCart,
    ];
}

/// Storage-engine lock granularity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Table-wide locks (the paper's original configuration).
    MyIsam,
    /// Row-stripe locks for writers, lock-free MVCC reads (the
    /// Figure 11 optimization).
    InnoDb,
}

/// Row-lock stripes per table under [`Engine::InnoDb`].
pub const ROW_STRIPES: u64 = 64;

/// One interaction's aggregate query, in two phases mirroring how
/// MySQL statements lock:
///
/// 1. a *read phase* (SELECTs, sorts, temp tables) under shared table
///    locks (MyISAM) or no locks at all (InnoDB MVCC), and
/// 2. an optional *write phase* (UPDATE/INSERT statements) under
///    exclusive table locks (MyISAM) or per-row stripe locks (InnoDB).
///
/// `AdminConfirm` is the paper's example: its expensive sort runs in
/// the read phase; only the single-row `item` update needs the
/// exclusive lock — which under MyISAM must wait for every concurrent
/// reader of the read-hot `item` table (the §8.4 crosstalk headline),
/// and under InnoDB touches one row.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// SQL frame name (appears in MySQL's call paths).
    pub frame: &'static str,
    /// Read-phase CPU cost in cycles.
    pub read_cost: Cycles,
    /// Tables read.
    pub reads: &'static [Table],
    /// Write-phase CPU cost in cycles (0 = no write phase).
    pub write_cost: Cycles,
    /// Tables written.
    pub writes: &'static [Table],
}

impl QuerySpec {
    /// Total CPU cost of both phases.
    pub fn cost(&self) -> Cycles {
        self.read_cost + self.write_cost
    }
}

/// The query model: what each interaction costs the database.
///
/// Costs are derived from Table 1's CPU shares divided by the browsing
/// mix frequencies, normalized so the mix averages ≈50 ms (see module
/// docs).
pub fn query_for(i: Interaction) -> QuerySpec {
    use Table::{Author, CcXacts, Customer, Item, OrderLine, Orders};
    const CART: Table = Table::ShoppingCart;
    // (frame, read ms, reads, write ms, writes); costs are derived from
    // Table 1's CPU shares over the browsing-mix frequencies (module
    // docs).
    let (frame, read_ms, reads, write_ms, writes): (
        _,
        f64,
        &'static [Table],
        f64,
        &'static [Table],
    ) = match i {
        Interaction::Home => ("sql_home", 1.0, &[Customer, Item][..], 0.0, &[][..]),
        Interaction::NewProducts => ("sql_new_products", 15.0, &[Item, Author][..], 0.0, &[][..]),
        Interaction::BestSellers => (
            "sql_best_sellers",
            237.0,
            &[Item, Author, Orders, OrderLine][..],
            0.0,
            &[][..],
        ),
        Interaction::ProductDetail => ("sql_get_book", 0.5, &[Item, Author][..], 0.0, &[][..]),
        Interaction::SearchRequest => ("sql_search_form", 0.68, &[Item][..], 0.0, &[][..]),
        Interaction::SearchResult => ("sql_do_search", 199.0, &[Item, Author][..], 0.0, &[][..]),
        Interaction::ShoppingCart => ("sql_do_cart", 1.3, &[Item][..], 0.5, &[CART][..]),
        Interaction::CustomerRegistration => {
            ("sql_get_customer", 0.1, &[Customer][..], 0.0, &[][..])
        }
        Interaction::BuyRequest => ("sql_buy_request", 1.5, &[Customer][..], 0.5, &[CART][..]),
        Interaction::BuyConfirm => (
            "sql_buy_confirm",
            1.4,
            &[Item, Customer][..],
            1.5,
            &[Orders, OrderLine, CcXacts][..],
        ),
        Interaction::OrderInquiry => ("sql_order_inquiry", 0.2, &[Customer][..], 0.0, &[][..]),
        Interaction::OrderDisplay => (
            "sql_get_most_recent_order",
            2.0,
            &[Customer, Orders, OrderLine][..],
            0.0,
            &[][..],
        ),
        Interaction::AdminRequest => ("sql_admin_request", 0.3, &[Item][..], 0.0, &[][..]),
        Interaction::AdminConfirm => (
            "sql_admin_update",
            458.0,
            &[Item, Orders, OrderLine][..],
            2.0,
            &[Item][..],
        ),
    };
    QuerySpec {
        frame,
        read_cost: ms_to_cycles(read_ms),
        reads,
        write_cost: ms_to_cycles(write_ms),
        writes,
    }
}

/// Internal calls per query cycle (drives the gprof baseline): one
/// call per ~700 cycles, typical of row-at-a-time executor code.
pub const CYCLES_PER_CALL: u64 = 700;

/// A request to the database.
#[derive(Debug)]
pub struct DbReq {
    /// Which interaction's query to run.
    pub interaction: Interaction,
    /// Row selector for writes (stripes under InnoDB).
    pub row: u64,
    /// Caller-chosen token echoed in the [`DbReply`]; lets a caller
    /// that timed out and resent tell a late reply from the current
    /// one.
    pub tag: u64,
    /// Channel to send the result on.
    pub reply: ChanId,
}

/// A lock plan: `(lock, mode)` pairs in acquisition order.
type LockPlan = Vec<(LockId, LockMode)>;

/// The lock plans of a query's two phases, in acquisition order.
fn lock_plans(shared: &DbShared, q: &QuerySpec, row: u64) -> (LockPlan, LockPlan) {
    match shared.engine {
        Engine::MyIsam => {
            // Read phase: shared table locks. Write phase: exclusive
            // table locks.
            let mut reads: Vec<(Table, LockMode)> =
                q.reads.iter().map(|&t| (t, LockMode::Shared)).collect();
            reads.sort_by_key(|&(t, _)| t);
            let mut writes: Vec<(Table, LockMode)> =
                q.writes.iter().map(|&t| (t, LockMode::Exclusive)).collect();
            writes.sort_by_key(|&(t, _)| t);
            (
                reads
                    .into_iter()
                    .map(|(t, m)| (shared.table_lock(t, 0), m))
                    .collect(),
                writes
                    .into_iter()
                    .map(|(t, m)| (shared.table_lock(t, 0), m))
                    .collect(),
            )
        }
        Engine::InnoDb => {
            // MVCC: reads take no locks; writes lock one row stripe.
            let mut w: Vec<(LockId, LockMode)> = q
                .writes
                .iter()
                .map(|&t| (shared.table_lock(t, row % ROW_STRIPES), LockMode::Exclusive))
                .collect();
            w.sort_by_key(|&(l, _)| l);
            (Vec::new(), w)
        }
    }
}

/// Shared database state.
pub struct DbShared {
    engine: Engine,
    /// `(table, stripe)` → lock. Stripe 0 is the table lock under
    /// MyISAM.
    locks: HashMap<(Table, u64), LockId>,
    counter: SharedCounter,
    counter_lock: LockId,
    mem: GuestMem,
    tcache: TranslationCache,
    emu: CsEmulator,
    /// Queries served, per interaction.
    pub served: HashMap<Interaction, u64>,
    /// Total queries served.
    pub total: u64,
}

impl DbShared {
    fn table_lock(&self, t: Table, stripe: u64) -> LockId {
        self.locks[&(t, stripe)]
    }

    /// Runs the shared statistics counter bump (§8.1) for `t`.
    fn bump_counter(
        &mut self,
        rt: &Rc<RefCell<dyn Runtime>>,
        t: ThreadId,
        stack: &[FrameId],
    ) -> Cycles {
        let mut cpu = Cpu::new(t);
        let emulate = rt.borrow().wants_emulation(self.counter_lock);
        let stats = if emulate {
            let mut rtb = rt.borrow_mut();
            self.emu.run(
                &self.counter.inc,
                &mut cpu,
                &mut self.mem,
                ExecMode::Emulated {
                    tcache: &mut self.tcache,
                },
                &mut |e| rtb.on_mem_event(t, stack, e),
            )
        } else {
            self.emu.run(
                &self.counter.inc,
                &mut cpu,
                &mut self.mem,
                ExecMode::Direct,
                &mut |_| {},
            )
        };
        stats.cycles
    }
}

/// Executor threads of the database tier.
const EXECUTORS: u32 = 64;

/// Handles returned by [`build_dbserver`].
pub struct DbHandles {
    /// The request channel queries are sent to.
    pub req_chan: ChanId,
    /// Shared state (stats, engine).
    pub shared: Rc<RefCell<DbShared>>,
    /// The statistics-counter lock (for §8.1 assertions).
    pub counter_lock: LockId,
    /// The table locks, for crosstalk inspection.
    pub table_locks: HashMap<(Table, u64), LockId>,
}

/// One locked compute phase: its lock plan and cost.
type Stage = (Vec<(LockId, LockMode)>, Cycles);

enum EState {
    Init,
    WaitReq,
    /// Acquiring locks of the current stage.
    Locking {
        req: Option<DbReq>,
        stages: std::collections::VecDeque<Stage>,
        plan: Vec<(LockId, LockMode)>,
        next: usize,
        cost: Cycles,
    },
    /// Releasing locks of the finished stage.
    Unlocking {
        req: Option<DbReq>,
        stages: std::collections::VecDeque<Stage>,
        plan: Vec<(LockId, LockMode)>,
        next: usize,
    },
    Counter {
        req: Option<DbReq>,
    },
    CounterDone {
        req: Option<DbReq>,
    },
    Reply {
        req: Option<DbReq>,
    },
    Sent,
}

struct Executor {
    shared: Rc<RefCell<DbShared>>,
    req_chan: ChanId,
    f_main: FrameId,
    f_frames: HashMap<Interaction, FrameId>,
    f_call: FrameId,
    state: EState,
}

impl ThreadBody for Executor {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, EState::WaitReq) {
            EState::Init => {
                cx.push_frame(self.f_main);
                self.state = EState::WaitReq;
                Op::Recv(self.req_chan)
            }
            EState::WaitReq => {
                let Wake::Received(msg) = wake else {
                    unreachable!("executor waits for requests");
                };
                let req = msg.take::<DbReq>();
                let q = query_for(req.interaction);
                cx.push_frame(self.f_frames[&req.interaction]);
                cx.count_calls(self.f_call, q.cost() / CYCLES_PER_CALL);
                let (rplan, wplan) = lock_plans(&self.shared.borrow(), &q, req.row);
                let mut stages = std::collections::VecDeque::new();
                stages.push_back((rplan, q.read_cost));
                if q.write_cost > 0 || !wplan.is_empty() {
                    stages.push_back((wplan, q.write_cost));
                }
                self.next_stage(Some(req), stages)
            }
            EState::Locking {
                req,
                stages,
                plan,
                next,
                cost,
            } => self.step_locking(req, stages, plan, next, cost),
            EState::Unlocking {
                req,
                stages,
                plan,
                next,
            } => self.step_unlocking(req, stages, plan, next),
            EState::Counter { req } => {
                let rt = cx.runtime();
                let stack: Vec<FrameId> = cx.stack().to_vec();
                let cycles = self.shared.borrow_mut().bump_counter(&rt, cx.me(), &stack);
                self.state = EState::CounterDone { req };
                Op::Compute(cycles)
            }
            EState::CounterDone { req } => {
                let lock = self.shared.borrow().counter_lock;
                self.state = EState::Reply { req };
                Op::Unlock(lock)
            }
            EState::Reply { req } => {
                let req = req.expect("request present");
                {
                    let mut sh = self.shared.borrow_mut();
                    *sh.served.entry(req.interaction).or_insert(0) += 1;
                    sh.total += 1;
                }
                cx.pop_frame();
                self.state = EState::Sent;
                Op::Send(req.reply, Msg::new(DbReply { tag: req.tag }, 2000))
            }
            EState::Sent => {
                self.state = EState::WaitReq;
                Op::Recv(self.req_chan)
            }
        }
    }
}

impl Executor {
    /// Begins the next stage of the query, or moves on to the shared
    /// counter once all stages are done.
    fn next_stage(
        &mut self,
        req: Option<DbReq>,
        mut stages: std::collections::VecDeque<Stage>,
    ) -> Op {
        match stages.pop_front() {
            Some((plan, cost)) => self.step_locking(req, stages, plan, 0, cost),
            None => {
                self.state = EState::Counter { req };
                let lock = self.shared.borrow().counter_lock;
                Op::Lock(lock, LockMode::Exclusive)
            }
        }
    }

    /// Acquires the next lock of the current stage, or computes.
    fn step_locking(
        &mut self,
        req: Option<DbReq>,
        stages: std::collections::VecDeque<Stage>,
        plan: Vec<(LockId, LockMode)>,
        next: usize,
        cost: Cycles,
    ) -> Op {
        if next < plan.len() {
            let (l, m) = plan[next];
            self.state = EState::Locking {
                req,
                stages,
                plan,
                next: next + 1,
                cost,
            };
            Op::Lock(l, m)
        } else {
            self.state = EState::Unlocking {
                req,
                stages,
                plan,
                next: 0,
            };
            Op::Compute(cost)
        }
    }

    /// Releases the current stage's locks in reverse order, then moves
    /// to the next stage.
    fn step_unlocking(
        &mut self,
        req: Option<DbReq>,
        stages: std::collections::VecDeque<Stage>,
        plan: Vec<(LockId, LockMode)>,
        next: usize,
    ) -> Op {
        if next < plan.len() {
            let (l, _) = plan[plan.len() - 1 - next];
            self.state = EState::Unlocking {
                req,
                stages,
                plan,
                next: next + 1,
            };
            Op::Unlock(l)
        } else {
            self.next_stage(req, stages)
        }
    }
}

/// The database's reply payload.
#[derive(Debug)]
pub struct DbReply {
    /// The request's [`DbReq::tag`], echoed back.
    pub tag: u64,
}

/// Builds the database tier on `engine` (its lock granularity) into
/// `sim` on `machine`, profiled by the process runtime already
/// registered as `proc`.
pub fn build_dbserver(
    sim: &mut Sim,
    proc: whodunit_core::ids::ProcId,
    machine: whodunit_sim::MachineId,
    engine: Engine,
) -> DbHandles {
    let mut locks = HashMap::new();
    for &t in &Table::ALL {
        match engine {
            Engine::MyIsam => {
                locks.insert((t, 0), sim.add_lock());
            }
            Engine::InnoDb => {
                for s in 0..ROW_STRIPES {
                    locks.insert((t, s), sim.add_lock());
                }
            }
        }
    }
    let counter_lock = sim.add_lock();
    let counter = SharedCounter::new(counter_lock.0, 0);
    let shared = Rc::new(RefCell::new(DbShared {
        engine,
        locks: locks.clone(),
        counter,
        counter_lock,
        mem: GuestMem::new(16),
        tcache: TranslationCache::new(),
        emu: CsEmulator::default(),
        served: HashMap::new(),
        total: 0,
    }));
    let req_chan = sim.add_channel(240_000, 20);
    let f_main = sim.frame("mysql_do_command");
    let f_call = sim.frame("mysql_row_ops");
    let mut f_frames = HashMap::new();
    for it in Interaction::ALL {
        f_frames.insert(it, sim.frame(query_for(it).frame));
    }
    for i in 0..EXECUTORS {
        sim.spawn(
            proc,
            machine,
            &format!("db_exec{i}"),
            Box::new(Executor {
                shared: shared.clone(),
                req_chan,
                f_main,
                f_frames: f_frames.clone(),
                f_call,
                state: EState::Init,
            }),
        );
    }
    DbHandles {
        req_chan,
        shared,
        counter_lock,
        table_locks: locks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::cost::ms_to_cycles;

    fn shared(engine: Engine) -> DbShared {
        let mut locks = HashMap::new();
        let mut next = 0u32;
        for &t in &Table::ALL {
            match engine {
                Engine::MyIsam => {
                    locks.insert((t, 0), LockId(next));
                    next += 1;
                }
                Engine::InnoDb => {
                    for s in 0..ROW_STRIPES {
                        locks.insert((t, s), LockId(next));
                        next += 1;
                    }
                }
            }
        }
        DbShared {
            engine,
            locks,
            counter: SharedCounter::new(999, 0),
            counter_lock: LockId(999),
            mem: GuestMem::new(16),
            tcache: TranslationCache::new(),
            emu: CsEmulator::default(),
            served: HashMap::new(),
            total: 0,
        }
    }

    #[test]
    fn browsing_mix_average_cost_is_about_50ms() {
        // The calibration invariant behind Figure 12's 1184/min peak.
        let avg_ms: f64 = Interaction::ALL
            .iter()
            .map(|&i| {
                let q = query_for(i);
                i.browsing_pct() / 100.0 * (q.cost() as f64 / ms_to_cycles(1.0) as f64)
            })
            .sum();
        assert!((45.0..56.0).contains(&avg_ms), "avg DB cost {avg_ms:.1} ms");
    }

    #[test]
    fn admin_confirm_writes_item_in_a_short_phase() {
        let q = query_for(Interaction::AdminConfirm);
        assert!(q.writes.contains(&Table::Item));
        assert!(q.write_cost < q.read_cost / 50, "write phase is short");
        assert!(q.reads.contains(&Table::Item), "sort reads item too");
    }

    #[test]
    fn myisam_plans_use_table_locks() {
        let sh = shared(Engine::MyIsam);
        let q = query_for(Interaction::AdminConfirm);
        let (reads, writes) = lock_plans(&sh, &q, 17);
        assert_eq!(reads.len(), q.reads.len());
        assert!(reads.iter().all(|&(_, m)| m == LockMode::Shared));
        assert_eq!(writes.len(), 1);
        assert_eq!(
            writes[0],
            (sh.table_lock(Table::Item, 0), LockMode::Exclusive)
        );
    }

    #[test]
    fn innodb_plans_skip_read_locks_and_stripe_writes() {
        let sh = shared(Engine::InnoDb);
        let q = query_for(Interaction::AdminConfirm);
        let (reads, writes) = lock_plans(&sh, &q, 17);
        assert!(reads.is_empty(), "MVCC reads take no locks");
        assert_eq!(writes.len(), 1);
        assert_eq!(
            writes[0],
            (
                sh.table_lock(Table::Item, 17 % ROW_STRIPES),
                LockMode::Exclusive
            )
        );
        // Different rows map to different stripes (usually).
        let (_, w2) = lock_plans(&sh, &q, 18);
        assert_ne!(writes[0].0, w2[0].0);
    }

    #[test]
    fn lock_plans_are_sorted_for_deadlock_freedom() {
        let sh = shared(Engine::MyIsam);
        for &i in &Interaction::ALL {
            let q = query_for(i);
            let (reads, writes) = lock_plans(&sh, &q, 3);
            let sorted = |v: &[(LockId, LockMode)]| v.windows(2).all(|w| w[0].0 <= w[1].0);
            assert!(sorted(&reads), "{i:?} reads unsorted");
            assert!(sorted(&writes), "{i:?} writes unsorted");
        }
    }

    #[test]
    fn bestsellers_reads_order_line() {
        // The table BuyConfirm writes — the source of its crosstalk.
        let q = query_for(Interaction::BestSellers);
        assert!(q.reads.contains(&Table::OrderLine));
        let bc = query_for(Interaction::BuyConfirm);
        assert!(bc.writes.contains(&Table::OrderLine));
    }
}
