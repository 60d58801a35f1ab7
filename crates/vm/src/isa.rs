//! The guest instruction set.
//!
//! The §3 algorithm needs exactly one semantic distinction: *`MOV`
//! memory operations* (data moved unchanged from one location to
//! another) versus *every other modification* (immediate stores,
//! arithmetic, read-modify-write). The ISA below is a minimal register
//! machine with that distinction, word-addressed memory, compare/branch
//! control flow, and `lock`/`unlock` critical-section markers.
//!
//! Direct-execution cycle costs per instruction approximate a 2007-era
//! x86: ≈1 cycle for register ALU work, a few cycles for cache-hit
//! memory accesses, tens of cycles for the atomic operations inside
//! `pthread_mutex_lock`/`unlock`. They are what the "Direct Execution"
//! column of Table 3 measures.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Number of general-purpose registers (`r0`–`r15`).
pub const NREGS: usize = 16;

/// Interned program identity.
///
/// Equal names always intern to the same id, so consumers like the
/// translation cache can key on a dense `u32` instead of hashing and
/// cloning name strings. Ids are process-global and never appear in
/// any output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProgId(pub u32);

fn intern_prog_name(name: &str) -> ProgId {
    static IDS: OnceLock<Mutex<HashMap<String, u32>>> = OnceLock::new();
    let mut ids = IDS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("program-name interner poisoned");
    if let Some(&id) = ids.get(name) {
        return ProgId(id);
    }
    let id = ids.len() as u32;
    ids.insert(name.to_owned(), id);
    ProgId(id)
}

/// A critical-section marker executed by the guest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CsOp {
    /// `pthread_mutex_lock` on the given lock id.
    Enter(u32),
    /// `pthread_mutex_unlock`.
    Exit(u32),
}

/// One guest instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `rd ← rs` (a MOV).
    MovRR {
        /// Destination register.
        d: u8,
        /// Source register.
        s: u8,
    },
    /// `rd ← imm` (an immediate assignment: non-MOV).
    MovRI {
        /// Destination register.
        d: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `rd ← mem[rbase + off]` (a MOV).
    Load {
        /// Destination register.
        d: u8,
        /// Base address register.
        base: u8,
        /// Word offset.
        off: i64,
    },
    /// `mem[rbase + off] ← rs` (a MOV).
    Store {
        /// Source register.
        s: u8,
        /// Base address register.
        base: u8,
        /// Word offset.
        off: i64,
    },
    /// `rd ← mem[addr]` (a MOV, absolute addressing).
    LoadA {
        /// Destination register.
        d: u8,
        /// Absolute word address.
        addr: u64,
    },
    /// `mem[addr] ← rs` (a MOV, absolute addressing).
    StoreA {
        /// Source register.
        s: u8,
        /// Absolute word address.
        addr: u64,
    },
    /// `rd ← ra + rb` (non-MOV).
    Add {
        /// Destination register.
        d: u8,
        /// First operand.
        a: u8,
        /// Second operand.
        b: u8,
    },
    /// `rd ← ra + imm` (non-MOV).
    AddI {
        /// Destination register.
        d: u8,
        /// Operand register.
        a: u8,
        /// Immediate.
        imm: i64,
    },
    /// `rd ← ra - rb` (non-MOV).
    Sub {
        /// Destination register.
        d: u8,
        /// First operand.
        a: u8,
        /// Second operand.
        b: u8,
    },
    /// `rd ← ra - imm` (non-MOV).
    SubI {
        /// Destination register.
        d: u8,
        /// Operand register.
        a: u8,
        /// Immediate.
        imm: i64,
    },
    /// `rd ← ra * imm` (non-MOV).
    MulI {
        /// Destination register.
        d: u8,
        /// Operand register.
        a: u8,
        /// Immediate.
        imm: i64,
    },
    /// `mem[rbase + off] += 1` (read-modify-write: non-MOV).
    IncM {
        /// Base address register.
        base: u8,
        /// Word offset.
        off: i64,
    },
    /// `mem[rbase + off] -= 1` (read-modify-write: non-MOV).
    DecM {
        /// Base address register.
        base: u8,
        /// Word offset.
        off: i64,
    },
    /// `mem[addr] += 1` (absolute; non-MOV).
    IncA {
        /// Absolute word address.
        addr: u64,
    },
    /// `mem[addr] -= 1` (absolute; non-MOV).
    DecA {
        /// Absolute word address.
        addr: u64,
    },
    /// Compare `ra` with `rb`; sets the flag.
    Cmp {
        /// First operand.
        a: u8,
        /// Second operand.
        b: u8,
    },
    /// Compare `ra` with an immediate; sets the flag.
    CmpI {
        /// Operand register.
        a: u8,
        /// Immediate.
        imm: i64,
    },
    /// Unconditional jump to an instruction index.
    Jmp {
        /// Target instruction index.
        target: usize,
    },
    /// Jump if the flag is "equal".
    Jz {
        /// Target instruction index.
        target: usize,
    },
    /// Jump if the flag is "not equal".
    Jnz {
        /// Target instruction index.
        target: usize,
    },
    /// Jump if the flag is "less than".
    Jlt {
        /// Target instruction index.
        target: usize,
    },
    /// Jump if the flag is "greater or equal".
    Jge {
        /// Target instruction index.
        target: usize,
    },
    /// Acquire a lock (critical-section marker; costs an atomic op).
    Lock {
        /// Lock id.
        lock: u32,
    },
    /// Release a lock.
    Unlock {
        /// Lock id.
        lock: u32,
    },
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

impl Instr {
    /// Cycle cost under direct (native) execution.
    pub fn direct_cost(&self) -> u64 {
        match self {
            Instr::Lock { .. } => 65,
            Instr::Unlock { .. } => 40,
            Instr::Load { .. } | Instr::LoadA { .. } => 3,
            Instr::Store { .. } | Instr::StoreA { .. } => 3,
            Instr::IncM { .. } | Instr::DecM { .. } | Instr::IncA { .. } | Instr::DecA { .. } => 6,
            Instr::Halt => 0,
            _ => 1,
        }
    }

    /// Whether this instruction is a `MOV` memory operation in the §3
    /// sense (moves a value unchanged between locations).
    pub fn is_mov(&self) -> bool {
        matches!(
            self,
            Instr::MovRR { .. }
                | Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LoadA { .. }
                | Instr::StoreA { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::MovRR { d, s } => write!(f, "mov r{d}, r{s}"),
            Instr::MovRI { d, imm } => write!(f, "mov r{d}, #{imm}"),
            Instr::Load { d, base, off } => write!(f, "load r{d}, [r{base}+{off}]"),
            Instr::Store { s, base, off } => write!(f, "store r{s}, [r{base}+{off}]"),
            Instr::LoadA { d, addr } => write!(f, "load r{d}, [@{addr}]"),
            Instr::StoreA { s, addr } => write!(f, "store r{s}, [@{addr}]"),
            Instr::Add { d, a, b } => write!(f, "add r{d}, r{a}, r{b}"),
            Instr::AddI { d, a, imm } => write!(f, "addi r{d}, r{a}, #{imm}"),
            Instr::Sub { d, a, b } => write!(f, "sub r{d}, r{a}, r{b}"),
            Instr::SubI { d, a, imm } => write!(f, "subi r{d}, r{a}, #{imm}"),
            Instr::MulI { d, a, imm } => write!(f, "muli r{d}, r{a}, #{imm}"),
            Instr::IncM { base, off } => write!(f, "inc [r{base}+{off}]"),
            Instr::DecM { base, off } => write!(f, "dec [r{base}+{off}]"),
            Instr::IncA { addr } => write!(f, "inc [@{addr}]"),
            Instr::DecA { addr } => write!(f, "dec [@{addr}]"),
            Instr::Cmp { a, b } => write!(f, "cmp r{a}, r{b}"),
            Instr::CmpI { a, imm } => write!(f, "cmpi r{a}, #{imm}"),
            Instr::Jmp { target } => write!(f, "jmp {target}"),
            Instr::Jz { target } => write!(f, "jz {target}"),
            Instr::Jnz { target } => write!(f, "jnz {target}"),
            Instr::Jlt { target } => write!(f, "jlt {target}"),
            Instr::Jge { target } => write!(f, "jge {target}"),
            Instr::Lock { lock } => write!(f, "lock #{lock}"),
            Instr::Unlock { lock } => write!(f, "unlock #{lock}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

/// A named guest program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Name (for display and assembly round-trips).
    pub name: String,
    /// Interned identity of `name` (the translation-cache key).
    pub id: ProgId,
    /// The instructions; execution starts at index 0.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        let name = name.into();
        let id = intern_prog_name(&name);
        Program { name, id, instrs }
    }

    /// Static instruction count (what translation pays for).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Checks structural well-formedness: every jump target lies within
    /// the program. Returns the index of the first bad instruction.
    pub fn validate(&self) -> Result<(), usize> {
        for (i, ins) in self.instrs.iter().enumerate() {
            let target = match *ins {
                Instr::Jmp { target }
                | Instr::Jz { target }
                | Instr::Jnz { target }
                | Instr::Jlt { target }
                | Instr::Jge { target } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if t > self.instrs.len() {
                    return Err(i);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {}", self.name)?;
        for (i, ins) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}: {ins}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mov_classification_matches_section3() {
        assert!(Instr::MovRR { d: 0, s: 1 }.is_mov());
        assert!(Instr::Load {
            d: 0,
            base: 1,
            off: 0
        }
        .is_mov());
        assert!(Instr::StoreA { s: 0, addr: 4 }.is_mov());
        // Immediate assignment and arithmetic are non-MOV (§3.2).
        assert!(!Instr::MovRI { d: 0, imm: 0 }.is_mov());
        assert!(!Instr::Add { d: 0, a: 1, b: 2 }.is_mov());
        assert!(!Instr::IncA { addr: 0 }.is_mov());
    }

    #[test]
    fn lock_ops_dominate_direct_cost() {
        let lock = Instr::Lock { lock: 1 }.direct_cost();
        let unlock = Instr::Unlock { lock: 1 }.direct_cost();
        assert!(lock > 10 * Instr::Nop.direct_cost());
        assert!(unlock > 10 * Instr::Nop.direct_cost());
    }

    #[test]
    fn validate_catches_wild_jumps() {
        let good = Program::new("g", vec![Instr::Jmp { target: 1 }, Instr::Halt]);
        assert_eq!(good.validate(), Ok(()));
        let bad = Program::new("b", vec![Instr::Jz { target: 99 }, Instr::Halt]);
        assert_eq!(bad.validate(), Err(0));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(
            Instr::Load {
                d: 1,
                base: 2,
                off: 3
            }
            .to_string(),
            "load r1, [r2+3]"
        );
        assert_eq!(Instr::Lock { lock: 9 }.to_string(), "lock #9");
    }
}
