//! The translation-cache cost model (Table 3, §9.2).
//!
//! The paper's emulator (QEMU's CPU core) translates guest code to
//! intermediate code once and caches the translation; subsequent
//! emulations of the same critical section pay only the (much cheaper)
//! dispatch cost of executing cached translations. Table 3 measures the
//! three regimes on Apache's fd-queue critical sections:
//!
//! | critical section | direct | translate+emulate | cached emulation |
//! |------------------|-------:|------------------:|-----------------:|
//! | `ap_queue_push`  | 131.64 | 62 508            | 11 606.8         |
//! | `ap_queue_pop`   | 109.72 | 40 852            | 12 118           |
//!
//! The model: translation costs `translate_per_instr` cycles per static
//! instruction, paid once per program; every emulated instruction costs
//! `dispatch_per_instr` cycles. Constants are calibrated to land in
//! Table 3's ranges for ≈20-instruction critical sections.

use crate::isa::ProgId;

/// Translation cache with per-instruction cost constants.
///
/// Keyed by interned [`ProgId`]s: membership is one dense bit-vector
/// index, with no string hashing or cloning on the emulation path.
#[derive(Clone, Debug)]
pub struct TranslationCache {
    translated: Vec<bool>,
    /// One-time translation cost per static instruction.
    pub translate_per_instr: u64,
    /// Dispatch cost per executed instruction when running from cache.
    pub dispatch_per_instr: u64,
    /// Total translation cycles spent so far.
    pub translate_cycles: u64,
    /// Total dispatch cycles spent so far.
    pub dispatch_cycles: u64,
}

impl Default for TranslationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TranslationCache {
    /// Creates a cache with the calibrated default constants.
    pub fn new() -> Self {
        TranslationCache {
            translated: Vec::new(),
            translate_per_instr: 2900,
            dispatch_per_instr: 800,
            translate_cycles: 0,
            dispatch_cycles: 0,
        }
    }

    /// Charges for entering `program` (translating it if this is its
    /// first execution). Returns the translation cycles charged (zero
    /// on a cache hit).
    pub fn enter(&mut self, program: ProgId, static_instrs: usize) -> u64 {
        let i = program.0 as usize;
        if self.translated.get(i).copied().unwrap_or(false) {
            return 0;
        }
        if self.translated.len() <= i {
            self.translated.resize(i + 1, false);
        }
        self.translated[i] = true;
        let c = static_instrs as u64 * self.translate_per_instr;
        self.translate_cycles += c;
        c
    }

    /// Charges dispatch for `executed` emulated instructions; returns
    /// the cycles charged.
    pub fn dispatch(&mut self, executed: u64) -> u64 {
        let c = executed * self.dispatch_per_instr;
        self.dispatch_cycles += c;
        c
    }

    /// Drops all cached translations (used by the Table 3 microbench to
    /// re-measure the translate+emulate regime).
    pub fn flush(&mut self) {
        self.translated.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUSH: ProgId = ProgId(1);
    const POP: ProgId = ProgId(2);

    #[test]
    fn first_entry_translates_then_caches() {
        let mut tc = TranslationCache::new();
        let c1 = tc.enter(PUSH, 20);
        assert_eq!(c1, 20 * tc.translate_per_instr);
        let c2 = tc.enter(PUSH, 20);
        assert_eq!(c2, 0);
        assert_eq!(tc.translate_cycles, c1);
    }

    #[test]
    fn program_ids_are_stable_per_name() {
        let a = crate::isa::Program::new("tcache_id_test_a", Vec::new());
        let b = crate::isa::Program::new("tcache_id_test_b", Vec::new());
        let a2 = crate::isa::Program::new("tcache_id_test_a", Vec::new());
        assert_eq!(a.id, a2.id);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn dispatch_accumulates() {
        let mut tc = TranslationCache::new();
        tc.dispatch(10);
        tc.dispatch(5);
        assert_eq!(tc.dispatch_cycles, 15 * tc.dispatch_per_instr);
    }

    #[test]
    fn flush_forces_retranslation() {
        let mut tc = TranslationCache::new();
        tc.enter(PUSH, 4);
        tc.flush();
        assert!(tc.enter(PUSH, 4) > 0);
    }

    #[test]
    fn regimes_are_ordered_like_table3() {
        // For a ~20-instruction critical section: direct ≪ cached
        // emulation ≪ translate+emulate.
        let mut tc = TranslationCache::new();
        let direct = 132u64;
        let translate = tc.enter(POP, 20);
        let emu = tc.dispatch(20);
        assert!(direct < emu);
        assert!(emu < translate + emu);
        // Within Table 3's order of magnitude.
        assert!((10_000..22_000).contains(&emu), "emu={emu}");
        assert!((40_000..90_000).contains(&(translate + emu)));
    }
}
