//! Self-contained chaos repro files.
//!
//! When the chaos explorer finds an oracle violation, the failing
//! scenario is written to disk as a [`ChaosRepro`]: everything needed
//! to re-execute the run bit-identically — the scenario seed, the
//! schedule policy, the sampled fault-plan entries, and the workload
//! knobs. The format rides on the same hand-rolled JSON layer as the
//! stage dumps ([`crate::dumpjson`]): integers and strings only,
//! strict parsing with tolerant unknown-key handling, errors as
//! [`StitchError`] rather than panics.
//!
//! The types here are pure data. Channel/process/machine targets are
//! *role names* (e.g. `"db"`, `"mysql"`), resolved by whatever harness
//! replays the file; probabilities are parts-per-million so the file
//! stays integer-only and bit-exact.

use crate::dumpjson::{esc, parse_value, Value};
use crate::stitch::StitchError;

/// One entry of a sampled fault plan, addressed by role name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEntry {
    /// Drop sends on the channel role with probability `ppm` / 1e6.
    Drop {
        /// Channel role name.
        chan: String,
        /// Drop probability in parts per million.
        ppm: u64,
    },
    /// Duplicate sends on the channel role with probability `ppm` / 1e6.
    /// Only a replayable message can be duplicated, and no simulated
    /// assembly sends one yet, so today this entry is inert: it rolls,
    /// but nothing is delivered twice. Making a payload replayable
    /// moves every faulted fingerprint and needs its own re-baselining.
    Dup {
        /// Channel role name.
        chan: String,
        /// Duplication probability in parts per million.
        ppm: u64,
    },
    /// Delay sends on the channel role by `cycles` with probability
    /// `ppm` / 1e6.
    Delay {
        /// Channel role name.
        chan: String,
        /// Delay probability in parts per million.
        ppm: u64,
        /// Extra delivery delay in cycles.
        cycles: u64,
    },
    /// Crash the process role at virtual time `at`.
    Crash {
        /// Process role name.
        proc: String,
        /// Crash time (cycles).
        at: u64,
    },
    /// Slow the machine role by `factor` in `[from, until)`.
    Slowdown {
        /// Machine role name.
        machine: String,
        /// Window start (cycles, inclusive).
        from: u64,
        /// Window end (cycles, exclusive).
        until: u64,
        /// Compute multiplier (≥ 1).
        factor: u64,
    },
}

/// The epoch window an anomaly-capture repro was scoped to.
///
/// A sentinel capture does not replay a whole run: it truncates the
/// scenario to the epochs around the SLO violation (prefix determinism
/// makes the truncated run identical to the original up to the window
/// end). The window records where in the run the anomaly sat and which
/// budget dimension tripped, so an incident report can label the repro
/// and a replay can re-evaluate the same dimension over the same
/// epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproWindow {
    /// Epoch length in cycles at capture time.
    pub epoch_len: u64,
    /// First epoch of the captured window (inclusive).
    pub start: u64,
    /// Last epoch of the captured window (inclusive).
    pub end: u64,
    /// The SLO dimension that tripped (a [`crate::oracle`]-style kind
    /// string, e.g. `"slo-latency"`).
    pub dimension: String,
}

/// A complete, self-contained chaos scenario.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ChaosRepro {
    /// The scenario seed: drives the fault plan's random stream and
    /// derives per-client workload seeds.
    pub seed: u64,
    /// The schedule policy, in its string form (e.g. `"fifo"`,
    /// `"random:42"`, `"perturb:7:250000"`).
    pub policy: String,
    /// Named workload knobs (e.g. `("clients", 40)`), interpreted by
    /// the replaying harness. Order is preserved.
    pub workload: Vec<(String, u64)>,
    /// The sampled fault-plan entries.
    pub faults: Vec<FaultEntry>,
    /// The oracle violation this repro triggers (informational; set
    /// when the file is written, checked on replay).
    pub violation: Option<String>,
    /// The epoch window this repro was captured from, if it came out
    /// of the sentinel's anomaly-capture pipeline rather than the
    /// offline chaos explorer. Absent in (and tolerated by) pre-window
    /// repro files.
    pub window: Option<ReproWindow>,
}

impl ChaosRepro {
    /// Looks up a workload knob.
    pub fn knob(&self, name: &str) -> Option<u64> {
        self.workload
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Sets (or replaces) a workload knob, preserving position.
    pub fn set_knob(&mut self, name: &str, value: u64) {
        match self.workload.iter_mut().find(|(k, _)| k == name) {
            Some(entry) => entry.1 = value,
            None => self.workload.push((name.to_owned(), value)),
        }
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn write_fault(f: &FaultEntry, out: &mut String) {
    match f {
        FaultEntry::Drop { chan, ppm } => {
            out.push_str("{\"Drop\":{\"chan\":");
            esc(chan, out);
            out.push_str(&format!(",\"ppm\":{ppm}}}}}"));
        }
        FaultEntry::Dup { chan, ppm } => {
            out.push_str("{\"Dup\":{\"chan\":");
            esc(chan, out);
            out.push_str(&format!(",\"ppm\":{ppm}}}}}"));
        }
        FaultEntry::Delay { chan, ppm, cycles } => {
            out.push_str("{\"Delay\":{\"chan\":");
            esc(chan, out);
            out.push_str(&format!(",\"ppm\":{ppm},\"cycles\":{cycles}}}}}"));
        }
        FaultEntry::Crash { proc, at } => {
            out.push_str("{\"Crash\":{\"proc\":");
            esc(proc, out);
            out.push_str(&format!(",\"at\":{at}}}}}"));
        }
        FaultEntry::Slowdown {
            machine,
            from,
            until,
            factor,
        } => {
            out.push_str("{\"Slowdown\":{\"machine\":");
            esc(machine, out);
            out.push_str(&format!(
                ",\"from\":{from},\"until\":{until},\"factor\":{factor}}}}}"
            ));
        }
    }
}

/// Serializes a repro to its on-disk JSON form.
pub fn repro_to_json(r: &ChaosRepro) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"seed\": ");
    out.push_str(&r.seed.to_string());
    out.push_str(",\n  \"policy\": ");
    esc(&r.policy, &mut out);
    out.push_str(",\n  \"workload\": [");
    for (i, (k, v)) in r.workload.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        esc(k, &mut out);
        out.push_str(&format!(",{v}]"));
    }
    out.push_str("],\n  \"faults\": [");
    for (i, f) in r.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_fault(f, &mut out);
    }
    out.push_str("],\n  \"violation\": ");
    match &r.violation {
        Some(v) => esc(v, &mut out),
        None => out.push_str("null"),
    }
    // Only captured repros carry a window; omitting the key otherwise
    // keeps pre-window repro files byte-identical.
    if let Some(w) = &r.window {
        out.push_str(&format!(
            ",\n  \"window\": {{\"epoch_len\":{},\"start\":{},\"end\":{},\"dimension\":",
            w.epoch_len, w.start, w.end
        ));
        esc(&w.dimension, &mut out);
        out.push('}');
    }
    out.push_str("\n}\n");
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn schema<T>(msg: impl Into<String>) -> Result<T, StitchError> {
    Err(StitchError::Schema(msg.into()))
}

#[deny(clippy::indexing_slicing)]
fn fault_of(v: &Value) -> Result<FaultEntry, StitchError> {
    let Value::Obj(items) = v else {
        return schema("fault: expected {\"Variant\": {...}}");
    };
    let [(k, p)] = items.as_slice() else {
        return schema("fault: expected exactly one variant key");
    };
    let s =
        |key: &str| -> Result<String, StitchError> { p.field(key)?.as_str(key).map(str::to_owned) };
    let n = |key: &str| -> Result<u64, StitchError> { p.field(key)?.as_u64(key) };
    match k.as_str() {
        "Drop" => Ok(FaultEntry::Drop {
            chan: s("chan")?,
            ppm: n("ppm")?,
        }),
        "Dup" => Ok(FaultEntry::Dup {
            chan: s("chan")?,
            ppm: n("ppm")?,
        }),
        "Delay" => Ok(FaultEntry::Delay {
            chan: s("chan")?,
            ppm: n("ppm")?,
            cycles: n("cycles")?,
        }),
        "Crash" => Ok(FaultEntry::Crash {
            proc: s("proc")?,
            at: n("at")?,
        }),
        "Slowdown" => Ok(FaultEntry::Slowdown {
            machine: s("machine")?,
            from: n("from")?,
            until: n("until")?,
            factor: n("factor")?,
        }),
        other => schema(format!("fault: unknown variant '{other}'")),
    }
}

/// Parses a repro from its on-disk JSON form.
#[deny(clippy::indexing_slicing)]
pub fn repro_from_json(s: &str) -> Result<ChaosRepro, StitchError> {
    let v = parse_value(s)?;
    let workload = v
        .field("workload")?
        .as_arr("workload")?
        .iter()
        .map(|pair| {
            let [name, value] = pair.as_arr("workload pair")? else {
                return schema("workload pair: expected [name, value]");
            };
            Ok((
                name.as_str("knob name")?.to_owned(),
                value.as_u64("knob value")?,
            ))
        })
        .collect::<Result<_, StitchError>>()?;
    let faults = v
        .field("faults")?
        .as_arr("faults")?
        .iter()
        .map(fault_of)
        .collect::<Result<_, StitchError>>()?;
    let violation = match v.field("violation")? {
        Value::Null => None,
        other => Some(other.as_str("violation")?.to_owned()),
    };
    // Optional: absent in pre-window files. Malformed content is still
    // an error — only a missing key falls back to None.
    let window = match v.field("window") {
        Err(_) => None,
        Ok(Value::Null) => None,
        Ok(w) => Some(ReproWindow {
            epoch_len: w.field("epoch_len")?.as_u64("epoch_len")?,
            start: w.field("start")?.as_u64("start")?,
            end: w.field("end")?.as_u64("end")?,
            dimension: w.field("dimension")?.as_str("dimension")?.to_owned(),
        }),
    };
    Ok(ChaosRepro {
        seed: v.field("seed")?.as_u64("seed")?,
        policy: v.field("policy")?.as_str("policy")?.to_owned(),
        workload,
        faults,
        violation,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChaosRepro {
        ChaosRepro {
            seed: 0xF00D,
            policy: "perturb:7:250000".into(),
            workload: vec![("clients".into(), 40), ("duration".into(), 288_000_000_000)],
            faults: vec![
                FaultEntry::Drop {
                    chan: "db".into(),
                    ppm: 50_000,
                },
                FaultEntry::Dup {
                    chan: "front".into(),
                    ppm: 10_000,
                },
                FaultEntry::Delay {
                    chan: "db".into(),
                    ppm: 100_000,
                    cycles: 24_000_000,
                },
                FaultEntry::Crash {
                    proc: "mysql".into(),
                    at: 240_000_000_000,
                },
                FaultEntry::Slowdown {
                    machine: "mysql".into(),
                    from: 96_000_000_000,
                    until: 144_000_000_000,
                    factor: 3,
                },
            ],
            violation: Some("mass-conservation".into()),
            window: None,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = sample();
        let back = repro_from_json(&repro_to_json(&r)).unwrap();
        assert_eq!(r, back);
        // And serialization itself is stable (bit-identical files).
        assert_eq!(repro_to_json(&r), repro_to_json(&back));
    }

    #[test]
    fn no_violation_roundtrips_as_null() {
        let r = ChaosRepro {
            violation: None,
            ..sample()
        };
        let back = repro_from_json(&repro_to_json(&r)).unwrap();
        assert_eq!(back.violation, None);
    }

    #[test]
    fn knob_access_and_update() {
        let mut r = sample();
        assert_eq!(r.knob("clients"), Some(40));
        assert_eq!(r.knob("missing"), None);
        r.set_knob("clients", 20);
        r.set_knob("fresh", 1);
        assert_eq!(r.knob("clients"), Some(20));
        assert_eq!(r.knob("fresh"), Some(1));
        assert_eq!(r.workload[0].0, "clients", "position preserved");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{}",
            "{\"seed\": 1}",
            "{\"seed\":1,\"policy\":\"fifo\",\"workload\":[[1,2]],\"faults\":[],\"violation\":null}",
            "{\"seed\":1,\"policy\":\"fifo\",\"workload\":[],\"faults\":[{\"Nope\":{}}],\"violation\":null}",
            "{\"seed\":1,\"policy\":\"fifo\",\"workload\":[],\"faults\":[{\"Drop\":{\"chan\":\"db\"}}],\"violation\":null}",
        ] {
            assert!(repro_from_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn window_roundtrips_and_is_optional() {
        let mut r = sample();
        r.window = Some(ReproWindow {
            epoch_len: 2_400_000_000,
            start: 17,
            end: 23,
            dimension: "slo-latency".into(),
        });
        let j = repro_to_json(&r);
        assert!(j.contains("\"window\""));
        assert_eq!(repro_from_json(&j).unwrap(), r);
        // A pre-window file (no "window" key) parses to None.
        let old = repro_to_json(&sample());
        assert!(!old.contains("\"window\""));
        assert_eq!(repro_from_json(&old).unwrap().window, None);
        // A malformed window is an error, not a silent None.
        let bad = j.replace("\"start\":17", "\"start\":\"x\"");
        assert!(repro_from_json(&bad).is_err());
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let j = repro_to_json(&sample()).replacen('{', "{\n  \"future\": 1,", 1);
        assert_eq!(repro_from_json(&j).unwrap(), sample());
    }
}
