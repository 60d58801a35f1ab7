//! Harness core: order statistics, the host-speed clock, `/proc/self`
//! readers, the metric list with its one JSON emitter, a small JSON
//! reader for the self-check and the tests, and the stamp every output
//! carries.
//!
//! No dependencies beyond `std`, no `unsafe`.

use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// The `q`-quantile of ascending `sorted`, by the rule Python's
/// `statistics.quantiles(method="exclusive")` uses (position
/// `q * (n + 1)`, linear between neighbours) — the rule the driver
/// applies to a metric's runs, so a quartile printed here and one
/// computed there agree. Beyond the outermost positions the result is
/// clamped to the sample's range instead of extrapolated.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - delta) + sorted[j] * delta
}

/// Minimum, quartiles and maximum of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds each end-to-end metric's bound against.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of a sample (any order); 0 for an empty one, which only a
/// layer that never ran on this workload produces.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).median
    }
}

/// The `q`-quantile of an unsorted sample; 0 for an empty one.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

// ---------------------------------------------------------------------
// Host-speed clock
// ---------------------------------------------------------------------

/// Seconds the calibration kernel takes on this class of host when
/// nothing contends for it. Only a scale: it makes a normalised time
/// read like the wall time of a quiet host, and no comparison between
/// two commits depends on it.
pub const KERNEL_REF_S: f64 = 0.0046;

/// Words the calibration kernel fills and sorts (2 MiB).
const KERNEL_WORDS: usize = 1 << 18;

/// A timed region: its wall seconds, and the same divided by how slow
/// the host ran around it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// Wall seconds, as the clock read them.
    pub wall_s: f64,
    /// Wall seconds ÷ host factor: what the region would have taken on
    /// a host running the kernel in [`KERNEL_REF_S`].
    pub norm_s: f64,
}

impl Timing {
    /// How slow the host ran: 1 at the reference speed, 1.3 when the
    /// kernel took 1.3 times as long.
    pub fn host_factor(&self) -> f64 {
        self.wall_s / self.norm_s
    }
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, other: Timing) {
        self.wall_s += other.wall_s;
        self.norm_s += other.norm_s;
    }
}

/// Times regions of work against the speed of the host. The shared
/// host slows everything by 1.3-2x for seconds at a stretch; a fixed
/// kernel of the benchmark's own (fill 2 MiB from an xorshift and sort
/// it: `std` only, nothing of the product) runs after every region, and
/// a region's wall time is divided by the mean of the kernel runs on
/// either side of it, relative to [`KERNEL_REF_S`]. A change to the
/// product moves the region and not the kernel, so it shows in full.
pub struct HostClock {
    buf: Vec<u64>,
    /// Seconds the kernel took last.
    last_s: f64,
}

impl Default for HostClock {
    fn default() -> HostClock {
        let mut clock = HostClock {
            buf: vec![0; KERNEL_WORDS],
            last_s: 0.0,
        };
        // The first run pages the buffer in; the second is a reading.
        clock.kernel();
        clock.kernel();
        clock
    }
}

impl HostClock {
    fn kernel(&mut self) {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        self.last_s = t.elapsed().as_secs_f64();
    }

    /// Runs `f` under the wall clock, then the kernel, outside it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before_s = self.last_s;
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        self.kernel();
        let host_factor = (before_s + self.last_s) / 2.0 / KERNEL_REF_S;
        (
            out,
            Timing {
                wall_s,
                norm_s: wall_s / host_factor,
            },
        )
    }
}

// ---------------------------------------------------------------------
// /proc/self readers
// ---------------------------------------------------------------------

/// A `Name:   <n> kB` line of `/proc/self/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status_field(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// A bare-number line of `/proc/self/status`
/// (`nonvoluntary_ctxt_switches:  12`).
pub fn parse_status_count(status: &str, key: &str) -> Option<u64> {
    status_field(status, key)?.parse().ok()
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then(|| v.trim())
    })
}

/// `utime + stime` of `/proc/self/stat`, in clock ticks. The command
/// name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut f = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` times in `USER_HZ` ticks, which is 100 on
/// every architecture Linux supports today; reading it exactly needs
/// `sysconf`, which needs `libc`.
const TICKS_PER_S: f64 = 100.0;

/// What `/proc/self` says about this process right now.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Peak resident set size (`VmHWM`), MB of 10^6 bytes.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Times the kernel took the CPU away.
    pub invol_ctx_switches: u64,
}

/// Reads `/proc/self/{status,stat}`; a field the kernel does not
/// offer reads as 0.
pub fn proc_sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    ProcSample {
        peak_rss_mb: parse_status_kb(&status, "VmHWM").unwrap_or(0) as f64 * 1024.0 / 1e6,
        cpu_s: parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 / TICKS_PER_S,
        invol_ctx_switches: parse_status_count(&status, "nonvoluntary_ctxt_switches").unwrap_or(0),
    }
}

// ---------------------------------------------------------------------
// Metrics and the JSON emitter
// ---------------------------------------------------------------------

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends a time in milliseconds.
    pub fn ms(&mut self, name: impl Into<String>, value: f64) {
        self.push(name, value, "ms");
    }

    /// Appends a count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count");
    }
}

/// Escapes `s` for a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with every digit `f64` holds; JSON has no NaN or
/// infinity, so those (a bug in a metric) become `null` and fail the
/// reader.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(&m.name),
            json_num(m.value),
            json_escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------
// JSON reader (for BENCHMARK.json and our own result lines)
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key order kept.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    /// The items of an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stamp
// ---------------------------------------------------------------------

/// Where and how a row was measured. Printed before the result line
/// and written into the trace file, so no number travels without it.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Set-ups performed (`setup_s` is their median).
    pub setups: usize,
    /// Warm-up passes per set-up.
    pub warmup_passes: usize,
    /// Timed passes (`pass_s` is their median).
    pub timed_passes: usize,
    /// Of those, passes run with the span recorder on.
    pub traced_passes: usize,
}

impl Stamp {
    /// The stamp as one JSON object. `rustc -V` and the git commit
    /// come from `run.sh` through the environment; a checkout that is
    /// not a git repository says `unknown`.
    pub fn to_json(&self) -> String {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"setups\": {}, \
             \"warmup_passes\": {}, \"timed_passes\": {}, \"traced_passes\": {}, \
             \"host_cores\": {cores}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            json_escape(&self.workload),
            self.seed,
            self.traced,
            self.setups,
            self.warmup_passes,
            self.timed_passes,
            self.traced_passes,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            json_escape(&env("WBENCH_RUSTC")),
            json_escape(&env("WBENCH_COMMIT")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let v = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quantile(&v, 0.25), 1.5);
        assert_eq!(quantile(&v, 0.5), 4.0);
        assert_eq!(quantile(&v, 0.75), 12.0);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Beyond the last interior position the top pair is used.
        assert_eq!(quantile(&[1.0, 3.0], 0.99), 3.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.01), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn summary_orders_and_spreads() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn host_clock_divides_wall_time_by_the_host_factor() {
        let mut clock = HostClock::default();
        let ((), t) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.wall_s >= 0.02);
        assert!(t.norm_s > 0.0 && t.host_factor() > 0.0);
        assert!((t.wall_s / t.host_factor() - t.norm_s).abs() < 1e-12);
        // Steps add up field by field, so a sum's factor is the
        // wall-weighted one.
        let mut sum = Timing {
            wall_s: 1.0,
            norm_s: 1.0,
        };
        sum += Timing {
            wall_s: 3.0,
            norm_s: 1.0,
        };
        assert_eq!((sum.wall_s, sum.norm_s, sum.host_factor()), (4.0, 2.0, 2.0));
    }

    const STATUS: &str = "Name:\twbench\nUmask:\t0022\nVmPeak:\t  225712 kB\nVmHWM:\t  113432 kB\n\
                          VmRSS:\t   90000 kB\nvoluntary_ctxt_switches:\t3\nnonvoluntary_ctxt_switches:\t41\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(113_432));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(90_000));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // A count line has no kB suffix and must not parse as kB.
        assert_eq!(parse_status_kb(STATUS, "voluntary_ctxt_switches"), None);
        assert_eq!(
            parse_status_count(STATUS, "nonvoluntary_ctxt_switches"),
            Some(41)
        );
        assert_eq!(
            parse_status_count(STATUS, "voluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_count(STATUS, "VmHWM"), None);
    }

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_comm() {
        let stat = "4242 (w b) e)nch) R 1 4242 4242 0 -1 4194304 900 0 0 0 1234 56 0 0 20 0 1 0 \
                    777 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
    }

    #[test]
    fn json_escaping_round_trips_through_the_reader() {
        let nasty = "a\"b\\c\nd\te\u{1}f/é";
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let doc = format!("{{\"k\": \"{}\"}}", json_escape(nasty));
        assert_eq!(
            Json::parse(&doc).unwrap().get("k").unwrap().str(),
            Some(nasty)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("pass_s", 0.123456789012, "s");
        m.push("events_per_s", 1.5e6, "1/s");
        let line = result_line(10, 0, &m);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let pass = v.get("metrics").unwrap().get("pass_s").unwrap();
        assert_eq!(pass.get("value").unwrap().num(), Some(0.123456789012));
        assert_eq!(pass.get("unit").unwrap().str(), Some("s"));
        assert_eq!(
            Json::parse(&result_line(10, 1, &m)).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert_eq!(
            Json::parse("[1, -2.5e1, true, null]").unwrap().items()[1].num(),
            Some(-25.0)
        );
    }
}
