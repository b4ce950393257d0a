//! Small shared helpers: the result digest, the seeded input RNG, peak RSS,
//! and a write-only JSON value.

use hypertester::bench::fuzz::SplitMix64;
use hypertester::stats::Summary;
use std::fmt::Write as _;

/// FNV-1a over `u64` words: the result digest every rep is compared by.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.word(u64::from(b));
        }
    }
}

/// The input generators' only source of randomness (the repository's
/// SplitMix64), so one `--seed` always yields the same inputs.
pub struct Rng(SplitMix64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so workloads never
    /// share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Order statistics of a non-empty, NaN-free sample.
pub fn summary(xs: &[f64]) -> Summary {
    Summary::new(xs).expect("a metric has at least one sample")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// A JSON value the benchmark writes (it never reads JSON back).
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Multi-line rendering: objects and arrays of objects one member per
    /// line, arrays of scalars inline.
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s
    }

    fn write_pretty(&self, s: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Obj(fields) if depth < 1 => {
                s.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(s, "{pad}\"{}\": ", hypertester::ir::json_escape(k));
                    v.write_pretty(s, depth + 1);
                    s.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(s, "{close}}}");
            }
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
                s.push_str("[\n");
                for (i, it) in items.iter().enumerate() {
                    s.push_str(&pad);
                    it.write_pretty(s, depth + 1);
                    s.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(s, "{close}]");
            }
            other => other.write(s),
        }
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(s, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(s, "{i}");
            }
            // Non-finite values have no JSON spelling; they only arise from
            // a broken measurement, which the caller reports as a failure.
            Json::Num(x) if !x.is_finite() => s.push_str("null"),
            Json::Num(x) => {
                let _ = write!(s, "{x}");
            }
            Json::Str(t) => {
                let _ = write!(s, "\"{}\"", hypertester::ir::json_escape(t));
            }
            Json::Arr(items) => {
                s.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    it.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":", hypertester::ir::json_escape(k));
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_nested_values() {
        let j = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::nums(&[0.5])),
            ("c", Json::Str("x\"".into())),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":[0.5],"c":"x\""}"#);
    }
}
