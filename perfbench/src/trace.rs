//! In-memory span recorder and the self-time report derived from it.
//!
//! A span is `(name, start, end, parent, id)`; `id` is the request or
//! work-item number the span belongs to. Spans stay in memory until the
//! run ends and are then written out as JSON lines. A layer's *self
//! time* is its spans' durations minus the part their child spans cover,
//! so the self times of all layers add up exactly to the root spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; with `enabled = false` every call is a plain
/// pass-through (the spans-off replay the overhead is measured against).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Attach spans timed elsewhere (e.g. inside a library callback) as
    /// children of the innermost open span.
    pub fn adopt(&mut self, name: &'static str, id: u64, times: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        for &(start_ns, end_ns) in times {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

impl Layer {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Nearest-rank percentile of the span durations, microseconds.
    pub fn pct_us(&self, pct: f64) -> f64 {
        percentile(&self.durations, pct) as f64 * 1e-3
    }
}

/// Nearest-rank percentile (0 for an empty sample).
pub fn percentile(values: &[u64], pct: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Per-name busy and self time. Self time subtracts each span's
/// duration from its parent's.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut self_ns: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            self_ns[s.parent as usize] -= s.dur_ns() as i64;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.busy_ns += s.dur_ns();
        l.self_ns = l.self_ns.saturating_add_signed(own);
        l.durations.push(s.dur_ns());
    }
    out
}

/// Total duration of the root spans (spans without a parent).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::dur_ns)
        .sum()
}

/// The self-time table, one row per layer, largest self time first.
pub fn self_time_table(spans: &[Span]) -> String {
    let layers = layers(spans);
    let root = root_ns(spans).max(1);
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<36} {:>9} {:>11} {:>11} {:>7} {:>11}\n",
        "layer", "spans", "busy_s", "self_s", "self%", "p50_us"
    );
    let mut total_self = 0u64;
    for (name, l) in rows {
        total_self += l.self_ns;
        out.push_str(&format!(
            "{:<36} {:>9} {:>11.6} {:>11.6} {:>6.2}% {:>11.2}\n",
            name,
            l.count,
            l.busy_s(),
            l.self_ns as f64 * 1e-9,
            100.0 * l.self_ns as f64 / root as f64,
            l.pct_us(50.0)
        ));
    }
    out.push_str(&format!(
        "{:<36} {:>9} {:>11} {:>11.6} {:>6.2}%\n",
        "(sum of self times / root spans)",
        "",
        "",
        total_self as f64 * 1e-9,
        100.0 * total_self as f64 / root as f64
    ));
    out
}
