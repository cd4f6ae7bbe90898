//! The benchmark's own spans, recorded around every call it makes into a
//! layer of the program: name, start, end, parent span and request id.
//! They stay in memory and are written out as chrome://tracing JSON when
//! the run ends. Timestamps come from `epim_obs::now_ns`, so they share a
//! timeline with the program's own trace ring.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Request id of spans that belong to no request.
pub const NO_REQUEST: u64 = u64::MAX;
/// Parent id of root spans.
pub const NO_PARENT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

/// Span id of role `role` (< 8) of request `request`; ids are never 0.
pub fn request_span_id(request: u64, role: u64) -> u64 {
    ((request + 1) << 3) | role
}

/// One thread's span buffer. Disabled recorders read no clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    cap: usize,
    thread: u32,
    pub spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
    next_free_id: u64,
}

impl Spans {
    pub fn new(enabled: bool, cap: usize, thread: u32) -> Self {
        Spans {
            enabled,
            cap,
            thread,
            spans: Vec::new(),
            dropped: 0,
            // Free-standing ids live far above every request span id.
            next_free_id: (1 << 62) + (u64::from(thread) << 40),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A span start timestamp, or 0 when disabled.
    pub fn start(&self) -> u64 {
        if self.enabled {
            epim_obs::now_ns()
        } else {
            0
        }
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn end(&mut self, name: &'static str, id: u64, parent: u64, request: u64, start_ns: u64) {
        if self.enabled {
            let end_ns = epim_obs::now_ns();
            self.record(name, id, parent, request, start_ns, end_ns);
        }
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
            thread: self.thread,
        });
    }

    /// A fresh id for a span that belongs to no request.
    pub fn free_id(&mut self) -> u64 {
        self.next_free_id += 1;
        self.next_free_id
    }

    pub fn absorb(&mut self, other: Spans) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }
}

/// Per-name totals: count, mean duration and mean self time (duration
/// minus the part of it that child spans cover), all in microseconds.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let self_ns = dur - covered.min(dur);
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur as f64;
                e.3 += self_ns as f64;
            }
            None => by_name.push((s.name, 1, dur as f64, self_ns as f64)),
        }
    }
    for e in &mut by_name {
        e.2 /= e.1 as f64 * 1e3;
        e.3 /= e.1 as f64 * 1e3;
    }
    by_name
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// chrome://tracing "trace event format" JSON of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            if s.request == NO_REQUEST {
                -1
            } else {
                s.request as i64
            },
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20)], 0, 100), 20);
        assert_eq!(covered_ns(&[(0, 10), (30, 40)], 5, 35), 10);
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(covered_ns(&[(50, 60)], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true, 16, 0);
        let root = request_span_id(0, 0);
        s.record("request", root, NO_PARENT, 0, 100, 200);
        s.record("submit", request_span_id(0, 1), root, 0, 100, 130);
        let sum = summarize(&s.spans);
        let request = sum.iter().find(|e| e.0 == "request").unwrap();
        assert_eq!(request.1, 1);
        assert!((request.2 - 0.1).abs() < 1e-12);
        assert!((request.3 - 0.07).abs() < 1e-12);
    }

    #[test]
    fn full_buffer_counts_drops_and_disabled_records_nothing() {
        let mut s = Spans::new(true, 1, 0);
        s.record("a", 1, NO_PARENT, NO_REQUEST, 0, 1);
        s.record("b", 2, NO_PARENT, NO_REQUEST, 0, 1);
        assert_eq!((s.spans.len(), s.dropped), (1, 1));
        let mut off = Spans::new(false, 8, 0);
        assert_eq!(off.start(), 0);
        off.record("a", 1, NO_PARENT, NO_REQUEST, 0, 1);
        assert!(off.spans.is_empty());
        assert!(chrome_json(&s.spans).starts_with("{\"traceEvents\":[{\"name\":\"a\""));
    }
}
