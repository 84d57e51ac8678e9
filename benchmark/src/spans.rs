//! Harness spans: one per call into a layer's public functions.
//!
//! Spans are recorded from the benchmark's own files only — around the
//! call, never inside the program. They are kept in memory and written out
//! when the pass ends. With recording off (`--trace 0`) `span` is a plain
//! call.
//!
//! A span is `(name, start, end, parent, epoch)`; `name` is
//! `layer.operation`, times are nanoseconds since the recorder was made,
//! `parent` is the index of the enclosing span, and `epoch` is the tenant
//! epoch the work belongs to. Self time of a span is its duration minus
//! the part its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    /// Indices of the open spans, outermost first.
    open: Vec<usize>,
    epoch: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    state: Option<RefCell<State>>,
}

impl Recorder {
    pub fn on() -> Self {
        Self {
            origin: Instant::now(),
            state: Some(RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                epoch: 0,
            })),
        }
    }

    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            state: None,
        }
    }

    /// Sets the epoch id stamped on spans opened from now on.
    pub fn set_epoch(&self, epoch: u64) {
        if let Some(state) = &self.state {
            state.borrow_mut().epoch = epoch;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let index = {
            let mut st = state.borrow_mut();
            let index = st.spans.len();
            let span = Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: st.open.last().copied(),
                epoch: st.epoch,
            };
            st.spans.push(span);
            st.open.push(index);
            index
        };
        let out = f();
        let mut st = state.borrow_mut();
        st.spans[index].end_ns = self.now_ns();
        st.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Nanoseconds of each span not covered by its direct children.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.nanos();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.nanos().saturating_sub(c))
        .collect()
}

/// Share of the spans named `root` that none of their children cover:
/// time inside the workload that no layer call accounts for.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_nanos(spans);
    let (total, own) = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == root)
        .fold((0u64, 0u64), |(t, o), (s, own)| (t + s.nanos(), o + own));
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64)
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_nanos_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_nanos(spans)) {
        *by_name.entry(span.name).or_insert(0) += own;
    }
    by_name
}

/// The trace file: a JSON array, one object per span, in start order.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.name, s.start_ns, s.end_ns, s.epoch
        ));
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn nesting_records_parents_and_epochs() {
        let rec = Recorder::on();
        rec.set_epoch(3);
        let v = rec.span("workload", || {
            rec.span("service.apply", || 1) + rec.span("service.advance_epoch", || 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.epoch)).collect();
        assert_eq!(
            names,
            vec![
                ("workload", None, 3),
                ("service.apply", Some(0), 3),
                ("service.advance_epoch", Some(0), 3)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let rec = Recorder::off();
        assert_eq!(rec.span("workload", || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span("workload", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 95, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_nanos(&spans), vec![25, 30, 35, 10]);
        assert!((unattributed_share(&spans, "workload") - 0.25).abs() < 1e-12);
        assert_eq!(durations(&spans, "b"), vec![45.0]);
        assert_eq!(self_nanos_by_name(&spans)["b"], 35);
    }

    #[test]
    fn the_trace_file_is_one_object_per_span() {
        let json = to_json(&[span("workload", 0, 9, None), span("a", 1, 2, Some(0))]);
        let parsed = crate::json::parse(&json).expect("valid JSON");
        let items = parsed.as_array().expect("array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("name").and_then(|v| v.as_str()), Some("a"));
        assert_eq!(items[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(items[0].get("parent"), Some(&crate::json::Value::Null));
    }
}
