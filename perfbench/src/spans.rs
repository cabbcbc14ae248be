//! In-memory span recorder for the traced run: one span (name, start,
//! end, parent, peak RSS) around each timed public call, written out as
//! JSON when the run ends.

use crate::procfs;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name, e.g. `core.generate`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Peak RSS over the call, MiB (the high-water mark is reset on entry).
    pub peak_rss_mib: f64,
}

impl Span {
    /// Wall seconds the call took.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans; nesting follows call nesting.
pub struct Spans {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.stack.borrow().last().copied();
        // A failed reset only widens the window the peak covers.
        let _ = procfs::reset_peak_rss();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
                peak_rss_mib: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let child_peak = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.peak_rss_mib)
            .fold(0.0, f64::max);
        let span = &mut spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.peak_rss_mib = procfs::peak_rss_mib().max(child_peak);
        out
    }

    /// The first finished span with this name.
    pub fn get(&self, name: &str) -> Option<Span> {
        self.spans.borrow().iter().find(|s| s.name == name).cloned()
    }

    /// Sum of the durations of `parent`'s direct children.
    pub fn child_sum(&self, parent: &str) -> f64 {
        let spans = self.spans.borrow();
        let Some(pid) = spans.iter().position(|s| s.name == parent) else {
            return 0.0;
        };
        spans
            .iter()
            .filter(|s| s.parent == Some(pid))
            .map(Span::secs)
            .sum()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                format!(
                    "  {{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"peak_rss_mib\": {}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.peak_rss_mib
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_sum() {
        let spans = Spans::new();
        let v = spans.call("root", || {
            let a = spans.call("a", || 1);
            let b = spans.call("b", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                2
            });
            a + b
        });
        assert_eq!(v, 3);
        let root = spans.get("root").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(spans.get("b").unwrap().parent, Some(0));
        assert!(spans.child_sum("root") <= root.secs());
        assert!(spans.get("b").unwrap().secs() >= 0.005);
        let json: serde_json::Value = serde_json::from_str(&spans.to_json()).unwrap();
        assert_eq!(json[2]["name"].as_str(), Some("b"));
        assert_eq!(json[2]["parent"].as_u64(), Some(0));
    }
}
