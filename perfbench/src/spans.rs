//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public trait
//! function. Spans of one stress cell or fleet session form a [`Tree`]
//! rooted at the span [`root`] opens; the tree is kept on the thread
//! that runs the cell or session and handed back when the root closes,
//! so worker threads never share a buffer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the process
/// epoch, and the span that was open when it started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Tree::spans`]; `None` for the root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans and counts of one cell or session. `spans[0]` is the root.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    /// Cell index (stress workloads) or session id (fleet).
    pub id: u64,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tree {
    /// Each span's duration minus the part of its interval that its
    /// child spans cover, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.duration() - covered(s.start, s.end, &mut kids))
            .collect()
    }

    pub fn root(&self) -> &Span {
        &self.spans[0]
    }
}

/// Write every span, one JSON object per line: tree id, span index,
/// name, start and end (ns since the process epoch), parent index and
/// self time.
pub fn write_jsonl(path: &std::path::Path, trees: &[Tree]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tree in trees {
        for (i, (s, self_ns)) in tree.spans.iter().zip(tree.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                tree.id, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

struct Open {
    tree: Tree,
    stack: Vec<usize>,
}

thread_local! {
    static OPEN: RefCell<Option<Open>> = const { RefCell::new(None) };
}

fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` as the root span `name` of a new tree and return the tree.
/// Roots do not nest.
pub fn root<T>(id: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, Tree) {
    OPEN.with(|o| {
        let prev = o.borrow_mut().replace(Open {
            tree: Tree {
                id,
                ..Tree::default()
            },
            stack: Vec::new(),
        });
        assert!(prev.is_none(), "root spans do not nest");
    });
    let out = span(name, f);
    let open = OPEN
        .with(|o| o.borrow_mut().take())
        .expect("root span is open");
    (out, open.tree)
}

/// Run `f` inside a span named `name`. Outside a root this only runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = OPEN.with(|o| {
        o.borrow_mut().as_mut().map(|open| {
            let idx = open.tree.spans.len();
            let parent = open.stack.last().copied();
            open.tree.spans.push(Span {
                name,
                start: now(),
                end: 0,
                parent,
            });
            open.stack.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        let end = now();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let open = o.as_mut().expect("span closes inside its root");
            open.stack.pop();
            open.tree.spans[idx].end = end;
        });
    }
    out
}

/// Add `n` to the counter `name` of the open tree (no-op outside a root).
pub fn count(name: &'static str, n: u64) {
    OPEN.with(|o| {
        if let Some(open) = o.borrow_mut().as_mut() {
            *open.tree.counts.entry(name).or_default() += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // cell [0,100): ia [10,60) with cost children [15,25) and [20,30)
        // (overlapping: union 15..30), inject [60,90) with one cost child
        // [70,95) that runs past its parent's end.
        let tree = Tree {
            id: 0,
            spans: vec![
                span("cell", 0, 100, None),
                span("ia.train", 10, 60, Some(0)),
                span("cost.workload", 15, 25, Some(1)),
                span("cost.workload", 20, 30, Some(1)),
                span("core.inject", 60, 90, Some(0)),
                span("cost.query", 70, 95, Some(4)),
            ],
            counts: BTreeMap::new(),
        };
        assert_eq!(
            tree.self_times(),
            vec![100 - 80, 50 - 15, 10, 10, 30 - 20, 25]
        );
    }

    #[test]
    fn recorder_builds_the_nesting_it_observes() {
        let ((), tree) = root(7, "cell", || {
            super::span("ia.train", || {
                super::span("cost.workload", || count("calls", 1));
            });
            super::span("core.inject", || count("calls", 2));
        });
        let names: Vec<_> = tree.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("cell", None),
                ("ia.train", Some(0)),
                ("cost.workload", Some(1)),
                ("core.inject", Some(0)),
            ]
        );
        assert_eq!(tree.id, 7);
        assert_eq!(tree.counts["calls"], 3);
        let selfs = tree.self_times();
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, tree.root().duration());
        // Outside a root nothing is recorded.
        assert_eq!(super::span("cost.query", || 5), 5);
        count("calls", 1);
    }
}
