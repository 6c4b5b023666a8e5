//! JSON wire format for [`TaskGraph`].
//!
//! A graph travels as
//!
//! ```json
//! {"tasks":[{"name":"t0","exec":15.0}],
//!  "edges":[{"src":0,"dst":1,"volume":2.0}]}
//! ```
//!
//! where `src`/`dst` are indices into `tasks`. Decoding goes through
//! [`TaskGraph::from_parts`], so every structural invariant (non-empty,
//! acyclic, finite non-negative weights, no self loops or duplicate edges)
//! is re-checked and reported as a typed error — a hostile document can
//! never construct an invalid graph or panic the decoder.

use crate::graph::{Edge, TaskGraph};
use crate::ids::TaskId;
use serde::{DeError, Deserialize, Serialize, Sink, Value};

/// One task of the wire form: display name plus execution weight `E(t)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TaskSpec {
    name: String,
    exec: f64,
}

/// One edge of the wire form, endpoints as task indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EdgeSpec {
    src: u32,
    dst: u32,
    volume: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GraphSpec {
    tasks: Vec<TaskSpec>,
    edges: Vec<EdgeSpec>,
}

/// The module's wire form, emitted without building a `GraphSpec` copy.
impl Serialize for TaskGraph {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_map();
        s.key("tasks");
        s.begin_seq();
        for t in self.tasks() {
            s.begin_map();
            s.entry("name", self.name(t));
            s.entry("exec", &self.exec(t));
            s.end_map();
        }
        s.end_seq();
        s.key("edges");
        s.begin_seq();
        for id in self.edge_ids() {
            let e = self.edge(id);
            s.begin_map();
            s.entry("src", &e.src.0);
            s.entry("dst", &e.dst.0);
            s.entry("volume", &e.volume);
            s.end_map();
        }
        s.end_seq();
        s.end_map();
    }
}

impl Deserialize for TaskGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let spec = GraphSpec::from_value(v)?;
        let (names, exec): (Vec<String>, Vec<f64>) =
            spec.tasks.into_iter().map(|t| (t.name, t.exec)).unzip();
        let edges = spec
            .edges
            .into_iter()
            .map(|e| Edge {
                src: TaskId(e.src),
                dst: TaskId(e.dst),
                volume: e.volume,
            })
            .collect();
        TaskGraph::from_parts(exec, names, edges).map_err(|e| DeError::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::fig1_diamond;

    fn roundtrip(g: &TaskGraph) -> TaskGraph {
        TaskGraph::from_value(&g.to_value()).expect("wire round-trip")
    }

    #[test]
    fn fig1_roundtrips_losslessly() {
        let g = fig1_diamond();
        let h = roundtrip(&g);
        assert_eq!(h.num_tasks(), g.num_tasks());
        assert_eq!(h.num_edges(), g.num_edges());
        for t in g.tasks() {
            assert_eq!(h.name(t), g.name(t));
            assert_eq!(h.exec(t), g.exec(t));
        }
        for id in g.edge_ids() {
            assert_eq!(h.edge(id), g.edge(id));
        }
    }

    #[test]
    fn invalid_documents_are_typed_errors() {
        let err = |s: &str| {
            serde_json::from_str::<TaskGraph>(s)
                .unwrap_err()
                .to_string()
        };
        // Structural violations caught by `from_parts`, not panics.
        assert!(err(r#"{"tasks":[],"edges":[]}"#).contains("no tasks"));
        assert!(err(
            r#"{"tasks":[{"name":"a","exec":1.0}],"edges":[{"src":0,"dst":5,"volume":1.0}]}"#
        )
        .contains("unknown task"));
        assert!(err(
            r#"{"tasks":[{"name":"a","exec":1.0}],"edges":[{"src":0,"dst":0,"volume":1.0}]}"#
        )
        .contains("self loop"));
        let cyclic = r#"{"tasks":[{"name":"a","exec":1.0},{"name":"b","exec":1.0}],
            "edges":[{"src":0,"dst":1,"volume":1.0},{"src":1,"dst":0,"volume":1.0}]}"#;
        assert!(err(cyclic).contains("cyclic"));
        // Shape violations caught by the strict derive.
        assert!(err(r#"{"tasks":[{"name":"a"}],"edges":[]}"#).contains("missing field `exec`"));
        assert!(
            err(r#"{"tasks":[{"name":"a","exec":1.0,"prio":2}],"edges":[]}"#)
                .contains("unknown field `prio`")
        );
    }
}
