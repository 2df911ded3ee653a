//! JSONL trace replay: capture a workload as one JSON object per line
//! and rebuild it later.
//!
//! The record format is deliberately tiny — one message per line:
//!
//! ```text
//! {"src": 0, "dst": 5, "bytes": 4096, "depends_on": [0, 3]}
//! ```
//!
//! `depends_on` holds message ids, where a message's id is its
//! zero-based line number; dependencies must point at earlier lines
//! (the same topological-order invariant as [`Workload::validate`]).
//! Lines are read with the workspace's JSON parser
//! ([`ibfat_topology::json`]), which bounds nesting, so a hostile line
//! is an error, not a stack overflow.

use crate::{Message, Workload};
use ibfat_topology::json;
use ibfat_topology::NodeId;

/// Serialize a workload to JSONL, one message per line. The group
/// structure is intentionally not captured — a replayed trace is one
/// flat "replay" group, which is what completion-time measurement of a
/// recorded run wants.
pub fn to_jsonl(w: &Workload) -> String {
    let mut out = String::new();
    for m in &w.messages {
        out.push_str(&format!(
            "{{\"src\": {}, \"dst\": {}, \"bytes\": {}, \"depends_on\": [",
            m.src.0, m.dst.0, m.bytes
        ));
        for (k, d) in m.deps.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&d.to_string());
        }
        out.push_str("]}\n");
    }
    out
}

/// Parse a JSONL trace into a workload over `num_nodes` nodes. Blank
/// lines are skipped. Returns the first malformed line as an error;
/// the result still needs [`Workload::validate`] for the semantic
/// checks (endpoint range, dependency ordering).
pub fn parse_jsonl(text: &str, num_nodes: u32) -> Result<Workload, String> {
    let mut w = Workload::new(num_nodes);
    let group = w.add_group("replay");
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let msg = parse_line(line, group).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        w.push(msg);
    }
    Ok(w)
}

/// Read one record as a message of `group`. Ids must fit in `u32`: an
/// out-of-range one is an error, never wrapped.
fn parse_line(line: &str, group: u32) -> Result<Message, String> {
    let doc = json::parse(line)?;
    let o = doc.as_object("record")?;
    if let Some((key, _)) =
        o.0.iter()
            .find(|(k, _)| !matches!(k.as_str(), "src" | "dst" | "bytes" | "depends_on"))
    {
        return Err(format!("unknown key {key:?}"));
    }
    let deps = match o.get("depends_on") {
        Some(deps) => deps
            .as_array("depends_on")?
            .iter()
            .map(|d| d.as_int("depends_on"))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    Ok(Message {
        src: NodeId(o.int("src")?),
        dst: NodeId(o.int("dst")?),
        bytes: o.int("bytes")?,
        deps,
        group,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trips_a_generated_workload() {
        let w = generators::all_to_all(5, 777);
        let text = to_jsonl(&w);
        let back = parse_jsonl(&text, 5).expect("parses");
        back.validate().expect("valid");
        // Group naming differs (replay flattens); the DAG must not.
        assert_eq!(back.messages.len(), w.messages.len());
        for (a, b) in w.messages.iter().zip(&back.messages) {
            assert_eq!(
                (a.src, a.dst, a.bytes, &a.deps),
                (b.src, b.dst, b.bytes, &b.deps)
            );
        }
    }

    #[test]
    fn parses_sparse_whitespace_and_blank_lines() {
        let text = "\n  {\"src\":1,\"dst\":0,\"bytes\":64,\"depends_on\":[]}\n\n\
                    { \"src\" : 0 , \"dst\" : 1 , \"bytes\" : 128 , \"depends_on\" : [ 0 ] }\n";
        let w = parse_jsonl(text, 2).expect("parses");
        w.validate().expect("valid");
        assert_eq!(w.messages.len(), 2);
        assert_eq!(w.messages[1].deps, vec![0]);
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let err = parse_jsonl("{\"src\":1,\"dst\":}", 2).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_jsonl("{\"sorc\":1}", 2).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = parse_jsonl("{\"src\":1,\"dst\":0,\"depends_on\":[]}", 2).unwrap_err();
        assert!(err.contains("missing \"bytes\""), "{err}");
        // Ids beyond u32 are errors, not wrapped onto small node ids.
        for line in [
            "{\"src\": 4294967297, \"dst\": 1, \"bytes\": 64}",
            "{\"src\": 0, \"dst\": 4294967298, \"bytes\": 64}",
            "{\"src\": 0, \"dst\": 1, \"bytes\": 64, \"depends_on\": [4294967296]}",
        ] {
            let text = format!("{{\"src\":1,\"dst\":0,\"bytes\":64}}\n{line}");
            let err = parse_jsonl(&text, 2).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains("out of range"),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_deep_nesting_without_overflowing_the_stack() {
        let line = "[".repeat(1_000_000);
        let err = parse_jsonl(&line, 2).unwrap_err();
        assert!(err.contains("line 1") && err.contains("nesting"), "{err}");
    }
}
