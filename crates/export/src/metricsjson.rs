//! JSON export of a frozen metrics snapshot (`hgl lift --metrics`).
//!
//! The `hgl-metrics-v1` document freezes one engine run: per-phase
//! wall time and invocation counts, binary-level gauges, the solver
//! cache's hit/miss/eviction counters, and the worker count.
//!
//! Like the other JSON surfaces, the emitter is hand-rolled and fully
//! deterministic apart from the timing values themselves.

use crate::envelope::{open, METRICS_SCHEMA};
use hgl_core::MetricsSnapshot;
use std::fmt::Write;

/// Serialise a [`MetricsSnapshot`] to the `hgl-metrics-v1` document.
pub fn export_metrics_json(m: &MetricsSnapshot) -> String {
    let mut o = open(METRICS_SCHEMA);
    let _ = writeln!(o, "  \"workers\": {},", m.workers);
    let _ = writeln!(o, "  \"elapsed_ns\": {},", m.elapsed_nanos);
    let _ = writeln!(o, "  \"rounds\": {},", m.rounds);
    o.push_str("  \"phases\": [\n");
    for (i, p) in m.phases.iter().enumerate() {
        let _ = write!(
            o,
            "    {{ \"phase\": \"{}\", \"nanos\": {}, \"count\": {} }}",
            p.phase.name(),
            p.nanos,
            p.count
        );
        o.push_str(if i + 1 < m.phases.len() { ",\n" } else { "\n" });
    }
    o.push_str("  ],\n");
    let _ = writeln!(
        o,
        "  \"gauges\": {{ \"states\": {}, \"instructions\": {}, \"functions_lifted\": {}, \
         \"functions_rejected\": {} }},",
        m.states, m.instructions, m.functions_lifted, m.functions_rejected,
    );
    // Decode-failure telemetry: present only when a fetch actually
    // failed to decode, so reject-free documents keep the shape (and
    // bytes) the pre-telemetry goldens pin.
    if !m.decode_rejects.is_empty() {
        o.push_str("  \"decode_rejects\": {");
        for (i, (key, count)) in m.decode_rejects.iter().enumerate() {
            let _ = write!(o, "{}\"{}\": {}", if i == 0 { " " } else { ", " }, key, count);
        }
        o.push_str(" },\n");
    }
    let c = &m.cache;
    let _ = write!(
        o,
        "  \"solver_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {}, \"hit_rate\": {:.4}, \"query_ns\": {} }}",
        c.hits,
        c.misses,
        c.evictions,
        c.entries,
        c.hit_rate(),
        c.query_nanos,
    );
    // The artifact-store block appears only when the run had a store
    // attached, so store-less documents are byte-identical to pre-store
    // emitters.
    if let Some(s) = &m.store {
        o.push_str(",\n");
        let _ = write!(
            o,
            "  \"store\": {{ \"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
             \"evictions\": {}, \"inserts\": {}, \"tmp_swept\": {}, \"write_retries\": {}, \
             \"write_failures\": {}, \"hit_rate\": {:.4} }}",
            s.hits,
            s.misses,
            s.invalidations,
            s.evictions,
            s.inserts,
            s.tmp_swept,
            s.write_retries,
            s.write_failures,
            s.hit_rate(),
        );
    }
    // The rewrite block appears only for `hgl rewrite --metrics` runs,
    // so lift documents keep their pre-rewrite bytes.
    if let Some(r) = &m.rewrite {
        o.push_str(",\n");
        let _ = write!(
            o,
            "  \"rewrite\": {{ \"functions\": {}, \"instructions_reencoded\": {}, \
             \"bytes_delta\": {}, \"guards_inserted\": {}, \"verify_relift_ok\": {}, \
             \"verify_traces_ok\": {} }}",
            r.functions,
            r.instructions_reencoded,
            r.bytes_delta,
            r.guards_inserted,
            opt_bool(r.verify_relift_ok),
            opt_bool(r.verify_traces_ok),
        );
    }
    o.push('\n');
    o.push_str("}\n");
    o
}

fn opt_bool(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::Metrics;
    use std::time::Duration;

    #[test]
    fn document_shape() {
        let m = Metrics::new();
        m.record(hgl_core::Phase::Tau, Duration::from_nanos(40));
        let snap = m.snapshot(None, 4, Duration::from_nanos(1000));
        let j = export_metrics_json(&snap);
        assert!(j.contains("\"schema\": \"hgl-metrics-v1\""), "{j}");
        assert!(j.contains("\"version\": 1"), "{j}");
        assert!(j.contains("\"workers\": 4"), "{j}");
        assert!(j.contains("{ \"phase\": \"tau\", \"nanos\": 40, \"count\": 1 }"), "{j}");
        assert!(j.contains("\"hit_rate\": 0.0000"), "{j}");
        assert!(!j.contains("\"store\""), "store-less document has no store block: {j}");
        assert!(!j.contains("\"rewrite\""), "lift document has no rewrite block: {j}");
        assert!(
            !j.contains("\"decode_rejects\""),
            "reject-free document has no decode_rejects block: {j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    /// Golden-pinned shape of the decode-failure telemetry: buckets
    /// sorted by key, inline object, pinned byte-for-byte.
    #[test]
    fn decode_reject_histogram_shape() {
        let m = Metrics::new();
        m.count_decode_reject("opcode:0f05".to_string());
        m.count_decode_reject("opcode:0f05".to_string());
        m.count_decode_reject("prefix:67".to_string());
        m.count_decode_reject("ext:ff/7".to_string());
        let snap = m.snapshot(None, 1, Duration::from_nanos(10));
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "  \"decode_rejects\": { \"ext:ff/7\": 1, \"opcode:0f05\": 2, \"prefix:67\": 1 },\n"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn store_block_present_when_attached() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.store = Some(hgl_core::StoreStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
            evictions: 0,
            inserts: 4,
            tmp_swept: 1,
            write_retries: 2,
            write_failures: 0,
        });
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "\"store\": { \"hits\": 3, \"misses\": 1, \"invalidations\": 2, \
                 \"evictions\": 0, \"inserts\": 4, \"tmp_swept\": 1, \"write_retries\": 2, \
                 \"write_failures\": 0, \"hit_rate\": 0.5000 }"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn rewrite_block_present_when_attached() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.rewrite = Some(hgl_core::RewriteStats {
            functions: 5,
            instructions_reencoded: 321,
            bytes_delta: -8,
            guards_inserted: 2,
            verify_relift_ok: Some(true),
            verify_traces_ok: None,
        });
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "\"rewrite\": { \"functions\": 5, \"instructions_reencoded\": 321, \
                 \"bytes_delta\": -8, \"guards_inserted\": 2, \"verify_relift_ok\": true, \
                 \"verify_traces_ok\": null }"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn store_and_rewrite_blocks_compose() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.store = Some(hgl_core::StoreStats::default());
        snap.rewrite = Some(hgl_core::RewriteStats::default());
        let j = export_metrics_json(&snap);
        assert!(j.contains("\"store\": {"), "{j}");
        assert!(j.contains("\"rewrite\": {"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
