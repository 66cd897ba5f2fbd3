//! End-to-end observability: drive the cluster manager until it must
//! deflate, then assert that the structured trace carries a full cascade
//! span — per-VM `cascade.deflate` children with per-layer
//! `cascade.layer` payloads — and that the run summary, metrics CSV, and
//! span JSON are all machine-readable and mutually consistent.

use cluster::{
    run_cluster_sim, ClusterManager, ClusterManagerConfig, ClusterRecord, ClusterSimConfig,
    TraceConfig, VmRequest,
};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use simkit::{JsonValue, SimDuration, SimTime, Span};

fn req(id: u64) -> VmRequest {
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec,
        type_name: "test",
        low_priority: true,
        min_size: spec.scale(0.3),
    }
}

fn overloaded_manager() -> ClusterManager {
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 2,
        server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
        cascade: CascadeConfig::FULL,
        ..ClusterManagerConfig::default()
    });
    // Four VMs fill both servers; the fifth forces cascade deflation.
    for i in 0..5 {
        m.launch(SimTime::ZERO, &req(i));
    }
    m
}

#[test]
fn cascade_span_carries_per_layer_payloads() {
    let m = overloaded_manager();
    let trace = &m.observability().trace;
    let room = trace
        .spans_by_kind("server.make_room")
        .next()
        .expect("deflation records a make_room span");
    assert!(room.attr("server").is_some());

    let deflates: Vec<&Span> = room
        .children
        .iter()
        .filter(|c| c.kind == "cascade.deflate")
        .collect();
    assert!(!deflates.is_empty(), "per-VM cascade children present");
    for d in &deflates {
        assert!(d.attr("vm").is_some());
        assert!(d.attr("met_target").is_some());
        assert!(d.attr("total_reclaimed.cpu").is_some());
        // Per-layer LayerReport payloads: every engaged layer appears as
        // a cascade.layer child with requested/reclaimed vectors.
        let layers: Vec<&Span> = d
            .children
            .iter()
            .filter(|c| c.kind == "cascade.layer")
            .collect();
        assert!(!layers.is_empty(), "engaged layers are reported");
        for l in &layers {
            let name = l
                .attr("layer")
                .and_then(|a| a.as_str())
                .expect("layer name");
            assert!(
                ["app", "os", "hypervisor"].contains(&name),
                "unexpected layer {name}"
            );
            assert!(l.attr("requested.cpu").is_some());
            assert!(l.attr("reclaimed.cpu").is_some());
        }
    }
}

#[test]
fn span_json_survives_round_trip() {
    let m = overloaded_manager();
    let room = m
        .observability()
        .trace
        .spans_by_kind("server.make_room")
        .next()
        .expect("span exists");
    let text = room.to_json().to_pretty();
    let parsed = JsonValue::parse(&text).expect("span JSON parses");
    let back = Span::from_json(&parsed).expect("span reconstructs");
    assert_eq!(back, room);
}

#[test]
fn make_room_record_renders_its_report() {
    let m = overloaded_manager();
    let trace = &m.observability().trace;
    let room = trace
        .records()
        .iter()
        .find_map(|r| match r {
            ClusterRecord::MakeRoom(room) => Some(room),
            _ => None,
        })
        .expect("deflation records a make_room");
    let span = trace
        .spans_by_kind("server.make_room")
        .next()
        .expect("span exists");
    // The stored outcomes are the span's children, rendered on read, and
    // reading twice renders the same tree.
    assert_eq!(span, room.to_span());
    assert_eq!(
        span.attr("deflated_vms").and_then(|a| a.as_f64()),
        Some(room.outcomes.len() as f64)
    );
    let children: Vec<_> = span
        .children
        .iter()
        .filter(|c| c.kind == "cascade.deflate")
        .collect();
    assert_eq!(children.len(), room.outcomes.len());
    for (child, (vm, out)) in children.iter().zip(room.outcomes.iter()) {
        assert_eq!(
            **child,
            out.to_span(room.at).with_attr("vm", vm.to_string())
        );
    }
}

#[test]
fn run_summary_reflects_manager_state() {
    let mut m = overloaded_manager();
    let stats = m.stats();
    let doc = m.run_summary(SimTime::from_secs(60), "integration");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("cluster.launched"))
            .and_then(|v| v.as_f64()),
        Some(stats.launched as f64)
    );
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("cluster.deflations"))
            .and_then(|v| v.as_f64()),
        Some(stats.deflations as f64)
    );
    let spans = doc
        .get("trace")
        .and_then(|t| t.get("spans"))
        .expect("span counts");
    assert!(spans
        .get("server.make_room")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n >= 1.0));
    // CSV export carries the same counter.
    let csv = m.observability_mut().metrics.to_csv();
    assert!(csv
        .lines()
        .next()
        .is_some_and(|h| h == "kind,key,stat,value"));
    assert!(csv.contains(&format!(
        "counter,cluster.launched,value,{}",
        stats.launched
    )));
}

#[test]
fn full_sim_summary_is_machine_readable() {
    let r = run_cluster_sim(&ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: 10,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: 80.0,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_hours(4),
    });
    let text = r.summary.to_pretty();
    let parsed = JsonValue::parse(&text).expect("sim summary parses");
    assert_eq!(
        parsed.get("run").and_then(|v| v.as_str()),
        Some("cluster_sim")
    );
    assert!(parsed
        .get("gauges")
        .and_then(|g| g.get("cluster.utilization"))
        .is_some());
}
