//! The fallible-accessor contract: raw-output and delivery-counter lookups
//! fail with *descriptive* errors (never panics), in every retention mode,
//! and the machine-readable report stays well-formed when the data a field
//! would describe was never tracked.

use hw_model::SimDuration;
use quanto_core::NodeId;
use quanto_fleet::{
    execute_or_cached_in, FleetRunner, MediumSpec, RawAccessError, Retention, Scenario,
    ScenarioResult, SimWorkspace,
};

fn bounce(d: u64) -> Scenario {
    Scenario::bounce(SimDuration::from_secs(d))
}

fn execute(scenario: Scenario, retention: Retention) -> ScenarioResult {
    execute_or_cached_in(0, scenario, retention, None, &mut SimWorkspace::new())
}

#[test]
fn not_retained_error_names_the_scenario_and_the_fix() {
    // The zero-materialization path never has raw outputs.
    let streamed = execute(bounce(1), Retention::Stream);
    assert!(!streamed.has_raw());
    let err = streamed.output(NodeId(1)).unwrap_err();
    assert!(matches!(err, RawAccessError::NotRetained { .. }));
    let msg = err.to_string();
    assert!(msg.contains("bounce_1s"), "{msg}");
    assert!(msg.contains("retain_raw"), "{msg}");
    assert_eq!(streamed.context(NodeId(1)).unwrap_err().to_string(), msg);
    // Summaries and stream residues survive regardless.
    assert!(streamed.summary(NodeId(1)).is_some());
    assert_eq!(streamed.stream_meta().len(), 2);
}

#[test]
fn unknown_node_error_lists_the_nodes_that_ran() {
    let result = execute(bounce(1), Retention::Raw);
    let err = result.output(NodeId(9)).unwrap_err();
    let RawAccessError::UnknownNode {
        scenario,
        node,
        known,
    } = &err
    else {
        panic!("expected UnknownNode, got {err:?}");
    };
    assert_eq!(scenario, "bounce_1s");
    assert_eq!(*node, NodeId(9));
    assert_eq!(known, &[NodeId(1), NodeId(4)]);
    let msg = err.to_string();
    assert!(msg.contains("no node 9"), "{msg}");
    assert!(msg.contains('4'), "{msg} should list the known ids");
}

#[test]
fn counter_error_names_the_medium_and_the_alternatives() {
    let ideal = execute(bounce(1), Retention::Stream);
    assert!(!ideal.has_medium_counters());
    let err = ideal.medium_counters().unwrap_err();
    assert_eq!(err.medium, "ideal");
    assert_eq!(err.scenario, "bounce_1s");
    let msg = err.to_string();
    assert!(msg.contains("does not track delivery counters"), "{msg}");
    for alternative in ["unit_disk", "path_loss", "mobility"] {
        assert!(
            msg.contains(alternative),
            "{msg} should suggest {alternative}"
        );
    }
    // A geometric medium answers on the same streaming path.
    let disk = execute(
        bounce(2).with_medium(MediumSpec::UnitDisk {
            range_m: 100.0,
            positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
        }),
        Retention::Stream,
    );
    assert!(disk.medium_counters().unwrap().delivered > 0);
}

/// `summary_json` must stay structurally valid when counters are untracked:
/// `"delivery":null`, the always-null `pinned_digest` kept for v1 document
/// compatibility, balanced braces and brackets throughout.
#[test]
fn summary_json_is_well_formed_without_counters() {
    let report =
        FleetRunner::sequential().run(vec![bounce(1), Scenario::idle(SimDuration::from_secs(1))]);
    let json = report.summary_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"delivery\":null"), "{json}");
    assert!(json.contains("\"pinned_digest\":null"), "{json}");
    assert!(json.contains("\"cpu_segments\":"), "{json}");
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close} in {json}"
        );
    }
    // Raw retention writes the same null: there is only one digest.
    let raw = FleetRunner::sequential().retain_raw().run(vec![bounce(1)]);
    assert!(
        raw.summary_json().contains("\"pinned_digest\":null"),
        "{}",
        raw.summary_json()
    );
}
