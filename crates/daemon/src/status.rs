//! A node's status as one JSON object, rendered once: the `status` control reply
//! carries it on one line, and `hoplitectl status --json` and the drill report embed
//! it as it came.

use hoplite_bench::json::Json;
use hoplite_cluster::NodeStatus;
use hoplite_core::prelude::*;

/// `status` as `{node, incarnation, resyncing, unconfirmed, peers, primaries,
/// metrics}`: `peers` holds one `{incarnation, state, readmitted}` per node id (state
/// `alive`, `suspect` or `dead`), `primaries` one node id or `null` per shard, and
/// `metrics` every counter by name.
pub fn to_json(status: &NodeStatus) -> Json {
    let NodeStatus { node, incarnation, resyncing, unconfirmed, peers, primaries, metrics } =
        status;
    let num = |n: u64| Json::Num(n as f64);
    let peers = peers.iter().map(|&(incarnation, state, readmitted)| {
        let state = match state {
            GossipState::Alive => "alive",
            GossipState::Suspect => "suspect",
            GossipState::Dead => "dead",
        };
        Json::Obj(vec![
            ("incarnation".into(), num(incarnation)),
            ("state".into(), Json::Str(state.into())),
            ("readmitted".into(), Json::Bool(readmitted)),
        ])
    });
    let primaries = primaries.iter().map(|p| p.map_or(Json::Null, |p| num(p.0.into())));
    let metrics = metrics.fields().into_iter().map(|(name, v)| (name.to_string(), num(v)));
    Json::Obj(vec![
        ("node".into(), num(node.0.into())),
        ("incarnation".into(), num(*incarnation)),
        ("resyncing".into(), Json::Bool(*resyncing)),
        ("unconfirmed".into(), num(*unconfirmed as u64)),
        ("peers".into(), Json::Arr(peers.collect())),
        ("primaries".into(), Json::Arr(primaries.collect())),
        ("metrics".into(), Json::Obj(metrics.collect())),
    ])
}

/// The counter `name` of a rendered status; 0 when it has none.
pub fn counter(status: &Json, name: &str) -> u64 {
    status.get("metrics").and_then(|m| m.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_object_carries_every_status_field_and_every_counter() {
        let metrics = NodeMetrics { objects_put: 7, ..NodeMetrics::default() };
        let status = NodeStatus {
            node: NodeId(2),
            incarnation: 1,
            resyncing: false,
            unconfirmed: 3,
            peers: vec![(0, GossipState::Alive, true), (4, GossipState::Dead, false)],
            primaries: vec![Some(NodeId(1)), None],
            metrics: metrics.clone(),
        };
        let line = to_json(&status).to_line_string();
        assert!(!line.contains('\n'), "{line}");
        let json = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &json else { panic!("not an object: {line}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let fields =
            ["node", "incarnation", "resyncing", "unconfirmed", "peers", "primaries", "metrics"];
        assert_eq!(keys, fields);
        let at = |key: &str| json.get(key).unwrap();
        assert_eq!(at("node").as_u64(), Some(2));
        assert_eq!(at("incarnation").as_u64(), Some(1));
        assert_eq!(at("resyncing").as_bool(), Some(false));
        assert_eq!(at("unconfirmed").as_u64(), Some(3));
        let peer = |i: usize, key: &str| at("peers").as_arr().unwrap()[i].get(key).cloned();
        assert_eq!(peer(1, "incarnation"), Some(Json::Num(4.0)));
        assert_eq!(peer(1, "state"), Some(Json::Str("dead".into())));
        assert_eq!(peer(0, "readmitted"), Some(Json::Bool(true)));
        assert_eq!(at("primaries"), &Json::Arr(vec![Json::Num(1.0), Json::Null]));
        let Json::Obj(counters) = at("metrics") else { panic!("metrics is not an object") };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = metrics.fields().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, expected);
        assert_eq!(counter(&json, "objects_put"), 7);
    }
}
