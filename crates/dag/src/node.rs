//! Plan types: the resolved view of a spec's artifact subgraph.
//!
//! A [`Plan`] is what a DAG resolver returns — one [`PlanNode`] per
//! artifact the spec depends on, each carrying its kind, fingerprint,
//! hit/miss state and on-disk size. The daemon attaches a plan summary
//! to submissions, `POST /plan` and `repro explain` render the full
//! node list, and the executor schedules exactly the missing subset.

/// The artifact kinds a plan can resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A recorded LLC reference stream (`streams/<fp>.llcs`).
    Stream,
    /// A fused next-use/shared-soon pre-pass (`dag/ann/<fp>.llca`).
    Annotations,
    /// A per-policy replay result (`dag/replays/<fp>.llcr`).
    Replay,
    /// The merged experiment table (`results/<fp>.json`).
    Table,
}

impl NodeKind {
    /// Every kind, in pipeline order.
    pub const ALL: [NodeKind; 4] = [
        NodeKind::Stream,
        NodeKind::Annotations,
        NodeKind::Replay,
        NodeKind::Table,
    ];

    /// The kind's stable label (used in metrics, plans and manifests).
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Stream => "stream",
            NodeKind::Annotations => "annotations",
            NodeKind::Replay => "replay",
            NodeKind::Table => "table",
        }
    }

    /// The kind's stable one-byte code in serialized manifests. Code 2
    /// is retired ([`NodeKind::RETIRED_CODE`]) and never reused.
    pub fn code(self) -> u8 {
        match self {
            NodeKind::Stream => 1,
            NodeKind::Annotations => 3,
            NodeKind::Replay => 4,
            NodeKind::Table => 5,
        }
    }

    /// The manifest code of the retired in-memory shard-index node.
    /// Manifests written by older daemons may still hold it; it names
    /// no file, so decoders skip it.
    pub const RETIRED_CODE: u8 = 2;

    /// Decodes a manifest kind code.
    pub fn from_code(code: u8) -> Option<NodeKind> {
        NodeKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Index of the kind in [`NodeKind::ALL`] (for per-kind counters).
    pub fn ordinal(self) -> usize {
        // infallible: ALL lists every kind.
        NodeKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every kind is in ALL")
    }
}

/// One resolved artifact in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// What kind of artifact this is.
    pub kind: NodeKind,
    /// The node's content-addressed fingerprint.
    pub fp: u64,
    /// Human-readable description (workload, policy descriptor, ...).
    pub detail: String,
    /// `true` if the artifact is already available (disk or memory).
    pub hit: bool,
    /// On-disk size of the cached artifact, 0 for misses and
    /// memory-only nodes.
    pub bytes: u64,
}

/// The resolved artifact subgraph of one spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    /// The nodes, in pipeline order (streams before their dependents).
    pub nodes: Vec<PlanNode>,
}

impl Plan {
    /// Adds a node.
    pub fn push(
        &mut self,
        kind: NodeKind,
        fp: u64,
        detail: impl Into<String>,
        hit: bool,
        bytes: u64,
    ) {
        self.nodes.push(PlanNode {
            kind,
            fp,
            detail: detail.into(),
            hit,
            bytes,
        });
    }

    /// Total nodes already cached.
    pub fn hits(&self) -> usize {
        self.nodes.iter().filter(|n| n.hit).count()
    }

    /// Total nodes that must be computed.
    pub fn misses(&self) -> usize {
        self.nodes.len() - self.hits()
    }

    /// Cached nodes of one kind.
    pub fn hits_of(&self, kind: NodeKind) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind && n.hit)
            .count()
    }

    /// Missing nodes of one kind.
    pub fn misses_of(&self, kind: NodeKind) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind && !n.hit)
            .count()
    }

    /// `true` when every node is already cached — the spec can be
    /// answered without any simulation.
    pub fn fully_cached(&self) -> bool {
        self.nodes.iter().all(|n| n.hit)
    }

    /// Bytes of cached artifacts the plan would reuse.
    pub fn cached_bytes(&self) -> u64 {
        self.nodes.iter().filter(|n| n.hit).map(|n| n.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeKind::from_code(kind.code()), Some(kind));
            assert_eq!(NodeKind::ALL[kind.ordinal()], kind);
        }
        // Pinned: manifests on disk hold these codes.
        let codes = NodeKind::ALL.map(NodeKind::code);
        assert_eq!(codes, [1, 3, 4, 5]);
        assert_eq!(NodeKind::from_code(NodeKind::RETIRED_CODE), None);
        assert_eq!(NodeKind::from_code(0), None);
        assert_eq!(NodeKind::from_code(6), None);
    }

    #[test]
    fn plan_counts() {
        let mut plan = Plan::default();
        plan.push(NodeKind::Stream, 1, "fft", true, 100);
        plan.push(NodeKind::Replay, 2, "LRU", false, 0);
        plan.push(NodeKind::Replay, 3, "SRRIP", true, 40);
        assert_eq!(plan.hits(), 2);
        assert_eq!(plan.misses(), 1);
        assert_eq!(plan.hits_of(NodeKind::Replay), 1);
        assert_eq!(plan.misses_of(NodeKind::Replay), 1);
        assert!(!plan.fully_cached());
        assert_eq!(plan.cached_bytes(), 140);
    }
}
