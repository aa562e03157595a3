//! Cluster topology and the switched fabric timing model.
//!
//! A topology is a graph of hosts, switches and TCAs joined by
//! full-duplex links. [`Fabric`] owns the per-direction [`Link`] state
//! and per-switch routing latency, and computes packet delivery times
//! with virtual cut-through forwarding: a switch begins forwarding as
//! soon as it has the header (plus the 100 ns routing latency of §4),
//! rather than after store-and-forward of the whole packet.
//!
//! Topologies come from two places: hand-wired [`TopologyBuilder`]
//! calls, or a declarative [`TopoSpec`] (single switch, fat tree,
//! explicit edge list) that also returns a [`TopoMap`] describing the
//! generated structure — which host hangs off which leaf, each
//! switch's parent, and the root — so higher layers can place handlers
//! without re-deriving the shape.
//!
//! Routing is deterministic shortest-path: one breadth-first search per
//! destination fills a dense next-hop table, visiting neighbors in
//! edge-insertion order so equal-length paths always resolve the same
//! way (see docs/DETERMINISM.md). Multi-hop packets pay per-link
//! credits at *each* hop; with [`TopoSpec`]-generated fabrics an
//! upstream link's credit is held until the packet has left the
//! *downstream* hop (chained backpressure), while hand-built and
//! single-switch fabrics keep the seed behavior of freeing the credit
//! at that hop's own arrival.
//!
//! Packet *data* is not carried here — the cluster layer moves the real
//! bytes; the fabric answers "when does it arrive, and what did it cost".

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use asan_sim::snap_fields;
use asan_sim::stats::Traffic;
use asan_sim::{SimDuration, SimTime};

use crate::link::{Link, LinkConfig, LinkTiming};
use crate::packet::NodeId;

/// What a node is; affects nothing in the fabric timing, but lets the
/// cluster attach the right component models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A compute node (host CPU + HCA).
    Host,
    /// A network switch (possibly active).
    Switch,
    /// A target channel adapter fronting the I/O subsystem.
    Tca,
}

/// Per-switch forwarding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Routing decision latency (100 ns in §4).
    pub routing_latency: SimDuration,
    /// Virtual cut-through (§4): forward as soon as the header has been
    /// routed. When disabled the switch stores the whole packet before
    /// forwarding (the classic baseline the paper's switch improves on).
    pub cut_through: bool,
}

impl SwitchSpec {
    /// The paper's switch: 100 ns routing latency, virtual cut-through.
    pub fn paper() -> Self {
        SwitchSpec {
            routing_latency: SimDuration::from_ns(100),
            cut_through: true,
        }
    }

    /// A store-and-forward variant for ablation.
    pub fn store_and_forward() -> Self {
        SwitchSpec {
            cut_through: false,
            ..SwitchSpec::paper()
        }
    }
}

/// Why a topology cannot be finalized into a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// The graph has no nodes at all.
    EmptyTopology,
    /// Some node cannot reach some other node.
    Disconnected {
        /// A node with no route…
        from: NodeId,
        /// …to this destination.
        to: NodeId,
    },
    /// The same unordered node pair was connected twice; parallel links
    /// would make shortest-path tie-breaking depend on insertion
    /// accidents, so they are rejected outright.
    DuplicateLink {
        /// One endpoint of the repeated pair.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A switch with zero connected ports: it can forward nothing and
    /// is always a spec bug.
    IsolatedSwitch(NodeId),
    /// A [`TopoSpec`] parameter is out of range (zero-radix fat tree,
    /// edge referencing an unknown node, …).
    BadSpec(&'static str),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopoError::EmptyTopology => write!(f, "topology has no nodes"),
            TopoError::Disconnected { from, to } => {
                write!(f, "topology is disconnected: {from} cannot reach {to}")
            }
            TopoError::DuplicateLink { a, b } => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopoError::IsolatedSwitch(s) => {
                write!(f, "switch {s} has zero connected ports")
            }
            TopoError::BadSpec(why) => write!(f, "bad topology spec: {why}"),
        }
    }
}

impl std::error::Error for TopoError {}

/// Builder for a cluster topology.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    switch_specs: Vec<Option<SwitchSpec>>,
    edges: Vec<(usize, usize, LinkConfig)>,
    hop_backpressure: bool,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    fn add_node(&mut self, kind: NodeKind, spec: Option<SwitchSpec>) -> NodeId {
        let id = NodeId(u16::try_from(self.kinds.len()).expect("node count fits u16"));
        self.kinds.push(kind);
        self.switch_specs.push(spec);
        id
    }

    /// Adds a host node.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host, None)
    }

    /// Adds a switch node.
    pub fn add_switch(&mut self, spec: SwitchSpec) -> NodeId {
        self.add_node(NodeKind::Switch, Some(spec))
    }

    /// Adds a TCA node.
    pub fn add_tca(&mut self) -> NodeId {
        self.add_node(NodeKind::Tca, None)
    }

    /// Connects two nodes with a full-duplex link (one [`Link`] per
    /// direction, both using `cfg`).
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> &mut Self {
        assert!((a.0 as usize) < self.kinds.len(), "unknown node {a}");
        assert!((b.0 as usize) < self.kinds.len(), "unknown node {b}");
        assert_ne!(a, b, "self-loop");
        self.edges.push((a.0 as usize, b.0 as usize, cfg));
        self
    }

    /// Selects the credit-drain model for multi-hop routes. `false`
    /// (the default, and the seed behavior every single-switch golden
    /// digest is pinned to) frees each hop's credit at that hop's own
    /// arrival; `true` chains the drain to the packet leaving the
    /// *next* hop, so congestion on a downstream link backpressures
    /// upstream senders hop by hop.
    pub fn set_hop_backpressure(&mut self, on: bool) -> &mut Self {
        self.hop_backpressure = on;
        self
    }

    /// Finalizes into a [`Fabric`], computing deterministic
    /// shortest-path routes (BFS per destination, neighbors visited in
    /// edge-insertion order).
    ///
    /// # Errors
    ///
    /// [`TopoError::EmptyTopology`] for a node-less graph,
    /// [`TopoError::DuplicateLink`] if an unordered node pair is
    /// connected twice, [`TopoError::IsolatedSwitch`] for a switch with
    /// no ports, and [`TopoError::Disconnected`] if any node cannot
    /// reach any other.
    pub fn try_build(self) -> Result<Fabric, TopoError> {
        let n = self.kinds.len();
        if n == 0 {
            return Err(TopoError::EmptyTopology);
        }
        let mut seen_pairs = BTreeSet::new();
        // adj[a] lists (b, link b→a) in edge-insertion order: the BFS
        // toward a destination needs the link back to the node it came
        // from, not the one it leaves on.
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut links = Vec::with_capacity(self.edges.len() * 2);
        for &(a, b, cfg) in &self.edges {
            if !seen_pairs.insert((a.min(b), a.max(b))) {
                return Err(TopoError::DuplicateLink {
                    a: NodeId(a as u16),
                    b: NodeId(b as u16),
                });
            }
            let ab = links.len();
            links.push(Link::new(cfg));
            let ba = links.len();
            links.push(Link::new(cfg));
            adj[a].push((b, ba));
            adj[b].push((a, ab));
        }
        if n > 1 {
            for (i, kind) in self.kinds.iter().enumerate() {
                if *kind == NodeKind::Switch && adj[i].is_empty() {
                    return Err(TopoError::IsolatedSwitch(NodeId(i as u16)));
                }
            }
        }
        // BFS from every destination fills its own contiguous row of the
        // dense next-hop table, `next_hop[dst * n + from] = (neighbor,
        // link)`; `NO_ROUTE` marks from == dst. 8 bytes per entry keeps
        // thousand-node fabrics in tens of megabytes.
        let mut next_hop = vec![NO_ROUTE; n * n];
        let mut visited = vec![false; n];
        let mut queue = Vec::with_capacity(n);
        for (dst, row) in next_hop.chunks_exact_mut(n).enumerate() {
            visited.fill(false);
            visited[dst] = true;
            queue.clear();
            queue.push(dst);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &(v, back) in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        // First hop from v toward dst goes to u.
                        row[v] = (u as u32, back as u32);
                        queue.push(v);
                    }
                }
            }
            if let Some(from) = visited.iter().position(|&seen| !seen) {
                return Err(TopoError::Disconnected {
                    from: NodeId(from as u16),
                    to: NodeId(dst as u16),
                });
            }
        }
        Ok(Fabric {
            kinds: self.kinds,
            switch_specs: self.switch_specs,
            links,
            next_hop,
            hop_backpressure: self.hop_backpressure,
            traffic: vec![Traffic::default(); n],
        })
    }

    /// Finalizes into a [`Fabric`], computing shortest-path routes.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`] — most commonly a disconnected graph
    /// (every node must reach every other node).
    pub fn build(self) -> Fabric {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// `next_hop` sentinel for "no route" (only ever `from == dst`).
const NO_ROUTE: (u32, u32) = (u32::MAX, u32::MAX);

/// A declarative topology: what to generate, plus the link/switch
/// parameters and credit-drain model to generate it with. `build`
/// returns both the [`Fabric`] and a [`TopoMap`] describing the shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSpec {
    kind: TopoKind,
    hop_backpressure: bool,
    switch: SwitchSpec,
    link: LinkConfig,
}

/// The topology families a [`TopoSpec`] can generate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TopoKind {
    /// All hosts and TCAs on one switch (the paper's §4 cluster).
    SingleSwitch { hosts: usize, tcas: usize },
    /// A fat tree of `radix`-port switches: `radix/2` hosts per leaf,
    /// `radix/2`-way aggregation per upper level, TCAs at the root.
    FatTree {
        radix: usize,
        hosts: usize,
        tcas: usize,
    },
    /// An explicit node/edge list (Clos meshes, irregular testbeds).
    Explicit {
        kinds: Vec<NodeKind>,
        edges: Vec<(u16, u16)>,
    },
}

impl TopoSpec {
    /// The paper's canonical cluster: `hosts` hosts and `tcas` TCAs on
    /// one switch. Node order: switch, hosts, TCAs (the seed order all
    /// single-switch golden digests are pinned to). Keeps the seed's
    /// endpoint-drain credit model — on a one-switch fabric the two
    /// models only differ on host→switch→host transits, and the pinned
    /// digests predate chained drains.
    pub fn single_switch(hosts: usize, tcas: usize) -> Self {
        TopoSpec {
            kind: TopoKind::SingleSwitch { hosts, tcas },
            hop_backpressure: false,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// A fat tree of `radix`-port switches: `radix/2` of each leaf's
    /// ports face hosts, and each level aggregates `radix/2`-way into
    /// the next until a single root remains; TCAs attach to the root.
    /// Node order: leaf switches, hosts, upper switch levels bottom-up,
    /// TCAs. Chained per-hop credit drains are on by default.
    pub fn fat_tree(radix: usize, hosts: usize, tcas: usize) -> Self {
        TopoSpec {
            kind: TopoKind::FatTree { radix, hosts, tcas },
            hop_backpressure: true,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// An explicit topology: `kinds[i]` is node `i`'s kind, `edges` are
    /// full-duplex links in insertion order. Needs at least one switch
    /// (the [`TopoMap`] root); hosts must attach directly to a switch.
    pub fn explicit(kinds: Vec<NodeKind>, edges: Vec<(u16, u16)>) -> Self {
        TopoSpec {
            kind: TopoKind::Explicit { kinds, edges },
            hop_backpressure: true,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// Reverts to the seed's endpoint-drain credit model (each hop's
    /// credit frees at that hop's own arrival). The legacy reduction
    /// tree is pinned to this; new fabrics should keep chained drains.
    pub fn endpoint_drain(mut self) -> Self {
        self.hop_backpressure = false;
        self
    }

    /// Replaces the switch parameters used for every generated switch.
    pub fn with_switch(mut self, spec: SwitchSpec) -> Self {
        self.switch = spec;
        self
    }

    /// Replaces the link parameters used for every generated link.
    pub fn with_link(mut self, cfg: LinkConfig) -> Self {
        self.link = cfg;
        self
    }

    /// Canonical label for bench/CI naming: `single-switch`,
    /// `fat-tree-r<radix>`, `explicit`.
    pub fn label(&self) -> String {
        match &self.kind {
            TopoKind::SingleSwitch { .. } => "single-switch".to_string(),
            TopoKind::FatTree { radix, .. } => format!("fat-tree-r{radix}"),
            TopoKind::Explicit { .. } => "explicit".to_string(),
        }
    }

    /// Generates the topology as a [`TopologyBuilder`] (for callers
    /// that need to finish wiring themselves) plus its [`TopoMap`].
    ///
    /// # Errors
    ///
    /// [`TopoError::BadSpec`] for out-of-range parameters (fat-tree
    /// radix below 4, explicit edges referencing unknown nodes, a host
    /// not attached to any switch, …).
    pub fn try_builder(&self) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        match &self.kind {
            TopoKind::SingleSwitch { hosts, tcas } => self.build_single(*hosts, *tcas),
            TopoKind::FatTree { radix, hosts, tcas } => self.build_fat_tree(*radix, *hosts, *tcas),
            TopoKind::Explicit { kinds, edges } => self.build_explicit(kinds, edges),
        }
    }

    /// [`Self::try_builder`], panicking on a bad spec.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`].
    pub fn builder(&self) -> (TopologyBuilder, TopoMap) {
        self.try_builder().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the topology and finalizes it into a routed
    /// [`Fabric`].
    ///
    /// # Errors
    ///
    /// Any [`TopoError`] from the spec or from route construction.
    pub fn try_build(&self) -> Result<(Fabric, TopoMap), TopoError> {
        let (b, map) = self.try_builder()?;
        Ok((b.try_build()?, map))
    }

    /// [`Self::try_build`], panicking on error.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`].
    pub fn build(&self) -> (Fabric, TopoMap) {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    fn build_single(
        &self,
        hosts: usize,
        tcas: usize,
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        let sw = b.add_switch(self.switch);
        let host_ids: Vec<NodeId> = (0..hosts).map(|_| b.add_host()).collect();
        let tca_ids: Vec<NodeId> = (0..tcas).map(|_| b.add_tca()).collect();
        for &h in &host_ids {
            b.connect(h, sw, self.link);
        }
        for &t in &tca_ids {
            b.connect(t, sw, self.link);
        }
        let map = TopoMap {
            host_leaf: vec![sw; hosts],
            hosts: host_ids,
            tcas: tca_ids,
            switches: vec![sw],
            parent: BTreeMap::new(),
            root: sw,
        };
        Ok((b, map))
    }

    fn build_fat_tree(
        &self,
        radix: usize,
        hosts: usize,
        tcas: usize,
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        if radix < 4 {
            // half = radix/2 must be >= 2 or the aggregation loop can
            // never converge to a single root.
            return Err(TopoError::BadSpec("fat-tree radix must be at least 4"));
        }
        if hosts == 0 {
            return Err(TopoError::BadSpec("fat-tree needs at least one host"));
        }
        let half = radix / 2;
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        let n_leaves = hosts.div_ceil(half);
        let leaves: Vec<NodeId> = (0..n_leaves).map(|_| b.add_switch(self.switch)).collect();
        let mut host_ids = Vec::with_capacity(hosts);
        let mut host_leaf = Vec::with_capacity(hosts);
        for i in 0..hosts {
            let h = b.add_host();
            let leaf = leaves[i / half];
            b.connect(h, leaf, self.link);
            host_ids.push(h);
            host_leaf.push(leaf);
        }
        // Build the switch tree upward, `half`-way aggregation per level.
        let mut parent = BTreeMap::new();
        let mut level = leaves.clone();
        let mut switches = leaves;
        while level.len() > 1 {
            let n_up = level.len().div_ceil(half);
            let ups: Vec<NodeId> = (0..n_up).map(|_| b.add_switch(self.switch)).collect();
            for (i, &sw) in level.iter().enumerate() {
                let up = ups[i / half];
                b.connect(sw, up, self.link);
                parent.insert(sw, up);
            }
            switches.extend(ups.iter().copied());
            level = ups;
        }
        let root = level[0];
        let tca_ids: Vec<NodeId> = (0..tcas).map(|_| b.add_tca()).collect();
        for &t in &tca_ids {
            b.connect(t, root, self.link);
        }
        let map = TopoMap {
            hosts: host_ids,
            tcas: tca_ids,
            switches,
            host_leaf,
            parent,
            root,
        };
        Ok((b, map))
    }

    fn build_explicit(
        &self,
        kinds: &[NodeKind],
        edges: &[(u16, u16)],
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        if kinds.is_empty() {
            return Err(TopoError::EmptyTopology);
        }
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        for k in kinds {
            match k {
                NodeKind::Host => b.add_host(),
                NodeKind::Switch => b.add_switch(self.switch),
                NodeKind::Tca => b.add_tca(),
            };
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); kinds.len()];
        for &(a, bn) in edges {
            let (ai, bi) = (a as usize, bn as usize);
            if ai >= kinds.len() || bi >= kinds.len() {
                return Err(TopoError::BadSpec("edge references unknown node"));
            }
            if ai == bi {
                return Err(TopoError::BadSpec("self-loop edge"));
            }
            adj[ai].push(bi);
            adj[bi].push(ai);
            b.connect(NodeId(a), NodeId(bn), self.link);
        }
        let mut hosts = Vec::new();
        let mut tcas = Vec::new();
        let mut switches = Vec::new();
        for (i, k) in kinds.iter().enumerate() {
            let id = NodeId(i as u16);
            match k {
                NodeKind::Host => hosts.push(id),
                NodeKind::Tca => tcas.push(id),
                NodeKind::Switch => switches.push(id),
            }
        }
        if switches.is_empty() {
            return Err(TopoError::BadSpec(
                "explicit topology needs at least one switch",
            ));
        }
        // Each host's leaf: its first switch neighbor, edge order.
        let mut host_leaf = Vec::with_capacity(hosts.len());
        for &h in &hosts {
            let leaf = adj[h.0 as usize]
                .iter()
                .copied()
                .find(|&nb| kinds[nb] == NodeKind::Switch)
                .ok_or(TopoError::BadSpec("host must attach directly to a switch"))?;
            host_leaf.push(NodeId(leaf as u16));
        }
        // Root: the switch with minimum eccentricity over hosts (ties
        // break to the lowest id) — the natural rendezvous for
        // root-placement policies on irregular graphs.
        let root = switches
            .iter()
            .copied()
            .map(|s| (eccentricity(&adj, s.0 as usize, &hosts), s))
            .min_by_key(|&(ecc, s)| (ecc, s.0))
            .map(|(_, s)| s)
            .expect("at least one switch");
        // Parent chains: BFS over the switch-only subgraph from the
        // root, neighbors in edge order. Switches only reachable
        // through a host keep no parent (they are their own apex).
        let mut parent = BTreeMap::new();
        let mut visited = vec![false; kinds.len()];
        visited[root.0 as usize] = true;
        let mut q = VecDeque::from([root.0 as usize]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if kinds[v] == NodeKind::Switch && !visited[v] {
                    visited[v] = true;
                    parent.insert(NodeId(v as u16), NodeId(u as u16));
                    q.push_back(v);
                }
            }
        }
        Ok((
            b,
            TopoMap {
                hosts,
                tcas,
                switches,
                host_leaf,
                parent,
                root,
            },
        ))
    }
}

/// Max BFS distance from `start` to any of `targets` (`usize::MAX` when
/// some target is unreachable).
fn eccentricity(adj: &[Vec<usize>], start: usize, targets: &[NodeId]) -> usize {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[start] = 0;
    let mut q = VecDeque::from([start]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    targets
        .iter()
        .map(|t| dist[t.0 as usize])
        .max()
        .unwrap_or(0)
}

/// Structure of a [`TopoSpec`]-generated topology, for layers that
/// place computation on it (handler placement, aggregation trees)
/// without re-deriving the shape from raw routes.
#[derive(Debug, Clone)]
pub struct TopoMap {
    /// Host node ids, in creation order.
    pub hosts: Vec<NodeId>,
    /// TCA node ids, in creation order.
    pub tcas: Vec<NodeId>,
    /// All switch ids, leaves first then upper levels bottom-up.
    pub switches: Vec<NodeId>,
    /// `host_leaf[i]` is the switch `hosts[i]` attaches to.
    pub host_leaf: Vec<NodeId>,
    /// Each non-root switch's parent in the aggregation tree.
    pub parent: BTreeMap<NodeId, NodeId>,
    /// The apex switch (single switch: the switch; fat tree: the top of
    /// the tree; explicit: minimum host eccentricity, ties to lowest id).
    pub root: NodeId,
}

impl TopoMap {
    /// The leaf switch `host` attaches to, if `host` is a known host.
    pub fn leaf_of(&self, host: NodeId) -> Option<NodeId> {
        self.hosts
            .iter()
            .position(|&h| h == host)
            .map(|i| self.host_leaf[i])
    }

    /// The parent chain from `sw` (inclusive) to its apex (the root, or
    /// the last switch with a recorded parent).
    pub fn chain_to_root(&self, sw: NodeId) -> Vec<NodeId> {
        let mut chain = vec![sw];
        let mut cur = sw;
        while let Some(&up) = self.parent.get(&cur) {
            chain.push(up);
            cur = up;
        }
        chain
    }

    /// The distinct leaf switches hosts attach to, ascending.
    pub fn leaves(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.host_leaf.iter().copied().collect();
        set.into_iter().collect()
    }
}

/// One link traversal of a packet's route, as recorded by
/// [`Fabric::transmit_recorded`] for the flight recorder: which link
/// carried the bytes, between which nodes, how long the send waited
/// before the link accepted it, and the exact wire occupancy window.
///
/// Recording is observation-only — the timings are the ones the
/// ordinary [`Fabric::transmit`] computes; a recorded transmit is
/// bit-identical to an unrecorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Index of the link direction that carried the packet (stable for
    /// a given topology: links are numbered in edge-insertion order,
    /// two directions per edge).
    pub link: u32,
    /// The sending node of this hop.
    pub from: NodeId,
    /// The receiving node of this hop.
    pub to: NodeId,
    /// How long the send waited after the data was ready at this hop
    /// before the first byte left — credit stalls, a busy wire, or an
    /// outage deferral.
    pub wait: SimDuration,
    /// When the first byte left the sender.
    pub start: SimTime,
    /// When serialization finished (the wire freed; excludes
    /// propagation).
    pub busy_until: SimTime,
    /// When the last byte arrived at the receiver.
    pub done: SimTime,
}

/// Result of injecting one packet into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the header is available at the destination (active dispatch
    /// may begin).
    pub header_at: SimTime,
    /// When the first payload byte is available at the destination.
    pub payload_start: SimTime,
    /// When the last byte arrived.
    pub arrival: SimTime,
    /// Number of links traversed.
    pub hops: usize,
}

impl Delivery {
    /// Arrival time of payload byte `k` of a `len`-byte payload,
    /// linearly interpolated over the final-link serialization.
    pub fn byte_at(&self, k: u64, len: u64) -> SimTime {
        if len == 0 {
            return self.arrival;
        }
        let span = self.arrival.since(self.payload_start).as_ps();
        let frac = (span as u128 * (k.min(len) as u128)) / (len as u128);
        self.payload_start + SimDuration::from_ps(frac as u64)
    }
}

/// The switched fabric: links, routes, and per-node traffic accounting.
///
/// The first four fields are static configuration: they are fixed by
/// the [`TopologyBuilder`]/[`TopoSpec`] that produced this fabric and
/// never change during a run, so its [`Snap`](asan_sim::snap::Snap)
/// declaration marks them `static` — a restoring process rebuilds the
/// identical topology from the same spec before loading (which verifies
/// the link and node counts match). Only the link occupancy and traffic
/// counters below are dynamic state.
#[derive(Debug)]
pub struct Fabric {
    kinds: Vec<NodeKind>,
    switch_specs: Vec<Option<SwitchSpec>>,
    links: Vec<Link>,
    /// `next_hop[dst * n + from] = (neighbor node, link index)`, dense,
    /// destination-major (one BFS row per destination), [`NO_ROUTE`] on
    /// the diagonal.
    next_hop: Vec<(u32, u32)>,
    /// Credit-drain model (see [`TopologyBuilder::set_hop_backpressure`]).
    hop_backpressure: bool,
    traffic: Vec<Traffic>,
}

impl Fabric {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// Whether multi-hop routes chain credit drains to the downstream
    /// hop (see [`TopologyBuilder::set_hop_backpressure`]).
    pub fn hop_backpressure(&self) -> bool {
        self.hop_backpressure
    }

    /// Bytes in/out observed at `node`'s network interface.
    pub fn traffic(&self, node: NodeId) -> Traffic {
        self.traffic[node.0 as usize]
    }

    /// The routing-table entry `(neighbor, link)` for the first hop
    /// from `from` toward `dst`; `None` when `from == dst`.
    #[inline]
    fn route(&self, from: usize, dst: usize) -> Option<(usize, usize)> {
        let (nb, link) = self.next_hop[dst * self.kinds.len() + from];
        if nb == u32::MAX {
            None
        } else {
            Some((nb as usize, link as usize))
        }
    }

    /// Number of hops on the route from `src` to `dst` (0 if equal).
    pub fn path_len(&self, src: NodeId, dst: NodeId) -> usize {
        let mut cur = src.0 as usize;
        let dst = dst.0 as usize;
        let mut hops = 0;
        while cur != dst {
            let (nb, _) = self.route(cur, dst).expect("connected");
            cur = nb;
            hops += 1;
        }
        hops
    }

    /// Builds the flight-recorder record for one link traversal.
    /// `entry_ready` is the instant the data was ready to go out on
    /// this hop (routing latency already applied), i.e. the `ready`
    /// value handed to [`Link::send`].
    fn hop_record(
        &self,
        link_idx: usize,
        from: usize,
        to: usize,
        entry_ready: SimTime,
        timing: LinkTiming,
    ) -> Hop {
        // `done` includes propagation; the wire itself frees when
        // serialization ends.
        let busy_until = timing.done - self.links[link_idx].config().propagation;
        Hop {
            link: link_idx as u32,
            from: NodeId(from as u16),
            to: NodeId(to as u16),
            wait: timing.start.since(entry_ready),
            start: timing.start,
            busy_until,
            done: timing.done,
        }
    }

    /// Injects a packet of `wire_bytes` from `src` to `dst`, with the
    /// data ready at the source NIC at `ready`. Returns delivery timing
    /// and records traffic at both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn transmit(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
    ) -> Delivery {
        self.transmit_recorded(wire_bytes, src, dst, ready, None)
    }

    /// [`Fabric::transmit`], additionally appending one [`Hop`] record
    /// per link traversal to `hops_out` (when given). Recording is
    /// purely observational: the returned [`Delivery`] and all link
    /// state mutations are bit-identical to an unrecorded transmit.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn transmit_recorded(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        mut hops_out: Option<&mut Vec<Hop>>,
    ) -> Delivery {
        assert_ne!(src, dst, "transmit to self");
        if self.hop_backpressure {
            return self.transmit_chained(wire_bytes, src, dst, ready, hops_out);
        }
        let dst_idx = dst.0 as usize;
        let mut cur = src.0 as usize;
        let mut header_ready = ready;
        let mut hops = 0;
        let mut last_timing: Option<LinkTiming> = None;
        while cur != dst_idx {
            let (nb, link_idx) = self.route(cur, dst_idx).expect("connected");
            // Intermediate switches add their routing latency before the
            // header can go out; endpoints inject directly. A
            // store-and-forward switch additionally waits for the whole
            // packet before routing it.
            if hops > 0 {
                if let Some(spec) = self.switch_specs[cur] {
                    if !spec.cut_through {
                        header_ready = last_timing.expect("hop > 0").done;
                    }
                    header_ready += spec.routing_latency;
                }
            }
            let timing = self.links[link_idx].send(wire_bytes, header_ready);
            // Endpoint-drain model (seed behavior): the receiver's input
            // buffer frees at the packet's own arrival on this hop.
            self.links[link_idx].note_drain(timing.done);
            if let Some(out) = hops_out.as_deref_mut() {
                out.push(self.hop_record(link_idx, cur, nb, header_ready, timing));
            }
            header_ready = timing.header_at;
            last_timing = Some(timing);
            cur = nb;
            hops += 1;
        }
        let t = last_timing.expect("at least one hop");
        self.traffic[src.0 as usize].record_out(wire_bytes);
        self.traffic[dst_idx].record_in(wire_bytes);
        Delivery {
            header_at: t.header_at,
            payload_start: t.header_at,
            arrival: t.done,
            hops,
        }
    }

    /// Multi-hop transmit with chained credit drains: hop `i`'s credit
    /// (the downstream switch's input buffer) is held until the packet
    /// has fully left hop `i + 1`, so a congested downstream link
    /// backpressures every upstream link on the path. The final hop
    /// drains at the endpoint's own arrival, as before.
    fn transmit_chained(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        mut hops_out: Option<&mut Vec<Hop>>,
    ) -> Delivery {
        let dst_idx = dst.0 as usize;
        let mut cur = src.0 as usize;
        let mut header_ready = ready;
        let mut path: Vec<(usize, LinkTiming)> = Vec::with_capacity(8);
        while cur != dst_idx {
            let (nb, link_idx) = self.route(cur, dst_idx).expect("connected");
            if !path.is_empty() {
                if let Some(spec) = self.switch_specs[cur] {
                    if !spec.cut_through {
                        header_ready = path.last().expect("hop > 0").1.done;
                    }
                    header_ready += spec.routing_latency;
                }
            }
            let timing = self.links[link_idx].send(wire_bytes, header_ready);
            if let Some(out) = hops_out.as_deref_mut() {
                out.push(self.hop_record(link_idx, cur, nb, header_ready, timing));
            }
            header_ready = timing.header_at;
            path.push((link_idx, timing));
            cur = nb;
        }
        // Shortest paths never revisit a link, so noting every drain
        // after the walk is equivalent to noting each as soon as its
        // drain time is known.
        for i in 0..path.len() {
            let drain = if i + 1 < path.len() {
                path[i + 1].1.done
            } else {
                path[i].1.done
            };
            self.links[path[i].0].note_drain(drain);
        }
        let t = path.last().expect("at least one hop").1;
        self.traffic[src.0 as usize].record_out(wire_bytes);
        self.traffic[dst_idx].record_in(wire_bytes);
        Delivery {
            header_at: t.header_at,
            payload_start: t.header_at,
            arrival: t.done,
            hops: path.len(),
        }
    }

    /// Total bytes carried by all links (each hop counts).
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(Link::bytes_carried).sum()
    }

    /// Total credit stalls across all links.
    pub fn total_credit_stalls(&self) -> u64 {
        self.links.iter().map(Link::credit_stalls).sum()
    }

    /// The distribution of credit-stall durations, merged over every
    /// link direction in the fabric.
    pub fn credit_stall_histogram(&self) -> asan_sim::hist::LogHistogram {
        let mut h = asan_sim::hist::LogHistogram::new();
        for l in &self.links {
            h.merge(l.credit_stall_hist());
        }
        h
    }

    /// Injects a transient link-down window `[from, until)` on every
    /// link in the fabric (a fabric-wide brown-out; see
    /// [`Link::inject_outage`]).
    pub fn inject_outage(&mut self, from: SimTime, until: SimTime) {
        for l in &mut self.links {
            l.inject_outage(from, until);
        }
    }

    /// Tightens the credit limit on every link (models receivers
    /// advertising fewer buffers; see [`Link::restrict_credits`]).
    pub fn restrict_credits(&mut self, credits: usize) {
        for l in &mut self.links {
            l.restrict_credits(credits);
        }
    }

    /// Total sends deferred by injected outage windows, across links.
    pub fn total_outage_deferrals(&self) -> u64 {
        self.links.iter().map(Link::outage_deferrals).sum()
    }
}

// Every link direction (wire occupancy, credits, in-flight drains,
// counters) and per-node traffic accounting. The topology itself
// (kinds, routes, drain model) is static and rebuilt by the caller.
snap_fields! {
    Fabric {
        "fabric", fixed links, fixed traffic, static kinds, static switch_specs, static next_hop,
        static hop_backpressure,
    }
}

/// Convenience: the paper's canonical single-switch cluster — `hosts`
/// host nodes and `tcas` TCA nodes all attached to one switch. Returns
/// `(fabric, host_ids, tca_ids, switch_id)`.
pub fn single_switch_cluster(
    hosts: usize,
    tcas: usize,
) -> (Fabric, Vec<NodeId>, Vec<NodeId>, NodeId) {
    let (fabric, map) = TopoSpec::single_switch(hosts, tcas).build();
    (fabric, map.hosts, map.tcas, map.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn single_switch_paths() {
        let (f, hosts, tcas, sw) = single_switch_cluster(2, 1);
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.path_len(hosts[0], hosts[1]), 2);
        assert_eq!(f.path_len(hosts[0], sw), 1);
        assert_eq!(f.path_len(tcas[0], hosts[0]), 2);
        assert_eq!(f.kind(sw), NodeKind::Switch);
        assert_eq!(f.kind(hosts[0]), NodeKind::Host);
        assert_eq!(f.kind(tcas[0]), NodeKind::Tca);
        assert!(!f.hop_backpressure());
    }

    #[test]
    fn one_hop_delivery_timing() {
        let (mut f, hosts, _, sw) = single_switch_cluster(2, 1);
        let d = f.transmit(528, hosts[0], sw, SimTime::ZERO);
        assert_eq!(d.hops, 1);
        assert_eq!(d.arrival.as_ns(), 538); // 528 ns serialization + 10 ns prop
        assert_eq!(d.header_at.as_ns(), 26);
    }

    #[test]
    fn two_hop_delivery_adds_routing_latency() {
        let (mut f, hosts, _, _) = single_switch_cluster(2, 1);
        let d = f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        assert_eq!(d.hops, 2);
        // Hop 1 header at 26 ns; +100 ns routing; hop 2: 528 ns ser +10 prop.
        assert_eq!(d.arrival.as_ns(), 26 + 100 + 528 + 10);
    }

    #[test]
    fn recorded_transmit_reports_hops_without_changing_delivery() {
        let (mut f, hosts, _, sw) = single_switch_cluster(2, 1);
        let (mut g, ghosts, _, _) = single_switch_cluster(2, 1);
        let mut hops = Vec::new();
        let d = f.transmit_recorded(528, hosts[0], hosts[1], SimTime::ZERO, Some(&mut hops));
        let plain = g.transmit(528, ghosts[0], ghosts[1], SimTime::ZERO);
        assert_eq!(d, plain, "recording must not perturb timing");
        assert_eq!(hops.len(), d.hops);
        // Hop 1: host0 → switch, wire busy for the 528 ns serialization,
        // arrival 10 ns of propagation later.
        assert_eq!(hops[0].from, hosts[0]);
        assert_eq!(hops[0].to, sw);
        assert_eq!(hops[0].wait, SimDuration::ZERO);
        assert_eq!(hops[0].start, SimTime::ZERO);
        assert_eq!(hops[0].busy_until.as_ns(), 528);
        assert_eq!(hops[0].done.as_ns(), 538);
        // Hop 2: cut-through switch forwards the header (26 ns) plus
        // 100 ns routing latency before the next wire starts.
        assert_eq!(hops[1].from, sw);
        assert_eq!(hops[1].to, hosts[1]);
        assert_eq!(hops[1].start.as_ns(), 126);
        assert_eq!(hops[1].busy_until.as_ns(), 126 + 528);
        assert_eq!(hops[1].done.as_ns(), 126 + 538);
        assert_ne!(hops[0].link, hops[1].link);
        assert_eq!(hops[1].done, d.arrival);
    }

    #[test]
    fn recorded_transmit_covers_chained_routes_and_stalls() {
        let spec = TopoSpec::fat_tree(4, 4, 0).with_link(LinkConfig {
            credits: 1,
            ..LinkConfig::paper()
        });
        let (mut f, map) = spec.build();
        assert!(f.hop_backpressure());
        let mut hops = Vec::new();
        let d = f.transmit_recorded(
            4096,
            map.hosts[0],
            map.hosts[3],
            SimTime::ZERO,
            Some(&mut hops),
        );
        assert_eq!(hops.len(), d.hops);
        assert!(d.hops >= 3);
        // Back-to-back send on the same route stalls on the
        // single-credit links; the recorded wait is the stall.
        let mut second = Vec::new();
        f.transmit_recorded(
            4096,
            map.hosts[0],
            map.hosts[3],
            SimTime::ZERO,
            Some(&mut second),
        );
        assert!(
            second[0].wait > SimDuration::ZERO,
            "expected a credit stall"
        );
        assert_eq!(second[0].start, SimTime::ZERO + second[0].wait);
    }

    #[test]
    fn chained_drains_do_not_change_uncontended_timing() {
        let spec = TopoSpec::fat_tree(4, 4, 0);
        let (mut bp, map) = spec.build();
        let (mut legacy, _) = spec.clone().endpoint_drain().build();
        assert!(bp.hop_backpressure());
        assert!(!legacy.hop_backpressure());
        let (a, b) = (map.hosts[0], map.hosts[3]);
        let d1 = bp.transmit(528, a, b, SimTime::ZERO);
        let d2 = legacy.transmit(528, a, b, SimTime::ZERO);
        assert_eq!(d1, d2);
        assert!(d1.hops >= 3, "cross-leaf route, got {} hops", d1.hops);
    }

    #[test]
    fn chained_drains_backpressure_upstream_links() {
        // Two hosts fan into one leaf whose uplinks are the bottleneck:
        // with single-credit links, a send stalls on the previous
        // packet's drain. Chained drains release an upstream credit
        // only when the packet leaves the *downstream* hop, so stalls
        // last longer and the burst finishes later than under the
        // seed's endpoint-drain model.
        let run = |chained: bool| {
            let mut spec = TopoSpec::fat_tree(4, 4, 0).with_link(LinkConfig {
                credits: 1,
                ..LinkConfig::paper()
            });
            if !chained {
                spec = spec.endpoint_drain();
            }
            let (mut f, map) = spec.build();
            let dst = map.hosts[3]; // other leaf: all routes share uplinks
            let mut last = SimTime::ZERO;
            for _ in 0..4 {
                let a = f.transmit(4096, map.hosts[0], dst, SimTime::ZERO).arrival;
                let b = f.transmit(4096, map.hosts[1], dst, SimTime::ZERO).arrival;
                last = last.max(a).max(b);
            }
            (f.total_credit_stalls(), last)
        };
        let (chained_stalls, chained_last) = run(true);
        let (endpoint_stalls, endpoint_last) = run(false);
        assert!(chained_stalls > 0 && endpoint_stalls > 0);
        assert!(
            chained_last > endpoint_last,
            "chained burst {chained_last} should outlast endpoint burst {endpoint_last}"
        );
    }

    #[test]
    fn traffic_recorded_at_endpoints_only() {
        let (mut f, hosts, _, _) = single_switch_cluster(2, 1);
        f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        assert_eq!(f.traffic(hosts[0]).bytes_out, 528);
        assert_eq!(f.traffic(hosts[1]).bytes_in, 528);
        assert_eq!(f.traffic(hosts[0]).bytes_in, 0);
        // Both hops carried the bytes.
        assert_eq!(f.total_link_bytes(), 2 * 528);
    }

    #[test]
    fn contention_on_shared_output_port() {
        let (mut f, hosts, tcas, _) = single_switch_cluster(2, 1);
        // Host0 and TCA0 both send to host1 at t=0: the second packet
        // serializes after the first on the switch→host1 link.
        let a = f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        let b = f.transmit(528, tcas[0], hosts[1], SimTime::ZERO);
        assert!(b.arrival > a.arrival);
        assert_eq!(b.arrival.since(a.arrival).as_ns(), 528);
    }

    #[test]
    fn byte_at_interpolates() {
        let (mut f, hosts, _, sw) = single_switch_cluster(1, 0);
        let d = f.transmit(528, hosts[0], sw, SimTime::ZERO);
        assert_eq!(d.byte_at(0, 512), d.payload_start);
        assert_eq!(d.byte_at(512, 512), d.arrival);
        let mid = d.byte_at(256, 512);
        assert!(mid > d.payload_start && mid < d.arrival);
    }

    #[test]
    fn multi_switch_tree_routes() {
        // Two leaf switches under a root, a host on each leaf.
        let mut b = TopologyBuilder::new();
        let root = b.add_switch(SwitchSpec::paper());
        let l1 = b.add_switch(SwitchSpec::paper());
        let l2 = b.add_switch(SwitchSpec::paper());
        let h1 = b.add_host();
        let h2 = b.add_host();
        b.connect(l1, root, LinkConfig::paper());
        b.connect(l2, root, LinkConfig::paper());
        b.connect(h1, l1, LinkConfig::paper());
        b.connect(h2, l2, LinkConfig::paper());
        let mut f = b.build();
        assert_eq!(f.path_len(h1, h2), 4);
        let d = f.transmit(528, h1, h2, SimTime::ZERO);
        assert_eq!(d.hops, 4);
        // Three intermediate switches each add 100 ns.
        assert_eq!(d.arrival.as_ns(), 26 + 100 + 26 + 100 + 26 + 100 + 528 + 10);
    }

    #[test]
    fn store_and_forward_is_slower_than_cut_through() {
        let build = |spec: SwitchSpec| {
            let mut b = TopologyBuilder::new();
            let s1 = b.add_switch(spec);
            let s2 = b.add_switch(spec);
            let h1 = b.add_host();
            let h2 = b.add_host();
            b.connect(h1, s1, LinkConfig::paper());
            b.connect(s1, s2, LinkConfig::paper());
            b.connect(h2, s2, LinkConfig::paper());
            let mut f = b.build();
            f.transmit(528, h1, h2, SimTime::ZERO).arrival
        };
        let ct = build(SwitchSpec::paper());
        let sf = build(SwitchSpec::store_and_forward());
        // Store-and-forward pays the full serialization per hop.
        assert!(sf > ct, "store-and-forward {sf} <= cut-through {ct}");
        assert!(sf.since(ct).as_ns() >= 900, "diff = {}", sf.since(ct));
    }

    #[test]
    fn fabric_snapshot_preserves_contention_state() {
        let (mut f, hosts, tcas, _) = single_switch_cluster(2, 1);
        // Load the switch→host1 output port so future sends contend.
        f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        f.transmit(528, tcas[0], hosts[1], SimTime::ZERO);

        let mut w = SnapWriter::new();
        f.save(&mut w);
        let bytes = w.into_bytes();
        let (mut back, ..) = single_switch_cluster(2, 1);
        let mut r = SnapReader::new(&bytes).unwrap();
        back.load(&mut r).unwrap();
        r.finish().unwrap();

        // Same occupancy: the next packet sees identical queueing.
        let a = f.transmit(528, hosts[0], hosts[1], SimTime::from_ns(100));
        let b = back.transmit(528, hosts[0], hosts[1], SimTime::from_ns(100));
        assert_eq!(a, b);
        assert_eq!(back.total_link_bytes(), f.total_link_bytes());
        assert_eq!(back.traffic(hosts[1]), f.traffic(hosts[1]));
        // Mismatched topology fails loudly.
        let (mut wrong, ..) = single_switch_cluster(3, 1);
        let mut r2 = SnapReader::new(&bytes).unwrap();
        assert!(wrong.load(&mut r2).is_err());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_topology_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_host();
        b.add_host();
        b.build();
    }

    #[test]
    #[should_panic(expected = "transmit to self")]
    fn self_transmit_rejected() {
        let (mut f, hosts, _, _) = single_switch_cluster(1, 1);
        f.transmit(16, hosts[0], hosts[0], SimTime::ZERO);
    }

    #[test]
    fn try_build_reports_each_error() {
        assert_eq!(
            TopologyBuilder::new().try_build().unwrap_err(),
            TopoError::EmptyTopology
        );

        let mut disc = TopologyBuilder::new();
        let a = disc.add_host();
        let b = disc.add_host();
        let err = disc.try_build().unwrap_err();
        // BFS runs destination 0 first, so node 1's missing route to
        // node 0 is reported.
        assert_eq!(err, TopoError::Disconnected { from: b, to: a });
        assert!(err.to_string().contains("disconnected"));

        let mut dup = TopologyBuilder::new();
        let sw = dup.add_switch(SwitchSpec::paper());
        let h = dup.add_host();
        dup.connect(h, sw, LinkConfig::paper());
        dup.connect(sw, h, LinkConfig::paper()); // same pair, reversed
        assert_eq!(
            dup.try_build().unwrap_err(),
            TopoError::DuplicateLink { a: sw, b: h }
        );

        let mut iso = TopologyBuilder::new();
        let s1 = iso.add_switch(SwitchSpec::paper());
        let h1 = iso.add_host();
        let s2 = iso.add_switch(SwitchSpec::paper()); // zero ports
        iso.connect(h1, s1, LinkConfig::paper());
        assert_eq!(iso.try_build().unwrap_err(), TopoError::IsolatedSwitch(s2));
    }

    /// The original route construction, kept as an oracle: one BFS per
    /// destination with a fresh queue, filling a source-major table
    /// (`[from * n + dst]`) and finding each back link by scanning the
    /// discovered node's adjacency.
    fn reference_routes(b: &TopologyBuilder) -> Result<Vec<(u32, u32)>, TopoError> {
        let n = b.kinds.len();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, &(a, bn, _)) in b.edges.iter().enumerate() {
            adj[a].push((bn, 2 * i));
            adj[bn].push((a, 2 * i + 1));
        }
        let mut next_hop = vec![NO_ROUTE; n * n];
        for dst in 0..n {
            let mut visited = vec![false; n];
            let mut q = VecDeque::new();
            visited[dst] = true;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                for &(v, _) in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        let link = adj[v]
                            .iter()
                            .find(|&&(nb, _)| nb == u)
                            .map(|&(_, l)| l)
                            .expect("symmetric adjacency");
                        next_hop[v * n + dst] = (u as u32, link as u32);
                        q.push_back(v);
                    }
                }
            }
            for v in 0..n {
                if v != dst && next_hop[v * n + dst] == NO_ROUTE {
                    return Err(TopoError::Disconnected {
                        from: NodeId(v as u16),
                        to: NodeId(dst as u16),
                    });
                }
            }
        }
        Ok(next_hop)
    }

    /// Builds `make()` twice, once through `try_build` and once through
    /// the oracle, and checks every `(from, dst)` entry (or the error)
    /// agrees.
    fn assert_routes_match_reference(name: &str, make: impl Fn() -> TopologyBuilder) {
        let expected = reference_routes(&make());
        let (f, table) = match (make().try_build(), expected) {
            (Ok(f), Ok(table)) => (f, table),
            (got, want) => {
                assert_eq!(got.map(|_| ()), want.map(|_| ()), "{name}");
                return;
            }
        };
        let n = f.num_nodes();
        for from in 0..n {
            for dst in 0..n {
                let want = table[from * n + dst];
                let want = (want != NO_ROUTE).then_some((want.0 as usize, want.1 as usize));
                assert_eq!(f.route(from, dst), want, "{name}: {from} -> {dst}");
            }
        }
    }

    #[test]
    fn routes_match_source_major_reference() {
        let spec_builder = |spec: TopoSpec| move || spec.builder().0;
        assert_routes_match_reference(
            "single-switch",
            spec_builder(TopoSpec::single_switch(16, 3)),
        );
        for (radix, hosts, tcas) in [(4, 13, 2), (8, 64, 1), (16, 200, 2), (16, 1024, 1)] {
            assert_routes_match_reference(
                &format!("fat-tree r{radix} h{hosts}"),
                spec_builder(TopoSpec::fat_tree(radix, hosts, tcas)),
            );
        }
        // An irregular mesh: a switch ring with chords, so many
        // destinations have equal-length paths and the tie-break decides.
        use NodeKind::{Host, Switch, Tca};
        let mut kinds = vec![Switch; 6];
        kinds.extend([Host, Host, Host, Host, Tca, Host]);
        let edges = vec![
            (0, 1),
            (2, 1),
            (2, 3),
            (3, 4),
            (5, 4),
            (5, 0),
            (0, 3),
            (4, 1),
            (6, 0),
            (2, 7),
            (8, 3),
            (9, 5),
            (4, 10),
            (11, 2),
            (11, 4),
        ];
        assert_routes_match_reference(
            "explicit mesh",
            spec_builder(TopoSpec::explicit(kinds, edges)),
        );
    }

    #[test]
    fn disconnected_pair_matches_reference() {
        let islands = |links: &'static [(u16, u16)]| {
            move || {
                let mut b = TopologyBuilder::new();
                for i in 0..6 {
                    if i % 3 == 0 {
                        b.add_switch(SwitchSpec::paper());
                    } else {
                        b.add_host();
                    }
                }
                for &(x, y) in links {
                    b.connect(NodeId(x), NodeId(y), LinkConfig::paper());
                }
                b
            }
        };
        // Two islands {0,1,2} and {3,4,5}: node 3 cannot reach 0.
        assert_routes_match_reference("two islands", islands(&[(1, 0), (0, 2), (3, 4), (5, 3)]));
        // Only the last host is cut off: it is the first `from` found.
        assert_routes_match_reference("stray host", islands(&[(0, 1), (0, 2), (0, 3), (3, 4)]));
        // Everything reaches node 0 except via a second component that
        // node 0 cannot see: the first destination with a gap wins.
        let err = islands(&[(0, 1), (0, 2), (3, 4), (3, 5)])().try_build();
        assert_eq!(
            err.unwrap_err(),
            TopoError::Disconnected {
                from: NodeId(3),
                to: NodeId(0)
            }
        );
    }

    #[test]
    fn spec_single_switch_matches_hand_built_cluster() {
        let (f, map) = TopoSpec::single_switch(3, 2).build();
        assert_eq!(f.num_nodes(), 6);
        assert_eq!(map.hosts.len(), 3);
        assert_eq!(map.tcas.len(), 2);
        assert_eq!(map.switches, vec![map.root]);
        assert_eq!(map.root, NodeId(0)); // seed order: switch first
        assert_eq!(map.hosts[0], NodeId(1));
        assert!(map.parent.is_empty());
        assert_eq!(map.leaf_of(map.hosts[2]), Some(map.root));
        assert_eq!(map.leaves(), vec![map.root]);
    }

    #[test]
    fn spec_fat_tree_shapes_and_parents() {
        // 20 hosts, radix 8 → half = 4: 5 leaves, then 2 mids, then root.
        let (f, map) = TopoSpec::fat_tree(8, 20, 1).build();
        assert_eq!(map.hosts.len(), 20);
        assert_eq!(map.switches.len(), 5 + 2 + 1);
        assert_eq!(map.tcas.len(), 1);
        assert_eq!(f.num_nodes(), 20 + 8 + 1);
        // Every leaf chains to the root.
        for &h in &map.hosts {
            let leaf = map.leaf_of(h).unwrap();
            assert_eq!(*map.chain_to_root(leaf).last().unwrap(), map.root);
        }
        assert_eq!(map.leaves().len(), 5);
        // TCAs hang off the root.
        assert_eq!(f.path_len(map.tcas[0], map.root), 1);
        // Hosts on the same leaf are two hops apart; the tree is
        // deeper across leaves.
        assert_eq!(f.path_len(map.hosts[0], map.hosts[1]), 2);
        assert!(f.path_len(map.hosts[0], map.hosts[19]) > 2);
    }

    #[test]
    fn spec_explicit_roots_and_errors() {
        use NodeKind::{Host, Switch};
        // h0 - s1 - s2 - h3: both switches are candidates; s1 wins the
        // eccentricity tie-break by id.
        let spec = TopoSpec::explicit(
            vec![Host, Switch, Switch, Host],
            vec![(0, 1), (1, 2), (2, 3)],
        );
        let (_, map) = spec.build();
        assert_eq!(map.root, NodeId(1));
        assert_eq!(map.host_leaf, vec![NodeId(1), NodeId(2)]);
        assert_eq!(map.parent.get(&NodeId(2)), Some(&NodeId(1)));

        let bad = TopoSpec::explicit(vec![Host, Switch], vec![(0, 7)]);
        assert!(matches!(bad.try_build(), Err(TopoError::BadSpec(_))));
        let no_switch = TopoSpec::explicit(vec![Host, Host], vec![(0, 1)]);
        assert!(matches!(no_switch.try_build(), Err(TopoError::BadSpec(_))));
        assert!(matches!(
            TopoSpec::fat_tree(1, 8, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
        // Radix 2 gives half = 1: no aggregation, the tree can never
        // converge to a root — must be rejected, not loop forever.
        assert!(matches!(
            TopoSpec::fat_tree(2, 8, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
        assert!(matches!(
            TopoSpec::fat_tree(8, 0, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
    }

    #[test]
    fn spec_labels_are_canonical() {
        assert_eq!(TopoSpec::single_switch(2, 1).label(), "single-switch");
        assert_eq!(TopoSpec::fat_tree(4, 64, 0).label(), "fat-tree-r4");
        assert_eq!(
            TopoSpec::explicit(vec![NodeKind::Switch], vec![]).label(),
            "explicit"
        );
    }
}
