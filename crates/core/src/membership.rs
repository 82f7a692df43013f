//! The node's one liveness table.
//!
//! Everything §3.5 does — a receiver re-pulls, a reduce tree restarts, a directory
//! backup takes over — starts from one fact: *node k, incarnation i, is dead / is
//! back*. A node holds that fact here and nowhere else: per peer, the highest
//! **incarnation** heard of (bumped each time the process restarts), what is believed
//! about it — [`GossipState::Alive`], `Suspect` (with the time the suspicion started)
//! or `Dead`, the states gossip carries on the wire — and whether that incarnation is
//! **readmitted**, caught up with the directory replicas it hosts. Dead is failed;
//! alive and not readmitted is resyncing (shipped to, not a primary candidate), as is
//! this node itself from the start of its post-restart resync to its last stream;
//! alive and readmitted is healthy. An incarnation back from the dead is readmitted
//! only by its `DirResynced`; a newer one heard of while the old one was believed
//! alive (a refuted suspicion) keeps the old one's readmission, until its own
//! restart-flagged resync request says it is not caught up: then it restarted, and
//! the crash was slept through.
//!
//! **One table, three writes** — [`MembershipView::claim`] (the override policy,
//! written once), [`MembershipView::refute`] and [`MembershipView::readmit`] — all
//! made by the directory service's one liveness entry point; the table lives in its
//! `PlacementView`, which routes by it on every op. The SWIM detector
//! ([`crate::detector`]) is a prober: it borrows the table to pick targets, time
//! suspicions and fill gossip, and hands its verdicts to the node's evidence function.
//!
//! Which claim beats which (`i`, `j` incarnations; the table holds `j`):
//!
//! | claim        | over `Alive{j}` | over `Suspect{j}` | over `Dead{j}` |
//! |--------------|-----------------|-------------------|----------------|
//! | `Alive{i}`   | `i > j`         | `i > j`           | `i > j`        |
//! | `Suspect{i}` | `i ≥ j`         | `i > j`           | never          |
//! | `Dead{i}`    | `i ≥ j`         | `i ≥ j`           | `i > j`        |
//!
//! So a late notice about an incarnation that already restarted is stale and dropped
//! (it must not re-kill, or park as "resyncing" forever, the new process); death is
//! sticky within an incarnation — only a newer one revives the node, and a suspicion
//! never does; a suspicion at the same incarnation beats an alive claim, which is
//! what forces the suspected node to refute by bumping its incarnation
//! ([`MembershipView::refute`]); a node is the sole authority on itself; and a node
//! id outside the cluster is rejected by the table's one accessor.
//!
//! Every claim names its incarnation, whoever makes it. A driver's or supervisor's
//! failure verdict is a `PeerFailureNotice` naming the incarnation that died, so a
//! verdict that arrives after the restart is stale; and no driver says a node is
//! back: the restarted process says so itself, at the incarnation it runs, in its
//! restart-flagged snapshot requests, its `Hello` and its `DirResynced`. When such a
//! message names a newer incarnation of a peer still believed alive, the crash was
//! slept through, and its death is claimed first ([`MembershipView::digest_claims`]);
//! a restart request naming the incarnation held, while the table holds it
//! readmitted, is the same crash, which the service reads off the readmission.
//!
//! A restarted node knows nothing about failures it slept through, so rejoin messages
//! carry a **digest** (`(node, incarnation, alive)` triples); the resync source
//! answers with every entry it knows *strictly newer* ([`MembershipView::newer_than`]).

use crate::detector::GossipState::Dead;
use crate::detector::{GossipEntry, GossipState};
use crate::object::NodeId;
use crate::time::Time;

/// One digest entry: the highest incarnation known for `node` and whether that
/// incarnation is believed alive (a suspected incarnation still is).
pub type MemberDigestEntry = (NodeId, u64, bool);

/// What a claim did to the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The claim lost: it names an incarnation older than the one known, tries to
    /// revive or suspect a dead incarnation, contradicts this node about itself, or
    /// names a node outside the cluster. The table is untouched.
    Stale,
    /// The claim matches what the table already holds. Untouched.
    Known,
    /// A newer incarnation of the same belief (dead and still dead, suspected and
    /// still suspected — the window restarts): recorded, nothing for the caller to do.
    Updated,
    /// An alive peer entered its suspicion window.
    Suspected,
    /// An alive or suspected peer is dead: run the failure rules.
    Died,
    /// A strictly newer incarnation is alive: back from the dead, not yet readmitted,
    /// or a suspicion refuted, keeping its readmission.
    Restarted,
}

impl Transition {
    /// Whether the table now holds something it did not before the claim.
    pub fn changed(self) -> bool {
        !matches!(self, Transition::Stale | Transition::Known)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Member {
    incarnation: u64,
    state: GossipState,
    /// When the suspicion started; meaningful only while `state` is `Suspect`.
    since: Time,
    /// Whether this incarnation has caught up with the directory replicas it hosts
    /// (always `false` while `state` is `Dead`).
    readmitted: bool,
}

/// The liveness table owned by one node. Indexed by `NodeId`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipView {
    me: NodeId,
    entries: Vec<Member>,
}

impl MembershipView {
    /// A fresh table: every node alive and readmitted at incarnation 0, except this
    /// node itself, which starts at `self_incarnation` (0 on cold boot, `k+1` after the
    /// k-th process restart — assigned by whoever restarts the process).
    pub fn new(me: NodeId, n: usize, self_incarnation: u64) -> MembershipView {
        let alive = Member {
            incarnation: 0,
            state: GossipState::Alive,
            since: Time::ZERO,
            readmitted: true,
        };
        let mut entries = vec![alive; n];
        if let Some(e) = entries.get_mut(me.0 as usize) {
            e.incarnation = self_incarnation;
        }
        MembershipView { me, entries }
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` for an empty cluster (never used in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// What the table holds about `node`: `(incarnation, state)`, or `None` for an id
    /// outside the cluster. Every read of a peer's entry goes through here.
    pub fn get(&self, node: NodeId) -> Option<(u64, GossipState)> {
        self.entries.get(node.0 as usize).map(|e| (e.incarnation, e.state))
    }

    /// This node's own incarnation.
    pub fn self_incarnation(&self) -> u64 {
        self.incarnation_of(self.me)
    }

    /// The highest incarnation known for `node` (0 for an id outside the cluster).
    pub fn incarnation_of(&self, node: NodeId) -> u64 {
        self.get(node).map_or(0, |(incarnation, _)| incarnation)
    }

    /// Whether the highest known incarnation of `node` is believed alive (suspected
    /// counts; an id outside the cluster does not).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.get(node).is_some_and(|(_, state)| state != GossipState::Dead)
    }

    /// Whether `node` is alive and readmitted: a directory primary candidate. One
    /// index into the table, on every routed op.
    pub fn is_readmitted(&self, node: NodeId) -> bool {
        self.entries.get(node.0 as usize).is_some_and(|e| e.readmitted)
    }

    /// The claims a digest makes, in its order: each entry's node alive or dead at its
    /// incarnation. An entry in which `sender` says it is alive at a newer incarnation
    /// than one the table still believes alive follows that one's death: it crashed
    /// unseen.
    pub fn digest_claims(
        &self,
        digest: &[MemberDigestEntry],
        sender: Option<NodeId>,
    ) -> Vec<GossipEntry> {
        let mut claims = Vec::with_capacity(digest.len() + 1);
        for &(node, incarnation, alive) in digest {
            let crashed = self.get(node).filter(|&(held, state)| {
                alive
                    && sender == Some(node)
                    && node != self.me
                    && held < incarnation
                    && state != Dead
            });
            claims.extend(crashed.map(|(held, _)| (node, held, Dead)));
            claims.push((node, incarnation, if alive { GossipState::Alive } else { Dead }));
        }
        claims
    }

    /// Every entry, in id order: `(node, incarnation, state, readmitted)`.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, u64, GossipState, bool)> + '_ {
        let entry =
            |(i, e): (usize, &Member)| (NodeId(i as u32), e.incarnation, e.state, e.readmitted);
        self.entries.iter().enumerate().map(entry)
    }

    /// Every peer in its suspicion window, in id order: `(node, incarnation, since)`.
    pub fn suspects(&self) -> impl Iterator<Item = (NodeId, u64, Time)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == GossipState::Suspect)
            .map(|(i, e)| (NodeId(i as u32), e.incarnation, e.since))
    }

    /// Arbitrate the claim "`node` at `incarnation` is `state`" against the table (the
    /// module docs give the override table) and record it if it wins. `now` becomes
    /// the start of the suspicion window when the claim is a suspicion.
    pub fn claim(
        &mut self,
        node: NodeId,
        incarnation: u64,
        state: GossipState,
        now: Time,
    ) -> Transition {
        use GossipState::{Alive, Dead, Suspect};
        if node == self.me {
            // Nobody outranks a node about its own current life.
            return if state == Alive { Transition::Known } else { Transition::Stale };
        }
        let Some(e) = self.entries.get_mut(node.0 as usize) else { return Transition::Stale };
        let newer = incarnation > e.incarnation;
        let same = incarnation == e.incarnation;
        let transition = match (state, e.state) {
            (Alive, _) if newer => Transition::Restarted,
            (Alive, Alive | Suspect) if same => return Transition::Known,
            (Suspect, Alive) if newer || same => Transition::Suspected,
            (Dead, Alive | Suspect) if newer || same => Transition::Died,
            (Suspect, Suspect) | (Dead, Dead) if newer => Transition::Updated,
            (Suspect, Suspect) | (Dead, Dead) if same => return Transition::Known,
            _ => return Transition::Stale,
        };
        // An incarnation back from the dead must resync before it is readmitted; a
        // newer one of a peer believed alive (a refuted suspicion) keeps its standing.
        let readmitted = state != Dead && e.state != Dead && e.readmitted;
        *e = Member { incarnation, state, since: now, readmitted };
        transition
    }

    /// Record whether `node`'s incarnation `incarnation` is readmitted: caught up with
    /// the replicas it hosts (`true`, on its `DirResynced` or this node's own last
    /// stream), or resyncing them (`false`, this node itself from the start of its
    /// post-restart resync). Applies only while the table holds `node` alive at
    /// exactly `incarnation`, so no message readmits a dead or superseded incarnation.
    /// Returns whether the entry changed.
    pub fn readmit(&mut self, node: NodeId, incarnation: u64, readmitted: bool) -> bool {
        let Some(e) = self.entries.get_mut(node.0 as usize) else { return false };
        if e.incarnation != incarnation
            || e.state == GossipState::Dead
            || e.readmitted == readmitted
        {
            return false;
        }
        e.readmitted = readmitted;
        true
    }

    /// Refute a suspicion (or premature death claim) about this node itself: bump
    /// our incarnation past the claimed evidence so the resulting alive claim
    /// supersedes it everywhere, and return the new incarnation. This is the SWIM
    /// refutation — the only way a Suspect entry clears, since plain acks at the
    /// same incarnation are not accepted as proof of life.
    pub fn refute(&mut self, evidence_incarnation: u64) -> u64 {
        let e = &mut self.entries[self.me.0 as usize];
        e.incarnation = e.incarnation.max(evidence_incarnation) + 1;
        e.incarnation
    }

    /// The full digest: one `(node, incarnation, alive)` triple per cluster node.
    pub fn digest(&self) -> Vec<MemberDigestEntry> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (NodeId(i as u32), e.incarnation, e.state != GossipState::Dead))
            .collect()
    }

    /// Every local entry *strictly newer* than the corresponding entry of a remote
    /// digest: higher incarnation, or same incarnation where we know a death the
    /// remote does not. This is what a resync source sends back to a restarted
    /// requester so its first gossip round learns the deaths it slept through.
    pub fn newer_than(&self, remote: &[MemberDigestEntry]) -> Vec<MemberDigestEntry> {
        self.digest()
            .into_iter()
            .filter(|&(node, inc, alive)| {
                match remote.iter().find(|(n, _, _)| *n == node) {
                    Some(&(_, rinc, ralive)) => inc > rinc || (inc == rinc && !alive && ralive),
                    // Unknown to the remote: everything we have is news.
                    None => true,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GossipState::{Alive, Dead, Suspect};

    const T: Time = Time::ZERO;

    /// Fold a digest the way the node does: one claim per entry.
    fn merge(view: &mut MembershipView, digest: &[MemberDigestEntry]) -> Vec<Transition> {
        digest
            .iter()
            .map(|&(node, inc, alive)| view.claim(node, inc, if alive { Alive } else { Dead }, T))
            .collect()
    }

    #[test]
    fn stale_failure_notice_is_dropped() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        // Node 2 died at incarnation 0, restarted as incarnation 1.
        assert_eq!(view.claim(NodeId(2), 0, Dead, T), Transition::Died);
        assert_eq!(view.claim(NodeId(2), 1, Alive, T), Transition::Restarted);
        // A late notice about the dead incarnation 0 must not re-kill it.
        assert_eq!(view.claim(NodeId(2), 0, Dead, T), Transition::Stale);
        assert!(view.is_alive(NodeId(2)));
        assert_eq!(view.incarnation_of(NodeId(2)), 1);
    }

    #[test]
    fn newer_failure_supersedes() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        assert_eq!(view.claim(NodeId(2), 0, Dead, T), Transition::Died);
        assert_eq!(view.claim(NodeId(2), 0, Dead, T), Transition::Known);
        view.claim(NodeId(2), 1, Alive, T);
        // Death evidence for the *current* incarnation applies exactly once.
        assert_eq!(view.claim(NodeId(2), 1, Dead, T), Transition::Died);
        assert_eq!(view.claim(NodeId(2), 1, Dead, T), Transition::Known);
        // Death evidence for a yet-newer incarnation implies restart + death; the
        // node was already failed locally so nothing is re-applied.
        assert_eq!(view.claim(NodeId(2), 3, Dead, T), Transition::Updated);
        assert_eq!(view.get(NodeId(2)), Some((3, Dead)));
        assert!(!view.is_alive(NodeId(2)));
    }

    #[test]
    fn death_is_sticky_within_an_incarnation() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        view.claim(NodeId(1), 2, Dead, T);
        assert_eq!(view.claim(NodeId(1), 2, Alive, T), Transition::Stale);
        assert_eq!(view.claim(NodeId(1), 1, Alive, T), Transition::Stale);
        // A suspicion never revives the dead, not even one of a newer incarnation.
        assert_eq!(view.claim(NodeId(1), 2, Suspect, T), Transition::Stale);
        assert_eq!(view.claim(NodeId(1), 5, Suspect, T), Transition::Stale);
        assert_eq!(view.get(NodeId(1)), Some((2, Dead)));
        assert_eq!(view.claim(NodeId(1), 3, Alive, T), Transition::Restarted);
    }

    #[test]
    fn driver_recovery_bumps_once() {
        // A restarted process runs at the incarnation after the dead one (the `+1` it
        // assigns itself), and its own traffic claims that incarnation alive.
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        view.claim(NodeId(3), 0, Dead, T);
        assert_eq!(view.claim(NodeId(3), 1, Alive, T), Transition::Restarted);
        // Late duplicates are absorbed.
        assert_eq!(view.claim(NodeId(3), 1, Alive, T), Transition::Known);
        assert_eq!(view.incarnation_of(NodeId(3)), 1);
    }

    #[test]
    fn digest_merge_teaches_missed_deaths() {
        // Survivor saw node 3 die; a freshly restarted node 1 did not.
        let mut survivor = MembershipView::new(NodeId(0), 4, 0);
        survivor.claim(NodeId(3), 0, Dead, T);
        let mut restarted = MembershipView::new(NodeId(1), 4, 1);

        // The survivor knows strictly more about node 3 (and about node 1's own
        // entry, which the reply skips adopting on the other side).
        let reply = survivor.newer_than(&restarted.digest());
        assert_eq!(reply, vec![(NodeId(3), 0, false)]);

        assert_eq!(merge(&mut restarted, &reply), vec![Transition::Died]);
        assert!(!restarted.is_alive(NodeId(3)));

        // Once merged, the survivor has nothing newer to teach.
        assert!(survivor.newer_than(&restarted.digest()).is_empty());
    }

    #[test]
    fn refutation_bumps_past_the_evidence() {
        let mut view = MembershipView::new(NodeId(1), 4, 1);
        // Suspected at our own incarnation: one bump suffices.
        assert_eq!(view.refute(1), 2);
        // A claim about an incarnation ahead of ours (e.g. gossiped from a
        // stale future entry) is jumped over, not merely incremented.
        assert_eq!(view.refute(7), 8);
        assert_eq!(view.self_incarnation(), 8);
        assert!(view.is_alive(NodeId(1)));
        // Peers arbitrate the resulting alive claim as a supersession.
        let mut peer = MembershipView::new(NodeId(0), 4, 0);
        peer.claim(NodeId(1), 1, Dead, T);
        assert_eq!(peer.claim(NodeId(1), 8, Alive, T), Transition::Restarted);
    }

    #[test]
    fn merge_ignores_claims_about_self() {
        let mut view = MembershipView::new(NodeId(1), 4, 1);
        assert_eq!(merge(&mut view, &[(NodeId(1), 5, false)]), vec![Transition::Stale]);
        assert_eq!(view.claim(NodeId(1), 9, Suspect, T), Transition::Stale);
        assert_eq!(view.claim(NodeId(1), 9, Alive, T), Transition::Known);
        assert_eq!(view.self_incarnation(), 1);
        assert!(view.is_alive(NodeId(1)));
    }

    #[test]
    fn ids_outside_the_cluster_are_rejected_by_every_entry_point() {
        let mut view = MembershipView::new(NodeId(0), 3, 0);
        let before = view.digest();
        for bad in [NodeId(3), NodeId(u32::MAX)] {
            assert_eq!(view.get(bad), None);
            assert!(!view.is_alive(bad));
            for state in [Alive, Suspect, Dead] {
                assert_eq!(view.claim(bad, 1, state, T), Transition::Stale);
            }
        }
        assert_eq!(view.digest(), before);
    }

    #[test]
    fn suspicion_beats_an_alive_claim_of_the_same_incarnation_only() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        view.claim(NodeId(2), 1, Alive, T);
        assert_eq!(view.claim(NodeId(2), 0, Suspect, T), Transition::Stale);
        let t1 = T + crate::time::Duration::from_millis(5);
        assert_eq!(view.claim(NodeId(2), 1, Suspect, t1), Transition::Suspected);
        assert_eq!(view.suspects().collect::<Vec<_>>(), vec![(NodeId(2), 1, t1)]);
        // Still alive to the digest; the same-incarnation alive claim does not clear it.
        assert!(view.is_alive(NodeId(2)));
        assert_eq!(view.claim(NodeId(2), 1, Alive, T), Transition::Known);
        assert_eq!(view.get(NodeId(2)), Some((1, Suspect)));
        // A suspicion of a newer incarnation restarts the window; the refutation ends it.
        let t2 = t1 + crate::time::Duration::from_millis(5);
        assert_eq!(view.claim(NodeId(2), 2, Suspect, t2), Transition::Updated);
        assert_eq!(view.suspects().next(), Some((NodeId(2), 2, t2)));
        assert_eq!(view.claim(NodeId(2), 3, Alive, T), Transition::Restarted);
        assert!(view.is_readmitted(NodeId(2)), "a refuted suspicion keeps its readmission");
        assert_eq!(view.suspects().count(), 0);
    }

    #[test]
    fn readmission_belongs_to_one_live_incarnation() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        assert!(view.is_readmitted(NodeId(2)), "a fresh table holds every node healthy");
        view.claim(NodeId(2), 0, Dead, T);
        assert!(!view.readmit(NodeId(2), 0, true), "no message readmits the dead");
        assert_eq!(view.claim(NodeId(2), 1, Alive, T), Transition::Restarted);
        assert!(!view.is_readmitted(NodeId(2)), "back from the dead: resyncing");
        assert!(!view.readmit(NodeId(2), 0, true), "nor a superseded incarnation");
        assert!(view.readmit(NodeId(2), 1, true));
        assert!(!view.readmit(NodeId(2), 1, true), "already readmitted");
        assert!(view.is_readmitted(NodeId(2)));
        // This node stands not readmitted while it resyncs its own replicas.
        assert!(view.readmit(NodeId(0), 0, false));
        assert!(!view.is_readmitted(NodeId(0)) && view.is_alive(NodeId(0)));
    }

    #[test]
    fn a_senders_own_newer_incarnation_claims_the_crash_it_slept_through() {
        let mut view = MembershipView::new(NodeId(0), 4, 0);
        view.claim(NodeId(3), 0, Dead, T);
        let digest = [(NodeId(1), 2, true), (NodeId(2), 1, true), (NodeId(3), 1, true)];
        // Node 1 speaks for itself: incarnation 0, believed alive, died unseen. What
        // it says of node 2 is hearsay, and node 3's old incarnation is already dead.
        assert_eq!(
            view.digest_claims(&digest, Some(NodeId(1))),
            vec![
                (NodeId(1), 0, Dead),
                (NodeId(1), 2, Alive),
                (NodeId(2), 1, Alive),
                (NodeId(3), 1, Alive)
            ]
        );
        assert_eq!(view.digest_claims(&digest, None).len(), 3, "hearsay claims no crash");
    }
}
