//! Dynamic d-ary reduce trees (§3.4.2 and §3.5.2 of the paper).
//!
//! The *shape* of a reduce tree over `n` objects with degree `d` is fixed: it is the
//! most balanced `d`-ary tree with `n` slots, and slots are numbered by the paper's
//! generalized in-order traversal (first child subtree, the node itself, remaining
//! child subtrees). What is dynamic is the *assignment* of arriving objects to slots:
//! the `k`-th object to become ready takes slot `k`, which lets early arrivals start
//! streaming into their parent before later participants even exist.
//!
//! Failure handling follows §3.5.2 in what it vacates: a failed slot is vacated and
//! refilled by the next ready object (possibly the same object recreated elsewhere by
//! the task framework). What it restarts is the whole tree: a failure that vacates a
//! slot bumps the plan's one *epoch*, every assigned slot is re-instructed, and every
//! participant clears its accumulation and streams again from its own source. A
//! participant keeps no block once the block has left it (to its parent, or into the
//! root's result), so there is no partial sum to re-send; the price is that a repair
//! re-streams every source, where the paper's Fig. 5b leaves the sibling subtree be.
//!
//! The plan keeps each fact once: a slot's input (`None` is a vacancy), the epoch,
//! and the ready pool of offered inputs that hold no slot yet, in arrival order. Every
//! question is a scan of one of those — "is this object assigned", "which slot is
//! vacant next", "which pooled inputs lived on the dead node" — and every event costs
//! O(slots). Trees stay small (one slot per reduce input; no workload builds more than
//! 128), so the scans are cheaper than the indexes they replace would be to keep.

use std::collections::VecDeque;

use crate::object::{NodeId, ObjectId};

/// Static description of one slot in the tree shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotShape {
    /// In-order rank of this slot (also its index).
    pub index: usize,
    /// Parent slot, `None` for the root.
    pub parent: Option<usize>,
    /// Child slots (at most `d`), in rank order.
    pub children: Vec<usize>,
}

/// The static shape of a reduce tree: `n` slots arranged as a balanced `d`-ary tree and
/// numbered by generalized in-order traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeShape {
    slots: Vec<SlotShape>,
    degree: usize,
    root: usize,
}

impl TreeShape {
    /// Build the shape for `n` slots and degree `d` (`d >= 1`; `d >= n` produces a
    /// star).
    pub fn new(n: usize, degree: usize) -> TreeShape {
        assert!(n >= 1, "a reduce tree needs at least one slot");
        let degree = degree.max(1);
        let mut slots = Vec::with_capacity(n);
        let root = lay_out(&mut slots, n, degree);
        debug_assert_eq!(slots.len(), n);
        TreeShape { slots, degree, root }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the tree has no slots (never constructed; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Requested degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Root slot index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Shape of one slot.
    pub fn slot(&self, index: usize) -> &SlotShape {
        &self.slots[index]
    }

    /// All slots.
    pub fn slots(&self) -> &[SlotShape] {
        &self.slots
    }

    /// All ancestors of `index`, nearest first (excluding `index` itself).
    pub fn ancestors(&self, index: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.slots[index].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.slots[p].parent;
        }
        out
    }
}

/// Append a subtree of `count` slots to `slots` in generalized in-order — its first
/// child subtree, then its root, then the remaining child subtrees — and return the
/// subtree root's rank. The `count - 1` descendants are spread over `min(count - 1, d)`
/// child subtrees as evenly as possible, earlier subtrees taking the extras, so the
/// left-most subtree's ranks stay small.
fn lay_out(slots: &mut Vec<SlotShape>, count: usize, degree: usize) -> usize {
    let rest = count - 1;
    let fanout = rest.min(degree);
    let mut sizes = (0..fanout).map(|c| rest / fanout + usize::from(c < rest % fanout));
    let mut children: Vec<usize> =
        sizes.next().map(|size| lay_out(slots, size, degree)).into_iter().collect();
    let index = slots.len();
    slots.push(SlotShape { index, parent: None, children: Vec::new() });
    children.extend(sizes.map(|size| lay_out(slots, size, degree)));
    for &child in &children {
        slots[child].parent = Some(index);
    }
    slots[index].children = children;
    index
}

/// A ready reduce input: an object and the node that holds (or is creating) it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceInput {
    /// Source object.
    pub object: ObjectId,
    /// Node holding the source object.
    pub node: NodeId,
}

/// Dynamic assignment state layered over a [`TreeShape`].
#[derive(Clone, Debug)]
pub struct ReduceTreePlan {
    shape: TreeShape,
    /// Slot -> assigned input; `None` is a vacancy.
    assignment: Vec<Option<ReduceInput>>,
    /// Accumulation epoch of every slot, bumped by each failure that vacates a slot.
    epoch: u64,
    /// Offered inputs that hold no slot yet, in arrival order. An input whose holder
    /// fails leaves the pool; offered again, it queues at the back like any arrival.
    pool: VecDeque<ReduceInput>,
}

/// The view of a slot that the coordinator turns into a participant instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotView {
    /// Slot index.
    pub slot: usize,
    /// Input assigned to this slot.
    pub input: ReduceInput,
    /// The plan's accumulation epoch, which is also the parent's.
    pub epoch: u64,
    /// Total number of inputs this slot combines: its own object plus one stream per
    /// child slot (whether or not those child slots are assigned yet).
    pub num_inputs: usize,
    /// Parent slot index and owner; `None` for the root or while the parent is vacant.
    pub parent: Option<(usize, ReduceInput)>,
    /// Currently-assigned children (slot, input).
    pub children: Vec<(usize, ReduceInput)>,
    /// `true` when this slot is the tree root (it materializes the reduce result).
    pub is_root: bool,
}

impl ReduceTreePlan {
    /// Create a plan for `num_objects` inputs using `degree` (resolved, i.e. `>= 1`).
    pub fn new(num_objects: usize, degree: usize) -> ReduceTreePlan {
        let shape = TreeShape::new(num_objects, degree);
        let n = shape.len();
        ReduceTreePlan { shape, assignment: vec![None; n], epoch: 0, pool: VecDeque::new() }
    }

    /// The underlying static shape.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Current assignment of a slot.
    pub fn assignment(&self, slot: usize) -> Option<ReduceInput> {
        self.assignment[slot]
    }

    /// The epoch every slot accumulates at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Offer a ready input (an object that now has a partial or complete copy at
    /// `node`). Returns the slots whose instructions changed, in rank order. Offering
    /// an object that is already assigned is a no-op (duplicate directory publications
    /// are expected); offering one that is already pooled moves its holder in place.
    pub fn offer_input(&mut self, input: ReduceInput) -> Vec<usize> {
        if self.assignment.iter().flatten().any(|a| a.object == input.object) {
            return Vec::new();
        }
        match self.pool.iter_mut().find(|p| p.object == input.object) {
            Some(queued) => queued.node = input.node,
            None => self.pool.push_back(input),
        }
        self.refill(Vec::new())
    }

    /// Handle the failure of `node`: drop it from the ready pool and vacate every slot
    /// it owned. If that vacated a slot, bump the epoch, refill vacancies from the pool
    /// and return every slot that holds an input (all of them restart); otherwise
    /// nothing changed for any slot and the result is empty.
    pub fn on_node_failed(&mut self, node: NodeId) -> Vec<usize> {
        self.pool.retain(|input| input.node != node);
        let owned = |a: &Option<ReduceInput>| a.is_some_and(|input| input.node == node);
        if !self.assignment.iter().any(owned) {
            return Vec::new();
        }
        self.assignment.iter_mut().filter(|a| owned(a)).for_each(|a| *a = None);
        self.epoch += 1;
        self.refill((0..self.assignment.len()).collect())
    }

    /// The view of a slot used to build its participant instruction. `None` if the slot
    /// has no assignment yet.
    pub fn slot_view(&self, slot: usize) -> Option<SlotView> {
        let input = self.assignment[slot]?;
        let shape = self.shape.slot(slot);
        let parent = shape.parent.and_then(|p| self.assignment[p].map(|pi| (p, pi)));
        let children =
            shape.children.iter().filter_map(|&c| self.assignment[c].map(|ci| (c, ci))).collect();
        Some(SlotView {
            slot,
            input,
            epoch: self.epoch,
            num_inputs: shape.children.len() + 1,
            parent,
            children,
            is_root: shape.parent.is_none(),
        })
    }

    /// Assign pooled inputs to vacant slots in rank order — each refill also changes
    /// the instructions of its parent and children — then report the `affected` slots
    /// that hold an input, in rank order, once each.
    fn refill(&mut self, mut affected: Vec<usize>) -> Vec<usize> {
        for slot in 0..self.assignment.len() {
            if self.assignment[slot].is_some() {
                continue;
            }
            let Some(input) = self.pool.pop_front() else { break };
            self.assignment[slot] = Some(input);
            let shape = self.shape.slot(slot);
            affected.push(slot);
            affected.extend(shape.parent.iter().chain(&shape.children));
        }
        affected.retain(|&slot| self.assignment[slot].is_some());
        affected.sort_unstable();
        affected.dedup();
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(i: u32) -> ReduceInput {
        ReduceInput { object: ObjectId::from_name(&format!("obj-{i}")), node: NodeId(i) }
    }

    fn assigned(plan: &ReduceTreePlan) -> usize {
        (0..plan.shape().len()).filter(|&s| plan.assignment(s).is_some()).count()
    }

    fn vacancies(plan: &ReduceTreePlan) -> usize {
        plan.shape().len() - assigned(plan)
    }

    #[test]
    fn chain_shape_in_order() {
        // d = 1: slot k's parent is slot k + 1; the root is the last slot.
        let shape = TreeShape::new(5, 1);
        assert_eq!(shape.root(), 4);
        for k in 0..4 {
            assert_eq!(shape.slot(k).parent, Some(k + 1));
        }
        assert_eq!(shape.slot(4).parent, None);
        assert_eq!(shape.ancestors(0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn star_shape_in_order() {
        // d >= n: the root is the *second* arrival (first child subtree is traversed
        // before the root in generalized in-order traversal).
        let shape = TreeShape::new(6, 6);
        assert_eq!(shape.root(), 1);
        assert_eq!(shape.slot(1).children.len(), 5);
        assert!((0..6).all(|s| shape.ancestors(s).len() <= 1));
    }

    #[test]
    fn binary_tree_of_six_matches_paper_figure() {
        // Figure 5a: arrivals R1..R6; R2 reduces {R1, R2, R3}; the root is R4; R6
        // reduces {R5, R6}.
        let shape = TreeShape::new(6, 2);
        assert_eq!(shape.root(), 3, "R4 (index 3) is the root");
        let root = shape.slot(3);
        assert_eq!(root.children, vec![1, 5]);
        assert_eq!(shape.slot(1).children, vec![0, 2]);
        assert_eq!(shape.slot(5).children, vec![4]);
        assert_eq!(shape.ancestors(1), vec![3]);
        assert_eq!(shape.ancestors(0), vec![1, 3]);
    }

    #[test]
    fn every_slot_has_at_most_degree_children() {
        for n in 1..40 {
            for d in [1usize, 2, 3, 4, 7, n.max(1)] {
                let shape = TreeShape::new(n, d);
                assert_eq!(shape.len(), n);
                let mut seen_children = 0;
                for s in shape.slots() {
                    assert!(s.children.len() <= d.max(1));
                    seen_children += s.children.len();
                    for &c in &s.children {
                        assert_eq!(shape.slot(c).parent, Some(s.index));
                    }
                }
                assert_eq!(seen_children, n - 1, "every non-root slot has a parent");
            }
        }
    }

    #[test]
    fn assignment_follows_arrival_order() {
        let mut plan = ReduceTreePlan::new(6, 2);
        for i in 0..6 {
            let affected = plan.offer_input(input(i));
            assert!(affected.contains(&(i as usize)));
        }
        assert_eq!(vacancies(&plan), 0);
        // Slot k is owned by the k-th arrival.
        for k in 0..6 {
            assert_eq!(plan.assignment(k).unwrap().node, NodeId(k as u32));
        }
        assert_eq!(plan.assignment(plan.shape().root()).unwrap().node, NodeId(3));
    }

    #[test]
    fn duplicate_offers_are_ignored() {
        let mut plan = ReduceTreePlan::new(3, 2);
        plan.offer_input(input(0));
        let affected = plan.offer_input(input(0));
        assert!(affected.is_empty());
        assert_eq!(assigned(&plan), 1);
    }

    #[test]
    fn subset_reduce_takes_first_arrivals() {
        // Reduce 3 out of 5 offered objects: only the first three get slots.
        let mut plan = ReduceTreePlan::new(3, 2);
        for i in 0..5 {
            plan.offer_input(input(i));
        }
        assert_eq!(vacancies(&plan), 0);
        let assigned: Vec<NodeId> = (0..3).map(|k| plan.assignment(k).unwrap().node).collect();
        assert_eq!(assigned, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn failure_vacates_bumps_every_epoch_and_refills() {
        // Figure 5b's failure: R2 (slot 1) fails and R7 replaces it. The whole tree
        // restarts, the sibling subtree (slots 4, 5) included.
        let mut plan = ReduceTreePlan::new(6, 2);
        for i in 0..6 {
            plan.offer_input(input(i));
        }
        plan.offer_input(input(8)); // pooled
                                    // A node that holds no slot and no pooled input changes nothing.
        assert!(plan.on_node_failed(NodeId(9)).is_empty());
        assert_eq!(plan.epoch(), 0);
        let affected = plan.on_node_failed(NodeId(1));
        // Slot 1 is refilled from the pool at once; every slot is re-instructed.
        assert_eq!(plan.assignment(1).unwrap().node, NodeId(8));
        assert_eq!(plan.epoch(), 1, "every slot clears its accumulation");
        assert_eq!(affected, (0..6).collect::<Vec<_>>());
        assert!((0..6).all(|s| plan.slot_view(s).unwrap().epoch == 1));
        // The next failure leaves slot 3, the root, vacant: the other five restart.
        let affected = plan.on_node_failed(NodeId(3));
        assert_eq!(plan.assignment(3), None);
        assert_eq!(plan.epoch(), 2);
        assert_eq!(affected, vec![0, 1, 2, 4, 5]);
        // R7 arrives and takes the vacated slot; an arrival bumps nothing.
        let affected = plan.offer_input(input(7));
        assert_eq!(affected, vec![1, 3, 5]);
        assert_eq!(plan.assignment(3).unwrap().node, NodeId(7));
        assert_eq!(plan.epoch(), 2);
        assert_eq!(vacancies(&plan), 0);
    }

    #[test]
    fn recovered_object_can_rejoin() {
        let mut plan = ReduceTreePlan::new(3, 2);
        for i in 0..3 {
            plan.offer_input(input(i));
        }
        plan.on_node_failed(NodeId(0));
        // The failed object is recreated on another node and rejoins the same slot.
        let rejoined = ReduceInput { object: input(0).object, node: NodeId(9) };
        let affected = plan.offer_input(rejoined);
        assert!(affected.contains(&0));
        assert_eq!(plan.assignment(0).unwrap().node, NodeId(9));
    }

    #[test]
    fn slot_view_reports_parent_and_children() {
        let mut plan = ReduceTreePlan::new(6, 2);
        for i in 0..4 {
            plan.offer_input(input(i));
        }
        let v = plan.slot_view(1).unwrap();
        assert_eq!(v.num_inputs, 3);
        assert!(!v.is_root);
        assert_eq!(v.parent.unwrap().0, 3);
        assert_eq!(v.epoch, plan.epoch());
        assert_eq!(v.children.len(), 2);
        let root = plan.slot_view(3).unwrap();
        assert!(root.is_root);
        assert_eq!(root.parent, None);
        // Slot 5 is unassigned so far.
        assert!(plan.slot_view(5).is_none());
        assert_eq!(root.children.len(), 1, "only the assigned child is listed");
    }

    #[test]
    fn failure_of_pooled_input_is_tracked() {
        let mut plan = ReduceTreePlan::new(2, 2);
        plan.offer_input(input(0));
        plan.offer_input(input(1));
        plan.offer_input(input(2)); // pooled, unassigned
        assert!(plan.on_node_failed(NodeId(2)).is_empty(), "no slot changed");
        assert_eq!((vacancies(&plan), plan.epoch()), (0, 0));
        // The pooled input left with its holder: a vacancy is not refilled from it.
        plan.on_node_failed(NodeId(0));
        assert_eq!(plan.assignment(0), None);
    }
}
