//! The on-demand sanity verifier (modeled on MMTk's sanity GC).
//!
//! While the world is stopped, the verifier independently re-traces the
//! object graph from the roots — using only the object model, none of the
//! collector's own metadata — and cross-checks what it finds against the
//! plan's bookkeeping.  The generic walk in this module catches the
//! collector-independent failure classes (dangling roots, references into
//! released blocks, malformed headers left by a lost forwarding race);
//! each plan layers its own invariants on top through [`Plan::verify`]
//! (LXR checks RC counts against reachability, line marks, field-log and
//! remset consistency, and the allocator's free-line claims).
//!
//! The verifier runs inside the pause, right after [`crate::Plan::collect`],
//! gated by [`RuntimeOptions::verify_every_n_gcs`]; stress tests also
//! invoke it directly on failure (via `Runtime::verify_now`) so a
//! corruption report carries the failing object's full metadata state.
//!
//! [`Plan::verify`]: crate::Plan::verify
//! [`RuntimeOptions::verify_every_n_gcs`]: crate::RuntimeOptions::verify_every_n_gcs

use crate::plan::RootSet;
use lxr_heap::BlockState;
use lxr_object::{HeaderState, ObjectModel, ObjectReference};
use std::collections::HashSet;

/// Cap on recorded errors: past this the report only counts.
const MAX_ERRORS: usize = 64;

/// The outcome of one verification pass.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The plan that was audited.
    pub plan: &'static str,
    /// Invariant violations (heap corruption if non-empty).
    pub errors: Vec<String>,
    /// Violations past the recording cap (`MAX_ERRORS`), counted but not recorded.
    pub errors_suppressed: usize,
    /// Benign observations (documented laziness the audit tolerates).
    pub notes: Vec<String>,
    /// Objects reached by the independent re-trace.
    pub objects_traced: usize,
    /// `false` when the plan does not implement verification.
    pub supported: bool,
}

impl VerifyReport {
    /// An empty (passing) report for `plan`.
    pub fn new(plan: &'static str) -> VerifyReport {
        VerifyReport {
            plan,
            errors: Vec::new(),
            errors_suppressed: 0,
            notes: Vec::new(),
            objects_traced: 0,
            supported: true,
        }
    }

    /// The report of a plan without a verifier.
    pub fn unsupported(plan: &'static str) -> VerifyReport {
        VerifyReport { supported: false, ..VerifyReport::new(plan) }
    }

    /// Records an invariant violation.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        } else {
            self.errors_suppressed += 1;
        }
    }

    /// Records a benign observation.
    pub fn note(&mut self, message: String) {
        if self.notes.len() < MAX_ERRORS {
            self.notes.push(message);
        }
    }

    /// `true` when the audit found no violations (vacuously for plans
    /// without a verifier).
    pub fn ok(&self) -> bool {
        self.errors.is_empty() && self.errors_suppressed == 0
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.supported {
            return writeln!(f, "sanity verifier: plan `{}` does not implement verification", self.plan);
        }
        writeln!(
            f,
            "sanity verifier [{}]: {} objects traced, {} errors, {} notes",
            self.plan,
            self.objects_traced,
            self.errors.len() + self.errors_suppressed,
            self.notes.len()
        )?;
        for e in &self.errors {
            writeln!(f, "  ERROR: {e}")?;
        }
        if self.errors_suppressed > 0 {
            writeln!(f, "  ... and {} more errors", self.errors_suppressed)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Is `obj` a plausible object: in the heap, carrying a normal header whose
/// extent stays inside the heap, in a block that is not on the free list?
/// Appends an error describing the violation; returns the size in words
/// when plausible.
fn check_object(
    om: &ObjectModel,
    obj: ObjectReference,
    origin: &str,
    report: &mut VerifyReport,
) -> Option<usize> {
    let space = om.space();
    let geometry = space.geometry();
    let addr = obj.to_address();
    if !space.contains(addr) {
        report.error(format!("{origin}: reference {obj:?} points outside the heap"));
        return None;
    }
    let size = match om.header_state(obj) {
        HeaderState::Normal(shape) => shape.size_words(),
        HeaderState::Busy => {
            report.error(format!("{origin}: {obj:?} header is stuck busy (no pause-time copy in flight)"));
            return None;
        }
        HeaderState::Forwarded(to) => {
            report.error(format!("{origin}: {obj:?} is forwarded to {to:?} but the slot was not healed"));
            return None;
        }
        HeaderState::Invalid(word) => {
            report.error(format!("{origin}: {obj:?} header {word:#x} is not an object header (stale reference into reused memory)"));
            return None;
        }
    };
    if addr.word_index() + size > geometry.num_words() {
        report.error(format!("{origin}: {obj:?} extends past the end of the heap ({size} words)"));
        return None;
    }
    let block = geometry.block_of(addr);
    if space.block_states().get(block) == BlockState::Free {
        report.error(format!("{origin}: {obj:?} lives in block {} which is on the free list", block.index()));
        return None;
    }
    Some(size)
}

/// Independently re-traces the object graph from `roots`, checking every
/// visited reference with the per-object plausibility check, and returns the
/// reachable set.
/// Children of implausible objects are not scanned (one corruption produces
/// one error, not a cascade of wild reads).
pub fn reachable_set(
    om: &ObjectModel,
    roots: &RootSet,
    report: &mut VerifyReport,
) -> HashSet<ObjectReference> {
    let mut reached: HashSet<ObjectReference> = HashSet::new();
    let mut queue: Vec<ObjectReference> = Vec::new();
    for root in roots.collect_roots() {
        if !om.space().contains(root.to_address()) {
            report.error(format!("roots: {root:?} points outside the heap"));
            continue;
        }
        let root = om.resolve(root);
        if reached.insert(root) {
            queue.push(root);
        }
    }
    while let Some(obj) = queue.pop() {
        if check_object(om, obj, "trace", report).is_none() {
            continue;
        }
        om.scan_refs(obj, |slot, child| {
            if child.is_null() {
                return;
            }
            // Validate containment from the parent's side (so the error
            // names the holding slot) *before* resolving: following
            // forwarding requires reading the referent's header, which is a
            // wild read for an out-of-heap reference.
            if !om.space().contains(child.to_address()) {
                report.error(format!(
                    "trace: slot {:#x} of {obj:?} holds {child:?}, outside the heap",
                    slot.word_index()
                ));
                return;
            }
            let child = om.resolve(child);
            if reached.insert(child) {
                queue.push(child);
            }
        });
    }
    report.objects_traced = reached.len();
    reached
}

/// The generic audit used directly by plans without policy metadata of
/// their own to cross-check: re-trace from roots, validating every object
/// reached.
pub fn verify_generic(om: &ObjectModel, roots: &RootSet, plan: &'static str) -> VerifyReport {
    let mut report = VerifyReport::new(plan);
    reachable_set(om, roots, &mut report);
    report
}

/// Describes the heap location of `obj` using only generic metadata (block
/// state and reuse epoch) — the prefix of every plan's
/// [`describe_object`](crate::Plan::describe_object) output.
pub fn describe_location(om: &ObjectModel, obj: ObjectReference) -> String {
    let space = om.space();
    let addr = obj.to_address();
    if !space.contains(addr) {
        return format!("{obj:?}: outside the heap");
    }
    let geometry = space.geometry();
    let block = geometry.block_of(addr);
    format!(
        "{obj:?}: header={:?} block={} state={:?} line={} reuse-epoch={}",
        om.header_state(obj),
        block.index(),
        space.block_states().get(block),
        geometry.line_of(addr).index(),
        space.reuse_epochs().get(addr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxr_heap::{Address, HeapConfig, HeapSpace};
    use lxr_object::ObjectShape;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn setup() -> (Arc<HeapSpace>, ObjectModel) {
        let space = Arc::new(HeapSpace::new(HeapConfig::with_heap_size(1 << 20)));
        (space.clone(), ObjectModel::new(space))
    }

    fn roots_of(objs: &[ObjectReference]) -> RootSet {
        RootSet { mutator_roots: vec![Arc::new(Mutex::new(objs.to_vec()))] }
    }

    #[test]
    fn traces_a_well_formed_graph_without_errors() {
        let (space, om) = setup();
        let geometry = space.geometry();
        // A list of three objects in block 1.
        let base = geometry.block_start(lxr_heap::Block::from_index(1));
        let a = om.initialize(base, ObjectShape::new(1, 1, 0));
        let b = om.initialize(base.plus(4), ObjectShape::new(1, 1, 0));
        let c = om.initialize(base.plus(8), ObjectShape::new(0, 1, 0));
        om.write_ref_field(a, 0, b);
        om.write_ref_field(b, 0, c);
        space.block_states().set(lxr_heap::Block::from_index(1), BlockState::Young);
        let mut report = VerifyReport::new("test");
        let reached = reachable_set(&om, &roots_of(&[a]), &mut report);
        assert!(report.ok(), "{report}");
        assert_eq!(reached.len(), 3);
        assert_eq!(report.objects_traced, 3);
    }

    #[test]
    fn reference_into_a_free_block_is_an_error() {
        let (space, om) = setup();
        let geometry = space.geometry();
        let base = geometry.block_start(lxr_heap::Block::from_index(2));
        let a = om.initialize(base, ObjectShape::new(0, 1, 0));
        space.block_states().set(lxr_heap::Block::from_index(2), BlockState::Free);
        let mut report = VerifyReport::new("test");
        reachable_set(&om, &roots_of(&[a]), &mut report);
        assert!(!report.ok());
        assert!(report.errors[0].contains("free list"), "{}", report.errors[0]);
    }

    #[test]
    fn stale_header_is_an_error_and_stops_the_walk() {
        let (space, om) = setup();
        let geometry = space.geometry();
        let base = geometry.block_start(lxr_heap::Block::from_index(3));
        space.block_states().set(lxr_heap::Block::from_index(3), BlockState::Young);
        // Tag 3: not an object header.
        space.store(base, 0b11);
        let bogus = ObjectReference::from_raw(base.word_index() as u64);
        let mut report = VerifyReport::new("test");
        reachable_set(&om, &roots_of(&[bogus]), &mut report);
        assert!(!report.ok());
        assert!(report.errors[0].contains("not an object header"), "{}", report.errors[0]);
    }

    #[test]
    fn describe_location_names_block_and_epoch() {
        let (space, om) = setup();
        let geometry = space.geometry();
        let base = geometry.block_start(lxr_heap::Block::from_index(1));
        let a = om.initialize(base, ObjectShape::new(0, 1, 0));
        space.block_states().set(lxr_heap::Block::from_index(1), BlockState::Young);
        let description = describe_location(&om, a);
        assert!(description.contains("block=1"), "{description}");
        assert!(description.contains("reuse-epoch="), "{description}");
    }

    #[test]
    fn error_cap_suppresses_but_counts() {
        let mut report = VerifyReport::new("test");
        for i in 0..100 {
            report.error(format!("e{i}"));
        }
        assert_eq!(report.errors.len(), MAX_ERRORS);
        assert_eq!(report.errors_suppressed, 36);
        assert!(!report.ok());
    }

    #[test]
    fn null_roots_and_out_of_heap_references_are_handled() {
        let (space, om) = setup();
        let geometry = space.geometry();
        let base = geometry.block_start(lxr_heap::Block::from_index(1));
        space.block_states().set(lxr_heap::Block::from_index(1), BlockState::Young);
        let a = om.initialize(base, ObjectShape::new(1, 0, 0));
        // A reference field pointing well past the end of the heap.
        space.store(Address::from_word_index(base.word_index() + 1), 10_000_000);
        let mut report = VerifyReport::new("test");
        reachable_set(&om, &roots_of(&[a]), &mut report);
        assert!(!report.ok());
        assert!(report.errors[0].contains("outside the heap"), "{}", report.errors[0]);
    }
}
