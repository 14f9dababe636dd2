//! Translation-validation surface for the trace compiler.
//!
//! The pass pipeline in [`crate::compile`] is correct-by-testing; this
//! module gives `ookami-check` the raw material to make it
//! correct-by-proof per run. [`pass_trail`] re-drives the exact pipeline
//! the compiler runs ([`compile::PassState`]) but snapshots the whole
//! [`Trace`] after every pass, together with the slot-substitution
//! witness the predicate-simplification pass emitted and the emission
//! plan's statically-folded counter [`Snapshot`]. The validator
//! (`check::tv`) then proves each adjacent stage pair observationally
//! equivalent — this module deliberately contains no judgement logic of
//! its own, only faithful snapshots plus the small semantic helpers
//! (lane evaluators, operand rewriting, counter bumps) the prover needs
//! to re-derive everything independently.
//!
//! Slots are never renumbered by any pass, so witnesses and observables
//! live in one shared [`Slot`] space across all stages.

use std::collections::HashMap;

use crate::compile::{self, CompileReport};
use crate::counters;
use crate::trace::{
    bin_lane, pg_mut, top_def, un_lane, v_srcs_mut, BinOp, PSlot, Slot, TOp, Trace, UnOp,
};
use ookami_core::obs::Snapshot;
use ookami_uarch::OpClass;

/// Lanes per compiled block (`compile::W`): the scale factor between one
/// record-width iteration and one native block in the static accounting.
pub const BLOCK_LANES: usize = compile::W;

/// One snapshot of the trace mid-pipeline, plus the substitution witness
/// accumulated so far. `psubst`/`vsubst` map a dissolved op's destination
/// slot to its replacement; both are sorted by destination for stable
/// reports. Empty witnesses mean "the bodies must match op-for-op".
#[derive(Debug, Clone)]
pub struct PassStage {
    /// Pass name: `recorded`, `fold`, `pred_simplify` or `dce`.
    pub name: &'static str,
    /// The full trace as it stood after this pass.
    pub trace: Trace,
    /// Predicate substitutions from dissolved `pand`s, `(dst, rep)`.
    pub psubst: Vec<(Slot, Slot)>,
    /// Vector substitutions from dissolved full-mask `sel`s, `(dst, rep)`.
    pub vsubst: Vec<(Slot, Slot)>,
}

/// The emission plan's validator-facing facts for a native trace.
#[derive(Debug, Clone)]
pub struct EmitPlan {
    /// Lanes per block ([`BLOCK_LANES`]).
    pub rows: usize,
    /// Record-width iterations per block (`rows / vl`).
    pub blocks: u64,
    /// Emitted native kernels.
    pub kernels: usize,
    /// Fused kernel pairs.
    pub fused: usize,
    /// Predicate slots the plan treats as statically all-true (pass
    /// closure ∪ loop predicate ∪ setup masks that materialize all-true),
    /// sorted.
    pub full: Vec<Slot>,
    /// The statically pre-folded per-bulk-call counter increments for one
    /// block, exactly as the native engine will flush them.
    pub acct_static: Snapshot,
}

/// The per-pass snapshot trail for one trace: four stages (`recorded`,
/// `fold`, `pred_simplify`, `dce`) and, for natively compilable traces,
/// the emission-plan facts.
#[derive(Debug, Clone)]
pub struct PassTrail {
    pub stages: Vec<PassStage>,
    /// `Some` iff the trace admits a native plan.
    pub plan: Option<EmitPlan>,
    /// The same report [`Trace::compile`] would produce.
    pub report: CompileReport,
}

/// Wrap a trace as a named stage with an empty witness.
pub fn stage_view(name: &'static str, t: &Trace) -> PassStage {
    PassStage {
        name,
        trace: t.clone(),
        psubst: Vec::new(),
        vsubst: Vec::new(),
    }
}

fn sorted_pairs(map: &HashMap<Slot, Slot>) -> Vec<(Slot, Slot)> {
    let mut v: Vec<(Slot, Slot)> = map.iter().map(|(&d, &r)| (d, r)).collect();
    v.sort_unstable();
    v
}

/// Re-run the compiler's pass pipeline on `t`, snapshotting after every
/// pass. The pipeline state machine is the same code `Trace::compile`
/// drives, with the same `keep_acct_preds` policy (on iff the trace
/// passes the native gate), so stage 3 (`dce`) is bit-for-bit the body
/// the engine lowers.
pub fn pass_trail(t: &Trace) -> PassTrail {
    let native = compile::native_gate(t);
    let mut stages = Vec::with_capacity(4);
    stages.push(stage_view("recorded", t));

    let mut st = compile::PassState::new(t);
    st.fold();
    stages.push(stage_view("fold", &st.o));

    st.simplify();
    let mut mid = stage_view("pred_simplify", &st.o);
    mid.psubst = sorted_pairs(&st.psubst);
    mid.vsubst = sorted_pairs(&st.vsubst);
    stages.push(mid);

    st.dce(if native { Some(t) } else { None });
    let mut last = stage_view("dce", &st.o);
    last.psubst = sorted_pairs(&st.psubst);
    last.vsubst = sorted_pairs(&st.vsubst);
    stages.push(last);

    let passes = st.into_out();
    let mut report = passes.stats.clone();
    let plan = if native {
        compile::build_plan(t, &passes).map(|(_, f)| {
            report.fused = f.fused;
            report.kernels = f.kernels;
            report.native = true;
            let mut full: Vec<Slot> = f.full.into_iter().collect();
            full.sort_unstable();
            EmitPlan {
                rows: BLOCK_LANES,
                blocks: f.blocks,
                kernels: f.kernels,
                fused: f.fused,
                full,
                acct_static: f.acct_static,
            }
        })
    } else {
        None
    };
    PassTrail {
        stages,
        plan,
        report,
    }
}

/// One binary lanewise evaluation, exactly as the replayer computes it
/// (including FTZ denormal handling and max/min operand-bit semantics).
pub fn eval_bin(op: BinOp, x: u64, y: u64) -> u64 {
    bin_lane(op, x, y)
}

/// One unary lanewise evaluation, exactly as the replayer computes it.
pub fn eval_un(op: UnOp, x: u64) -> u64 {
    un_lane(op, x)
}

/// Clone `op` with every predicate operand rewritten through `rp` and
/// every vector source rewritten through `rv` (destinations untouched).
/// This is the validator's "apply the witness" primitive: a source-stage
/// op rewritten through the witness must equal its target-stage
/// counterpart structurally.
pub fn rewrite_op(op: &TOp, rv: &dyn Fn(Slot) -> Slot, rp: &dyn Fn(Slot) -> Slot) -> TOp {
    let mut o = op.clone();
    if let Some(pg) = pg_mut(&mut o) {
        *pg = rp(*pg);
    }
    // `pand`'s operands are predicates, not a governing mask, so the
    // generic accessors above do not cover them.
    if let TOp::Pand { a, b, .. } = &mut o {
        *a = rp(*a);
        *b = rp(*b);
    }
    for s in v_srcs_mut(&mut o) {
        *s = rv(*s);
    }
    o
}

/// The vector-source slots of `op`, in operand order (read-only view of
/// the operand accessor the passes rewrite through).
pub fn op_v_srcs(op: &TOp) -> Vec<Slot> {
    let mut o = op.clone();
    v_srcs_mut(&mut o).into_iter().map(|s| *s).collect()
}

/// Replay `t`'s setup and report which predicate-defining setup ops
/// materialize all-true masks at record width — the same probe the
/// emission plan's builder runs to grow its statically-full set, exposed
/// so the validator can re-derive that set without trusting the plan.
/// Setup execution is loop-invariant constant evaluation, so this is a
/// static fact despite going through the replayer.
pub fn setup_full_preds(t: &Trace) -> Vec<Slot> {
    let r = t.replayer();
    let mut out = Vec::new();
    for op in &t.setup {
        if let (None, Some(p)) = top_def(op) {
            if (0..t.vl).all(|l| r.pred_lane(PSlot(p), l)) {
                out.push(p);
            }
        }
    }
    out
}

/// Bump `snap` for `instrs` instructions of `class` with `lanes` total
/// active lanes — the same counter recipe the compiled engine's static
/// accounting uses, exposed so the validator can re-derive a block's
/// [`Snapshot`] from first principles.
pub fn acct_bump(snap: &mut Snapshot, class: OpClass, instrs: u64, lanes: u64, uops: u64) {
    counters::bump_into(snap, class, instrs, lanes, uops);
}

/// The `fexpa` special-case counter recipe (own issue counter + lane
/// accounting), mirroring the engine's static fold.
pub fn acct_bump_fexpa(snap: &mut Snapshot, instrs: u64, lanes: u64) {
    counters::bump_fexpa_into(snap, instrs, lanes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_like() -> Trace {
        // Mirrors the compile-module fixture: folds, dissolves and leaves
        // dead defs behind, so every pass does real work.
        Trace::record1(8, |c, pg, x| {
            let half = c.dup_f64(0.5);
            let one = c.dup_f64(1.0);
            let k = c.fmul(pg, &half, &one); // folds
            let p = c.ptrue();
            let m = c.pand(&p, pg); // dissolves
            let y = c.fmul(&m, x, &k);
            let dead = c.fadd(pg, &y, &one); // dead
            let _ = &dead;
            c.fadd(&m, &y, &one)
        })
    }

    #[test]
    fn trail_has_four_stages_and_matches_compile_report() {
        let t = exp_like();
        let trail = pass_trail(&t);
        let names: Vec<&str> = trail.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["recorded", "fold", "pred_simplify", "dce"]);
        assert_eq!(trail.stages[0].trace.body.len(), t.body.len());
        // Witness only appears once pred_simplify has run.
        assert!(trail.stages[0].psubst.is_empty() && trail.stages[1].psubst.is_empty());
        let compiled = t.compile();
        assert_eq!(trail.report, compiled.report());
        assert!(trail.plan.is_some());
        let plan = trail.plan.as_ref().unwrap();
        assert_eq!(plan.rows, BLOCK_LANES);
        assert_eq!(plan.blocks as usize * t.vl, BLOCK_LANES);
        assert!(!plan.acct_static.is_zero());
    }

    #[test]
    fn dce_stage_is_the_lowered_body() {
        let t = exp_like();
        let trail = pass_trail(&t);
        let last = trail.stages.last().unwrap();
        assert!(last.trace.body.len() < t.body.len());
        // The final stage still replays to the same outputs.
        let xs = [0.1, 0.7, 1.3, 2.9];
        for &x in &xs {
            assert_eq!(
                t.map(&[x])[0].to_bits(),
                last.trace.map(&[x])[0].to_bits(),
                "dce stage diverges at {x}"
            );
        }
    }

    #[test]
    fn non_native_trace_has_no_plan() {
        let t = Trace::record1(7, |c, pg, x| c.fadd(pg, x, x));
        // vl=7 is not a power of two, so the native gate rejects it.
        let trail = pass_trail(&t);
        assert!(trail.plan.is_none());
        assert!(!trail.report.native);
    }
}
