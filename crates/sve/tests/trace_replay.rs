//! Differential properties of the trace engine: `Trace::replay` must match
//! the per-op interpreter **bit for bit** for every op class — merging
//! predication, gather/scatter through captured tables, FEXPA and the
//! hardware estimate/refine steps included — and the `Instr` stream a trace
//! lowers to ([`Trace::to_instrs`]) must be the stream the interpreter's
//! recorder would produce for the same kernel (modulo register naming,
//! which is canonicalized by first appearance).

use ookami_core::obs::{self, Counter};
use ookami_sve::{Pred, SveCtx, Trace, TraceBuilder, VVal};
use ookami_uarch::{Instr, OpClass, Reg, Width};
use proptest::prelude::*;
use std::collections::HashMap;

/// Fixed in-kernel lookup table for gather ops (like the log kernel's
/// coefficient tables).
const TAB: [f64; 16] = [
    0.5, -1.25, 3.0, 0.0625, -7.5, 11.0, 0.1, -0.0, 2.75, 1e10, -1e-10, 42.0, 0.3333, -6.0, 8.125,
    0.99,
];

/// One step of a randomly generated straight-line kernel. Every variant
/// maps to a distinct `TOp` class in the trace engine.
#[derive(Debug, Clone)]
enum Op {
    /// fadd/fsub/fmul/fdiv/fmax/fmin against a broadcast constant, under
    /// the current (possibly partial) predicate — merging semantics.
    Bin(u8, f64),
    /// fsqrt/fneg/fabs/frintn under the current predicate.
    Un(u8),
    /// fmla/fmls with a broadcast multiplicand.
    Fma(bool, f64),
    /// FRECPE + FRECPS refine (reciprocal Newton step).
    RecipStep,
    /// FRSQRTE + FRSQRTS refine.
    RsqrtStep,
    /// FEXPA on the raw lane bits.
    Fexpa,
    /// FTMAD with an immediate coefficient.
    Ftmad(f64),
    /// Replace the working predicate: fcmgt/fcmge/fcmeq vs a constant.
    CmpToP(u8, f64),
    /// Replace the working predicate: integer CMPNE vs an immediate.
    CmpNe(i64),
    /// AND a fresh compare into the working predicate.
    PandP(f64),
    /// Full select between the value and a broadcast constant.
    SelC(f64),
    /// lsl/lsr/asr by a constant shift.
    Shift(u8, u32),
    /// add/sub/mul/and/orr/eor against a broadcast integer constant.
    IntBin(u8, i64),
    /// ucvtf/fcvtns/fcvtzs/scvtf.
    Cvt(u8),
    /// Pack active lanes to the front.
    Compact,
    /// Gather from [`TAB`]; `masked` keeps indices in-bounds, otherwise
    /// out-of-bounds lanes exercise the load-zero path.
    Gather(bool),
}

fn fconst() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-1.5),
        Just(1e300),
        Just(0.5),
        -1e6..1e6f64,
    ]
}

fn iconst() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0i64), Just(-3), Just(15), -1000..1000i64]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, fconst()).prop_map(|(k, x)| Op::Bin(k, x)),
        (0u8..4).prop_map(Op::Un),
        (any::<bool>(), fconst()).prop_map(|(n, x)| Op::Fma(n, x)),
        Just(Op::RecipStep),
        Just(Op::RsqrtStep),
        Just(Op::Fexpa),
        fconst().prop_map(Op::Ftmad),
        (0u8..3, fconst()).prop_map(|(k, x)| Op::CmpToP(k, x)),
        iconst().prop_map(Op::CmpNe),
        fconst().prop_map(Op::PandP),
        fconst().prop_map(Op::SelC),
        (0u8..3, 0u32..64).prop_map(|(k, s)| Op::Shift(k, s)),
        (0u8..6, iconst()).prop_map(|(k, x)| Op::IntBin(k, x)),
        (0u8..4).prop_map(Op::Cvt),
        Just(Op::Compact),
        any::<bool>().prop_map(Op::Gather),
    ]
}

/// Run the straight-line program on any executor (interpreter or trace
/// recorder — the ops themselves are executor-agnostic).
fn run_program(ctx: &mut SveCtx, pg: &Pred, x: &VVal, prog: &[Op]) -> VVal {
    let mut cur = x.clone();
    let mut p = pg.clone();
    for op in prog {
        match *op {
            Op::Bin(k, c) => {
                let cv = ctx.dup_f64(c);
                cur = match k {
                    0 => ctx.fadd(&p, &cur, &cv),
                    1 => ctx.fsub(&p, &cur, &cv),
                    2 => ctx.fmul(&p, &cur, &cv),
                    3 => ctx.fdiv(&p, &cur, &cv),
                    4 => ctx.fmax(&p, &cur, &cv),
                    _ => ctx.fmin(&p, &cur, &cv),
                };
            }
            Op::Un(k) => {
                cur = match k {
                    0 => ctx.fsqrt(&p, &cur),
                    1 => ctx.fneg(&p, &cur),
                    2 => ctx.fabs(&p, &cur),
                    _ => ctx.frintn(&p, &cur),
                };
            }
            Op::Fma(neg, c) => {
                let cv = ctx.dup_f64(c);
                cur = if neg {
                    ctx.fmls(&p, &cur, &cv, &cur)
                } else {
                    ctx.fmla(&p, &cur, &cv, &cur)
                };
            }
            Op::RecipStep => {
                let e = ctx.frecpe(&cur);
                let s = ctx.frecps(&p, &cur, &e);
                cur = ctx.fmul(&p, &e, &s);
            }
            Op::RsqrtStep => {
                let e = ctx.frsqrte(&cur);
                cur = ctx.frsqrts(&p, &cur, &e);
            }
            Op::Fexpa => cur = ctx.fexpa(&cur),
            Op::Ftmad(c) => cur = ctx.ftmad(&p, &cur, &cur, c),
            Op::CmpToP(k, c) => {
                let cv = ctx.dup_f64(c);
                p = match k {
                    0 => ctx.fcmgt(pg, &cur, &cv),
                    1 => ctx.fcmge(pg, &cur, &cv),
                    _ => ctx.fcmeq(pg, &cur, &cv),
                };
            }
            Op::CmpNe(imm) => p = ctx.cmpne_imm(pg, &cur, imm),
            Op::PandP(c) => {
                let cv = ctx.dup_f64(c);
                let q = ctx.fcmge(pg, &cur, &cv);
                p = ctx.pand(&p, &q);
            }
            Op::SelC(c) => {
                let cv = ctx.dup_f64(c);
                cur = ctx.sel(&p, &cur, &cv);
            }
            Op::Shift(k, sh) => {
                cur = match k {
                    0 => ctx.lsl(&p, &cur, sh),
                    1 => ctx.lsr(&p, &cur, sh),
                    _ => ctx.asr(&p, &cur, sh),
                };
            }
            Op::IntBin(k, c) => {
                let cv = ctx.dup_i64(c);
                cur = match k {
                    0 => ctx.add_i(&p, &cur, &cv),
                    1 => ctx.sub_i(&p, &cur, &cv),
                    2 => ctx.mul_i(&p, &cur, &cv),
                    3 => ctx.and_u(&p, &cur, &cv),
                    4 => ctx.orr_u(&p, &cur, &cv),
                    _ => ctx.eor_u(&p, &cur, &cv),
                };
            }
            Op::Cvt(k) => {
                cur = match k {
                    0 => ctx.ucvtf(&p, &cur),
                    1 => ctx.fcvtns(&p, &cur),
                    2 => ctx.fcvtzs(&p, &cur),
                    _ => ctx.scvtf(&p, &cur),
                };
            }
            Op::Compact => cur = ctx.compact(&p, &cur),
            Op::Gather(masked) => {
                let idx = if masked {
                    let m = ctx.dup_i64(TAB.len() as i64 - 1);
                    ctx.and_u(pg, &cur, &m)
                } else {
                    cur.clone()
                };
                cur = ctx.ld1d_gather(&p, &TAB, &idx, 4);
            }
        }
    }
    cur
}

/// Reference executor: the per-op interpreter, vector by vector.
fn interp_map(vl: usize, xs: &[f64], prog: &[Op]) -> Vec<f64> {
    let mut ctx = SveCtx::new(vl);
    let mut out = Vec::with_capacity(xs.len());
    let mut i = 0;
    while i < xs.len() {
        let pg = ctx.whilelt(i, xs.len());
        let mut lanes = vec![0.0; vl];
        let n = vl.min(xs.len() - i);
        lanes[..n].copy_from_slice(&xs[i..i + n]);
        let x = ctx.input_f64(&lanes);
        let y = run_program(&mut ctx, &pg, &x, prog);
        for l in 0..n {
            out.push(y.f64_lane(l));
        }
        i += vl;
    }
    out
}

/// Canonicalize an instruction stream: rename registers densely in order
/// of first appearance so two streams compare by *structure* (op class,
/// width, def/use shape, µop hints) rather than by allocator state.
fn canon(instrs: &[Instr]) -> Vec<(OpClass, Width, Option<u32>, Vec<u32>, Option<u32>)> {
    let mut names: HashMap<Reg, u32> = HashMap::new();
    let rename = |r: Reg, names: &mut HashMap<Reg, u32>| -> u32 {
        let next = names.len() as u32;
        *names.entry(r).or_insert(next)
    };
    instrs
        .iter()
        .map(|i| {
            let srcs = i.srcs.iter().map(|&r| rename(r, &mut names)).collect();
            let dst = i.dst.map(|r| rename(r, &mut names));
            (i.op, i.width, dst, srcs, i.uops_hint)
        })
        .collect()
}

/// Record the program through the plain interpreter's instruction recorder
/// (constants hoisted outside the recording window, like a real VLA loop
/// whose loop-invariant `dup`s sit before the loop).
fn interp_instrs(vl: usize, prog: &[Op]) -> Vec<Instr> {
    let mut ctx = SveCtx::new(vl);
    let pg = ctx.ptrue();
    let x = ctx.input_f64(&vec![0.0; vl]);
    ctx.start_recording();
    let _ = run_program(&mut ctx, &pg, &x, prog);
    ctx.take_recording()
}

/// The obs counters that must be **bit-identical** between interpreting a
/// kernel and replaying its trace: retired-instruction, active-lane, and
/// candidate-port totals plus the element counters. Byte counters are
/// deliberately excluded — they also fire on the harness's own
/// `input_f64`/`bind_f64` staging, which the two executors do differently.
const IDENTITY_COUNTERS: [Counter; 13] = [
    Counter::SveInstrs,
    Counter::SveLanesActive,
    Counter::PortFla,
    Counter::PortFlb,
    Counter::PortPr,
    Counter::PortExa,
    Counter::PortExb,
    Counter::PortEaga,
    Counter::PortEagb,
    Counter::PortBr,
    Counter::GatherElems,
    Counter::ScatterElems,
    Counter::FexpaIssues,
];

/// Switch the obs layer on, run `f` on this thread and return the
/// per-thread obs counter deltas it produced, projected onto
/// [`IDENTITY_COUNTERS`].
fn counter_delta(f: impl FnOnce()) -> [u64; IDENTITY_COUNTERS.len()] {
    obs::set_enabled(true);
    let before = obs::thread_snapshot();
    f();
    let delta = obs::thread_snapshot().since(&before);
    let mut out = [0u64; IDENTITY_COUNTERS.len()];
    for (slot, &c) in out.iter_mut().zip(IDENTITY_COUNTERS.iter()) {
        *slot = delta.get(c);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole property: for arbitrary programs over every traceable
    /// op class, arbitrary vector lengths, and ragged input lengths, the
    /// recorded trace replays bit-identically to the interpreter.
    #[test]
    fn replay_is_bit_identical_to_interpreter(
        vl in 1usize..=8,
        xs in prop::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0), Just(1e308), Just(-4.25), -1e3..1e3f64],
            1..120,
        ),
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let want = interp_map(vl, &xs, &prog);
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let got = t.map(&xs);
        prop_assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            prop_assert_eq!(
                w.to_bits(), g.to_bits(),
                "lane {} differs: interp {} vs replay {} (vl={})", i, w, g, vl
            );
        }
    }

    /// Counter identity (with the obs switch on): the obs totals from replaying a traced kernel over a range are exactly
    /// the totals from interpreting it — same retired instructions, same
    /// active lanes, same candidate-port pressure, same gather/FEXPA
    /// element counts — for arbitrary programs, vector lengths, and ragged
    /// input lengths. This is what makes the counters trustworthy: they
    /// measure the *kernel*, not the execution strategy.
    #[test]
    fn replay_counters_equal_interpreter_counters(
        vl in 1usize..=8,
        xs in prop::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0), Just(1e308), Just(-4.25), -1e3..1e3f64],
            1..120,
        ),
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let interp = counter_delta(|| {
            let _ = interp_map(vl, &xs, &prog);
        });
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let replay = counter_delta(|| {
            let _ = t.map(&xs);
        });
        for (i, (&a, &b)) in interp.iter().zip(replay.iter()).enumerate() {
            prop_assert_eq!(
                a, b,
                "counter {} differs: interp {} vs replay {} (vl={}, n={})",
                IDENTITY_COUNTERS[i].name(), a, b, vl, xs.len()
            );
        }
        // A nonempty program over a nonempty range must retire work.
        prop_assert!(interp[0] > 0, "no instructions counted");
    }

    /// Parallel replay over the worker pool is the same bits as serial
    /// replay (static schedule, block-disjoint writes).
    #[test]
    fn par_replay_matches_serial_replay(
        vl in 1usize..=8,
        threads in 1usize..5,
        xs in prop::collection::vec(-1e3..1e3f64, 1..160),
        prog in prop::collection::vec(op_strategy(), 1..10),
    ) {
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let serial = t.map(&xs);
        // threads == 0 is "auto": the pool picks its own width.
        for th in [threads, 0] {
            let par = t.par_map(th, &xs);
            prop_assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
        }
        // Replayer-only parallel path (bypasses the compiled dispatch).
        let rserial = t.replay_map(&xs);
        for th in [threads, 0] {
            let rpar = t.replay_par_map(th, &xs);
            prop_assert_eq!(rserial.len(), rpar.len());
            for (s, p) in rserial.iter().zip(&rpar) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    /// The instruction stream a trace lowers to is exactly the stream the
    /// interpreter's recorder produces for the same kernel body.
    #[test]
    fn trace_instrs_equal_interpreter_recording(
        vl in 1usize..=8,
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let want = canon(&interp_instrs(vl, &prog));
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let got = canon(&t.to_instrs());
        prop_assert_eq!(want, got);
    }

    /// The compiled engine is bit-identical to the replayer for arbitrary
    /// recordable programs and input lengths spanning several 512-lane
    /// blocks plus a ragged tail. Bodies the native gate rejects (gather,
    /// compact, non-power-of-two vl) must fall back invisibly.
    #[test]
    fn compiled_matches_replay_bit_identical(
        vl in 1usize..=8,
        xs in prop::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0), Just(1e308), Just(-4.25), -1e3..1e3f64],
            400..1300,
        ),
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let want = t.replay_map(&xs);
        let ct = t.compile();
        let got = ct.map(&xs);
        prop_assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            prop_assert_eq!(
                w.to_bits(), g.to_bits(),
                "lane {} differs: replay {} vs compiled {} (vl={}, native={})",
                i, w, g, vl, ct.is_native()
            );
        }
        let par = ct.par_map(3, &xs);
        for (w, g) in want.iter().zip(&par) {
            prop_assert_eq!(w.to_bits(), g.to_bits(), "par_map (vl={})", vl);
        }
    }

    /// The optimizer alone (constant folding, predicate simplification,
    /// dead-code elimination) preserves replay bits: `Trace::optimized`
    /// yields a plain trace the unmodified replayer runs to the same
    /// output, for arbitrary programs and ragged lengths.
    #[test]
    fn optimized_trace_replays_bit_identically(
        vl in 1usize..=8,
        xs in prop::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0), Just(1e308), Just(-4.25), -1e3..1e3f64],
            1..160,
        ),
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let want = t.replay_map(&xs);
        let got = t.optimized().replay_map(&xs);
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(w.to_bits(), g.to_bits(), "vl={}", vl);
        }
    }

    /// Counter identity for the compiled engine (with the obs switch on):
    /// block-scaled accounting over the *original*
    /// body must reproduce the replayer's per-op totals exactly — dead or
    /// folded ops included — so `compiled == replayer == interpreter`
    /// holds for counters, not just bits. Byte counters are included
    /// here: both executors stage exactly 8·n input bytes.
    #[test]
    fn compiled_counters_equal_replay_counters(
        vl in 1usize..=8,
        xs in prop::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0), Just(1e308), Just(-4.25), -1e3..1e3f64],
            400..1300,
        ),
        prog in prop::collection::vec(op_strategy(), 1..14),
    ) {
        let t = Trace::record1(vl, |ctx, pg, x| run_program(ctx, pg, x, &prog));
        let ct = t.compile();
        let replay = counter_delta(|| {
            let _ = t.replay_map(&xs);
        });
        let compiled = counter_delta(|| {
            let _ = ct.map(&xs);
        });
        for (i, (&a, &b)) in replay.iter().zip(compiled.iter()).enumerate() {
            prop_assert_eq!(
                a, b,
                "counter {} differs: replay {} vs compiled {} (vl={}, n={}, native={})",
                IDENTITY_COUNTERS[i].name(), a, b, vl, xs.len(), ct.is_native()
            );
        }
        let bytes = |f: &dyn Fn()| {
            let before = obs::thread_snapshot();
            f();
            obs::thread_snapshot().since(&before).get(Counter::BytesLoaded)
        };
        let rb = bytes(&|| {
            let _ = t.replay_map(&xs);
        });
        let cb = bytes(&|| {
            let _ = ct.map(&xs);
        });
        prop_assert_eq!(rb, cb, "BytesLoaded (vl={}, n={})", vl, xs.len());
        // Both stage 8·n input bytes; gathers may add table reads on top.
        prop_assert!(rb >= 8 * xs.len() as u64);
    }

    /// Scatter: replays write into the captured working table exactly as
    /// the interpreter writes into live memory (including dropped
    /// out-of-bounds lanes and last-write-wins ordering).
    #[test]
    fn scatter_replay_matches_interpreter(
        vl in 1usize..=8,
        pairs in prop::collection::vec((0i64..40, -1e3..1e3f64), 1..100),
        scale in -10.0..10.0f64,
    ) {
        let n = pairs.len();
        let idx: Vec<i64> = pairs.iter().map(|&(i, _)| i).collect();
        let vals: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
        let init: Vec<f64> = (0..32).map(|i| i as f64 * 0.125 - 2.0).collect();

        // Interpreter reference.
        let mut tab_i = init.clone();
        let mut ctx = SveCtx::new(vl);
        let sc = ctx.dup_f64(scale);
        let mut i = 0;
        while i < n {
            let pg = ctx.whilelt(i, n);
            let m = vl.min(n - i);
            let mut lbuf = vec![0i64; vl];
            let mut vbuf = vec![0.0f64; vl];
            lbuf[..m].copy_from_slice(&idx[i..i + m]);
            vbuf[..m].copy_from_slice(&vals[i..i + m]);
            let iv = ctx.input_i64(&lbuf);
            let xv = ctx.input_f64(&vbuf);
            let v2 = ctx.fmul(&pg, &xv, &sc);
            ctx.st1d_scatter(&pg, &v2, &mut tab_i, &iv);
            i += vl;
        }

        // Trace replay into the captured working copy.
        let mut tab_t = init.clone();
        let mut b = TraceBuilder::new(vl);
        let pg = b.loop_pred();
        let iv = b.input_i64();
        let xv = b.input_f64();
        b.begin_body();
        let c = b.ctx().dup_f64(scale);
        let v2 = b.ctx().fmul(&pg, &xv, &c);
        b.ctx().st1d_scatter(&pg, &v2, &mut tab_t, &iv);
        let t = b.finish(&[]);

        let mut r = t.replayer();
        let mut i = 0;
        while i < n {
            let m = vl.min(n - i);
            r.set_block(i, n);
            r.bind_i64(0, &idx[i..i + m]);
            r.bind_f64(1, &vals[i..i + m]);
            r.step();
            i += vl;
        }
        let got = r.table(0);
        prop_assert_eq!(tab_i.len(), got.len());
        for (a, b) in tab_i.iter().zip(got) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// A deterministic kernel that touches **every** traceable op class in one
/// body — belt-and-braces on top of the random programs, and the anchor
/// for the instruction-stream identity check.
fn everything_kernel(ctx: &mut SveCtx, pg: &Pred, x: &VVal) -> VVal {
    let c1 = ctx.dup_f64(1.5);
    let ci = ctx.dup_i64(7);
    let a = ctx.fadd(pg, x, &c1);
    let b = ctx.fsub(pg, &a, x);
    let m = ctx.fmul(pg, &a, &b);
    let d = ctx.fdiv(pg, &m, &c1);
    let mx = ctx.fmax(pg, &d, &c1);
    let mn = ctx.fmin(pg, &mx, &a);
    let sq = ctx.fabs(pg, &mn);
    let s = ctx.fsqrt(pg, &sq);
    let ng = ctx.fneg(pg, &s);
    let rn = ctx.frintn(pg, &ng);
    let fm = ctx.fmla(pg, &rn, &a, &b);
    let fs = ctx.fmls(pg, &fm, &a, &b);
    let re = ctx.frecpe(&sq);
    let rs = ctx.frecps(pg, &sq, &re);
    let qe = ctx.frsqrte(&sq);
    let qs = ctx.frsqrts(pg, &sq, &qe);
    let fe = ctx.fexpa(&ci);
    let ft = ctx.ftmad(pg, &fs, &fe, 0.25);
    let p1 = ctx.fcmgt(pg, &ft, &c1);
    let p2 = ctx.fcmge(pg, &ft, &c1);
    let p3 = ctx.fcmeq(pg, &ft, &ft);
    let p4 = ctx.cmpne_imm(pg, &ci, 7);
    let p5 = ctx.pand(&p1, &p2);
    let p6 = ctx.pand(&p3, &p4);
    let se = ctx.sel(&p5, &ft, &rs);
    let se2 = ctx.sel(&p6, &se, &qs);
    let i1 = ctx.add_i(pg, &se2, &ci);
    let i2 = ctx.sub_i(pg, &i1, &ci);
    let i3 = ctx.mul_i(pg, &i2, &ci);
    let i4 = ctx.and_u(pg, &i3, &ci);
    let i5 = ctx.orr_u(pg, &i4, &ci);
    let i6 = ctx.eor_u(pg, &i5, &ci);
    let s1 = ctx.lsl(pg, &i6, 3);
    let s2 = ctx.lsr(pg, &s1, 5);
    let s3 = ctx.asr(pg, &s2, 1);
    let v1 = ctx.ucvtf(pg, &s3);
    let v2 = ctx.fcvtns(pg, &v1);
    let v3 = ctx.scvtf(pg, &v2);
    let v4 = ctx.fcvtzs(pg, &v3);
    let v5 = ctx.ucvtf(pg, &v4);
    let cp = ctx.compact(&p5, &v5);
    let msk = ctx.dup_i64(TAB.len() as i64 - 1);
    let gi = ctx.and_u(pg, &v4, &msk);
    let g = ctx.ld1d_gather(&p3, &TAB, &gi, 4);
    ctx.loop_overhead(2);
    ctx.scalar_libm_call();
    let out = ctx.fadd(pg, &cp, &g);
    ctx.fmla(pg, &out, &se2, &c1)
}

#[test]
fn everything_kernel_replays_bit_identically() {
    for vl in [1usize, 3, 8] {
        let xs: Vec<f64> = (0..101).map(|i| (i as f64 - 50.0) * 0.73).collect();
        let want = {
            let mut ctx = SveCtx::new(vl);
            let mut out = Vec::new();
            let mut i = 0;
            while i < xs.len() {
                let pg = ctx.whilelt(i, xs.len());
                let mut lanes = vec![0.0; vl];
                let n = vl.min(xs.len() - i);
                lanes[..n].copy_from_slice(&xs[i..i + n]);
                let x = ctx.input_f64(&lanes);
                let y = everything_kernel(&mut ctx, &pg, &x);
                for l in 0..n {
                    out.push(y.f64_lane(l));
                }
                i += vl;
            }
            out
        };
        let got = Trace::record1(vl, everything_kernel).map(&xs);
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits(), "vl={vl}");
        }
    }
}

/// Counter identity on the everything-kernel: every traceable op class —
/// gather, scatter-free loop overhead, the scalar libm escape, FEXPA —
/// contributes, across ragged tails at several vector lengths.
#[test]
fn everything_kernel_counters_match_interpreter() {
    obs::set_enabled(true);
    for vl in [1usize, 3, 8] {
        let xs: Vec<f64> = (0..101).map(|i| (i as f64 - 50.0) * 0.73).collect();
        let interp = counter_delta(|| {
            let mut ctx = SveCtx::new(vl);
            let mut i = 0;
            while i < xs.len() {
                let pg = ctx.whilelt(i, xs.len());
                let mut lanes = vec![0.0; vl];
                let n = vl.min(xs.len() - i);
                lanes[..n].copy_from_slice(&xs[i..i + n]);
                let x = ctx.input_f64(&lanes);
                let _ = everything_kernel(&mut ctx, &pg, &x);
                i += vl;
            }
        });
        let t = Trace::record1(vl, everything_kernel);
        let replay = counter_delta(|| {
            let _ = t.map(&xs);
        });
        assert_eq!(interp, replay, "vl={vl}");
        let gather = interp[IDENTITY_COUNTERS
            .iter()
            .position(|&c| c == Counter::GatherElems)
            .unwrap()];
        let fexpa = interp[IDENTITY_COUNTERS
            .iter()
            .position(|&c| c == Counter::FexpaIssues)
            .unwrap()];
        // The gather runs under a compare-derived predicate, so only its
        // upper bound is structural; FEXPA is unpredicated — exactly one
        // issue per kernel iteration.
        assert!(
            gather > 0 && gather <= xs.len().div_ceil(vl) as u64 * vl as u64,
            "vl={vl} gather={gather}"
        );
        assert_eq!(fexpa, xs.len().div_ceil(vl) as u64, "vl={vl}");
    }
}

/// Counter identity for the scatter path (the random programs never
/// scatter, so cover it with the dedicated harness from
/// [`scatter_replay_matches_interpreter`]).
#[test]
fn scatter_counters_match_interpreter() {
    obs::set_enabled(true);
    for vl in [1usize, 3, 8] {
        let n = 41usize;
        let idx: Vec<i64> = (0..n).map(|i| (i * 7 % 32) as i64).collect();
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
        let init: Vec<f64> = (0..32).map(|i| i as f64 * 0.125 - 2.0).collect();

        let interp = counter_delta(|| {
            let mut tab = init.clone();
            let mut ctx = SveCtx::new(vl);
            let sc = ctx.dup_f64(1.5);
            let mut i = 0;
            while i < n {
                let pg = ctx.whilelt(i, n);
                let m = vl.min(n - i);
                let mut lbuf = vec![0i64; vl];
                let mut vbuf = vec![0.0f64; vl];
                lbuf[..m].copy_from_slice(&idx[i..i + m]);
                vbuf[..m].copy_from_slice(&vals[i..i + m]);
                let iv = ctx.input_i64(&lbuf);
                let xv = ctx.input_f64(&vbuf);
                let v2 = ctx.fmul(&pg, &xv, &sc);
                ctx.st1d_scatter(&pg, &v2, &mut tab, &iv);
                i += vl;
            }
        });

        let mut tab_t = init.clone();
        let mut b = TraceBuilder::new(vl);
        let pg = b.loop_pred();
        let iv = b.input_i64();
        let xv = b.input_f64();
        b.begin_body();
        let c = b.ctx().dup_f64(1.5);
        let v2 = b.ctx().fmul(&pg, &xv, &c);
        b.ctx().st1d_scatter(&pg, &v2, &mut tab_t, &iv);
        let t = b.finish(&[]);

        let replay = counter_delta(|| {
            let mut r = t.replayer();
            let mut i = 0;
            while i < n {
                let m = vl.min(n - i);
                r.set_block(i, n);
                r.bind_i64(0, &idx[i..i + m]);
                r.bind_f64(1, &vals[i..i + m]);
                r.step();
                i += vl;
            }
        });
        assert_eq!(interp, replay, "vl={vl}");
        let scatter = interp[IDENTITY_COUNTERS
            .iter()
            .position(|&c| c == Counter::ScatterElems)
            .unwrap()];
        assert_eq!(scatter, n as u64, "every lane scatters exactly once");
    }
}

#[test]
fn everything_kernel_instrs_match_interpreter_recording() {
    let vl = 8;
    let mut ctx = SveCtx::new(vl);
    let pg = ctx.ptrue();
    let x = ctx.input_f64(&vec![0.25; vl]);
    ctx.start_recording();
    let _ = everything_kernel(&mut ctx, &pg, &x);
    let want = canon(&ctx.take_recording());

    let t = Trace::record1(vl, everything_kernel);
    let got = canon(&t.to_instrs());
    assert_eq!(want, got);
}
