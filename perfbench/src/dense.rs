//! `emu-dense`: the 12 family traces that compile natively, mapped over
//! inputs from L2-resident up to four times the host's last-level cache.
//!
//! Traces are recorded and compiled once, in set-up. Every op is one bulk
//! `map`/`map2` on one thread or `par_map`/`par_map2` on the pool team,
//! so the compiled engine and the pool do nearly all of the work.
//!
//! Inputs are one buffer holding a seeded block of [`PERIOD`] values
//! repeated end to end. Every kernel here is lanewise, so an op's output
//! at element `i` depends only on its input there, and one period of
//! reference output checks any window of the buffer bit for bit.

use crate::stats::Rng;
use crate::tracer::{elems_key, Attrs, Tracer};
use crate::Workload;
use ookami_spmv::stream::{stream_ref, StreamKernel};
use ookami_sve::{CompiledTrace, Trace};
use ookami_vecmath::exp::{exp_slice_interp, exp_trace, ExpVariant};

const VL: usize = ookami_sve::VL_A64FX;

/// Elements in the repeated input block (a multiple of every block width).
pub const PERIOD: usize = 4096;

/// Smallest and largest input of the size continuum, in elements: 64 KiB
/// to 16 MiB per input, so the lower five eighths of the (log-spaced)
/// sizes are L2-resident and the rest stream past L2.
const SIZE_LO: usize = 8 * 1024;
const SIZE_HI: usize = 2 * 1024 * 1024;
/// Sizes per trace, the midpoints of log-spaced strata of the continuum.
/// Each runs at both team sizes every round (the serial-vs-parallel pairs
/// behind `core.pool.par_speedup`); on the [`large`] families one 4×LLC op
/// joins them on the team.
///
/// Graded sizes spread the latency distribution, so p50 and p90 never sit
/// on a cliff between two clusters of equal-size ops. The sizes do not
/// depend on the seed (it draws the input values, op order and input
/// windows), so every seed does the same work and the percentiles fall on
/// the same op classes.
const STRATA: usize = 24;
/// Sizes are whole rows of the compiled engine, so no op has a ragged
/// tail that would fall back to the replayer.
const SIZE_QUANTUM: usize = 1024;

/// The families that also run one 4×LLC op per round: a simple one-input
/// loop, the production exp and the two-input STREAM triad. A 4×LLC op
/// takes about as long as all of its family's other ops together, mostly
/// faulting in its fresh output; on every family they would be three
/// quarters of the workload's time and drown the compiled engine.
fn large(r: Reference) -> bool {
    matches!(
        r,
        Reference::LoopsSimple
            | Reference::Exp(ExpVariant::FexpaEstrinCorrected)
            | Reference::Stream(StreamKernel::Triad)
    )
}

/// How a family's scalar reference is computed over one period.
#[derive(Debug, Clone, Copy)]
enum Reference {
    Exp(ExpVariant),
    Stream(StreamKernel),
    LoopsSimple,
    HpccTriad,
    LuleshEos,
}

struct Family {
    trace: CompiledTrace,
    inputs: usize,
    native: bool,
    /// Guest SVE instructions per block (`Trace::to_instrs` length).
    instrs: u64,
    reference: Reference,
}

/// The 12 natively compiling family traces: `(trace, inputs, reference)`.
fn families() -> Vec<(Trace, usize, Reference)> {
    let exp = |v| (exp_trace(VL, v), 1, Reference::Exp(v));
    let stream = |k: StreamKernel| {
        (
            ookami_spmv::stream_trace(k, VL),
            k.inputs(),
            Reference::Stream(k),
        )
    };
    vec![
        (
            ookami_loops::emulated::simple_trace(VL),
            1,
            Reference::LoopsSimple,
        ),
        exp(ExpVariant::FexpaHorner),
        exp(ExpVariant::FexpaEstrin),
        exp(ExpVariant::FexpaEstrinCorrected),
        exp(ExpVariant::Poly13),
        exp(ExpVariant::Poly13Sleef),
        stream(StreamKernel::Copy),
        stream(StreamKernel::Scale),
        stream(StreamKernel::Add),
        stream(StreamKernel::Triad),
        (
            ookami_bench::family::hpcc_triad_trace(VL),
            2,
            Reference::HpccTriad,
        ),
        (
            ookami_bench::family::lulesh_eos_trace(VL),
            1,
            Reference::LuleshEos,
        ),
    ]
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub family: usize,
    /// Index into the family's size menu; [`STRATA`] for the 4×LLC op.
    pub stratum: usize,
    /// Input elements.
    pub n: usize,
    pub threads: usize,
    /// Start of the first input window in the buffer.
    pub off: usize,
}

pub struct Dense {
    fams: Vec<Family>,
    period: Vec<f64>,
    buf: Vec<f64>,
    /// Per family: one period of reference output (filled by
    /// [`Workload::prepare_references`], outside set-up time).
    refs: Vec<Vec<f64>>,
    /// The input size of each stratum.
    sizes: Vec<usize>,
    large: usize,
    threads: usize,
}

/// Distance between the two input windows of a two-input op: past the
/// first window and congruent to `PERIOD / 2`, so the second input's
/// period phase is always half a period ahead of the first.
fn shift(n: usize) -> usize {
    n.div_ceil(PERIOD) * PERIOD + PERIOD / 2
}

impl Dense {
    /// `llc_bytes` sizes the largest inputs; `threads` is the team size of
    /// the parallel ops.
    pub fn setup(seed: u64, llc_bytes: usize, threads: usize, tr: &mut Tracer) -> Dense {
        let mut rng = Rng::new(seed);
        let period: Vec<f64> = (0..PERIOD).map(|_| rng.uniform(-40.0, 40.0)).collect();
        // The largest one-input op reads `large` elements (≥ 4×LLC bytes);
        // the largest two-input op reads two windows of `large / 2`.
        let large = (4 * llc_bytes / 8).div_ceil(PERIOD) * PERIOD;
        let len = large.max(2 * SIZE_HI) + 2 * PERIOD;
        let buf: Vec<f64> = period.iter().copied().cycle().take(len).collect();
        let mut fams = Vec::new();
        for (t, inputs, reference) in tr.span("sve.record", families) {
            let trace = tr.span("sve.compile", || t.compile());
            let report = trace.report();
            tr.count("sve.record.calls", 1);
            tr.count("sve.compile.calls", 1);
            tr.count("sve.compile.native", u64::from(report.native));
            tr.count("sve.compile.body_ops", report.body_ops as u64);
            tr.count("sve.compile.opt_ops", report.opt_ops as u64);
            fams.push(Family {
                native: report.native,
                instrs: t.to_instrs().len() as u64,
                trace,
                inputs,
                reference,
            });
        }
        let span = (SIZE_HI / SIZE_LO) as f64;
        let sizes = (0..STRATA)
            .map(|k| {
                let n = SIZE_LO as f64 * span.powf((k as f64 + 0.5) / STRATA as f64);
                (n as usize).div_ceil(SIZE_QUANTUM) * SIZE_QUANTUM
            })
            .collect();
        Dense {
            fams,
            period,
            buf,
            refs: Vec::new(),
            sizes,
            large,
            threads,
        }
    }

    /// The reference over one period for family `f`.
    fn reference(&self, f: usize) -> Vec<f64> {
        let p = &self.period;
        let q: Vec<f64> = (0..PERIOD).map(|j| p[(j + PERIOD / 2) % PERIOD]).collect();
        match self.fams[f].reference {
            Reference::Exp(v) => exp_slice_interp(VL, p, v),
            Reference::Stream(k) => stream_ref(k, p, (k.inputs() == 2).then_some(&q[..])),
            Reference::LoopsSimple => p.iter().map(|&x| 2.0 * x + 3.0 * x * x).collect(),
            Reference::HpccTriad => p
                .iter()
                .zip(&q)
                .map(|(&b, &c)| 3.0f64.mul_add(c, b))
                .collect(),
            Reference::LuleshEos => p
                .iter()
                .map(|&e| {
                    let t = 1.0e-4f64.mul_add(e, 2.0 / 3.0);
                    let pr = t.mul_add(e, 1.0e-9);
                    if pr > 0.0 {
                        pr
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self, family: usize) {
        self.refs[family][0] += 1.0;
    }
}

impl Workload for Dense {
    type Op = Op;
    type Output = Vec<f64>;

    fn round(&self, rng: &mut Rng) -> Vec<Op> {
        let mut ops = Vec::new();
        for (family, f) in self.fams.iter().enumerate() {
            for (stratum, &n) in self.sizes.iter().enumerate() {
                for threads in [1, self.threads] {
                    let span = if f.inputs == 2 { n + shift(n) } else { n };
                    ops.push(Op {
                        family,
                        stratum,
                        n,
                        threads,
                        off: rng.below(self.buf.len() - span),
                    });
                }
            }
            // The largest ops read the whole buffer: one input of `large`
            // elements, or two of `large / 2`.
            if large(f.reference) {
                ops.push(Op {
                    family,
                    stratum: STRATA,
                    n: self.large / f.inputs,
                    threads: self.threads,
                    off: 0,
                });
            }
        }
        rng.shuffle(&mut ops);
        ops
    }

    fn execute(&mut self, op: &Op, tr: &mut Tracer) -> Vec<f64> {
        let f = &self.fams[op.family];
        let n = op.n;
        let xs = &self.buf[op.off..op.off + n];
        tr.count("guest_instrs", f.instrs * n.div_ceil(VL) as u64);
        let w = Attrs {
            work: n as u64,
            threads: op.threads as u32,
            paired: op.stratum < STRATA,
        };
        let layer = if f.native {
            "sve.exec.compiled"
        } else {
            "sve.exec.replay"
        };
        tr.count(elems_key(layer), n as u64);
        tr.span_with(layer, w, || {
            let t = &f.trace;
            if f.inputs == 1 {
                if op.threads == 1 {
                    t.map(xs)
                } else {
                    t.par_map(op.threads, xs)
                }
            } else {
                let s = op.off + shift(n);
                let ys = &self.buf[s..s + n];
                if op.threads == 1 {
                    t.map2(xs, ys)
                } else {
                    t.par_map2(op.threads, xs, ys)
                }
            }
        })
    }

    fn check(&self, op: &Op, out: Vec<f64>) -> bool {
        let r = &self.refs[op.family];
        out.len() == op.n
            && out
                .iter()
                .enumerate()
                .all(|(i, y)| y.to_bits() == r[(op.off + i) % PERIOD].to_bits())
    }

    fn prepare_references(&mut self) {
        self.refs = (0..self.fams.len()).map(|f| self.reference(f)).collect();
    }
}
