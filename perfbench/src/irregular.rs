//! `emu-irregular`: the irregular families, each op on fresh operands.
//!
//! Every op records its trace over the op's operands, runs it through the
//! family's public runner, and — for the SpMV and stencil families —
//! replays the op's address stream through the A64FX cache simulator
//! (the ECM traffic terms). None of these families compiles natively, so
//! the replayer runs the bulk work; recording, compiling and the cache
//! simulator run on every op.
//!
//! A round visits every `(family, operand, team size)` of the seeded
//! operand pool once, in seeded order, so every round does the same
//! simulated work and its exact counts repeat round after round.

use crate::stats::Rng;
use crate::tracer::{elems_key, Attrs, Tracer};
use crate::Workload;
use ookami_bench::ecm::ecm_hints;
use ookami_loops::{emulated as loops_em, suite::LoopSuite};
use ookami_mc::emulated::{metropolis_trace, sample_emulated, sample_emulated_interp};
use ookami_spmv::{memtrace, Crs, SellCSigma, Stencil};
use ookami_uarch::machines;

const VL: usize = ookami_sve::VL_A64FX;

/// Columns of the random SpMV operands: `x` is 256 KiB, five L1s.
const SPMV_COLS: usize = 32 * 1024;
/// Sort window of the SELL-C-σ packs.
const SELL_SIGMA: usize = 64;
/// Operands per family. Their sizes are the midpoints of log-spaced strata
/// of the family's size range: graded sizes spread the latency
/// distribution, so p50 and p90 never sit on a cliff between two operand
/// sizes. The sizes do not depend on the seed (it draws the operands'
/// structure and values), so every seed does the same amount of work.
const OPERANDS: usize = 8;

/// The midpoint of stratum `k` of [`OPERANDS`] log-spaced strata of
/// `[lo, hi)`, rounded up to a multiple of `q`.
fn stratified(k: usize, (lo, hi): (usize, usize), q: usize) -> usize {
    let u = (k as f64 + 0.5) / OPERANDS as f64;
    let n = lo as f64 * (hi as f64 / lo as f64).powf(u);
    (n as usize).div_ceil(q) * q
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    SpmvCrs,
    SpmvSell,
    Stencil4,
    Stencil7,
    LoopsGather,
    LoopsScatter,
    McMetropolis,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub family: Family,
    /// Index into the family's operand pool.
    pub operand: usize,
    pub threads: usize,
}

struct SpmvOperand {
    m: Crs,
    x: Vec<f64>,
}

struct StencilOperand {
    st: Stencil,
    u: Vec<f64>,
    sites: Vec<f64>,
}

struct LoopOperand {
    suite: LoopSuite,
    short: bool,
}

/// What an op produced, checked against the references afterwards.
#[derive(Debug, PartialEq)]
pub enum Output {
    Vector(Vec<f64>),
    Mc(f64, f64),
}

pub struct Irregular {
    spmv: Vec<SpmvOperand>,
    stencil4: Vec<StencilOperand>,
    stencil7: Vec<StencilOperand>,
    gather: Vec<LoopOperand>,
    scatter: Vec<LoopOperand>,
    /// `(seed, steps)` of each Monte Carlo operand.
    mc: Vec<(u64, usize)>,
    /// Guest instructions per block of the loops gather/scatter traces and
    /// per step of the Metropolis trace (recording does not depend on the
    /// operand data).
    gather_instrs: u64,
    scatter_instrs: u64,
    mc_instrs: u64,
    threads: usize,
    refs: Refs,
}

#[derive(Default)]
struct Refs {
    spmv: Vec<Vec<f64>>,
    stencil4: Vec<Vec<f64>>,
    stencil7: Vec<Vec<f64>>,
    gather: Vec<Vec<f64>>,
    scatter: Vec<Vec<f64>>,
    mc: Vec<(f64, f64)>,
}

fn seeded(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn stencil_operand(rng: &mut Rng, st: Stencil) -> StencilOperand {
    StencilOperand {
        u: seeded(rng, st.n),
        sites: st.sites_f64(),
        st,
    }
}

impl Irregular {
    pub fn setup(seed: u64, threads: usize) -> Irregular {
        let mut rng = Rng::new(seed);
        // SpMV: random fixed-width, ragged and banded CRS matrices of
        // 1–4 Ki rows; the banded ones are square with 8 columns per row.
        let spmv = (0..OPERANDS)
            .map(|k| {
                let rows = stratified(k, (1024, 4096), VL);
                let m = match k % 3 {
                    0 => Crs::random_fixed(rows, SPMV_COLS, 12, rng.next_u64()),
                    1 => Crs::ragged(rows, SPMV_COLS, 24, rng.next_u64()),
                    _ => Crs::banded(8 * rows, 1),
                };
                SpmvOperand {
                    x: seeded(&mut rng, m.n_cols),
                    m,
                }
            })
            .collect();
        // Stencils: power-of-two lattices of 4–32 Ki sites.
        let stencil4 = [(64, 64), (128, 64), (128, 128), (256, 128)]
            .map(|(x, y)| stencil_operand(&mut rng, Stencil::d2(x, y, 0.5, -0.125)))
            .into();
        let stencil7 = [(16, 16, 16), (32, 16, 16), (32, 32, 16), (32, 32, 32)]
            .map(|(x, y, z)| stencil_operand(&mut rng, Stencil::d3(x, y, z, 0.5, -0.125)))
            .into();
        // Loop suites of 8–32 Ki elements, full and short index vectors.
        let loops = |rng: &mut Rng| -> Vec<LoopOperand> {
            (0..OPERANDS)
                .map(|k| LoopOperand {
                    suite: LoopSuite::new(stratified(k, (8 * 1024, 32 * 1024), 16), rng.next_u64()),
                    short: k % 2 == 1,
                })
                .collect()
        };
        let gather = loops(&mut rng);
        let scatter = loops(&mut rng);
        // Monte Carlo: 1000–4000 Metropolis steps of 8 chains.
        let mc: Vec<(u64, usize)> = (0..OPERANDS)
            .map(|k| (rng.next_u64(), stratified(k, (1000, 4000), 1)))
            .collect();
        let tab = vec![0.0f64; 16];
        let mut scratch = vec![0.0f64; 16];
        Irregular {
            spmv,
            stencil4,
            stencil7,
            gather,
            scatter,
            gather_instrs: loops_em::gather_trace(VL, &tab, 1).to_instrs().len() as u64,
            scatter_instrs: loops_em::scatter_trace(VL, &mut scratch).to_instrs().len() as u64,
            mc_instrs: metropolis_trace(VL, 0).0.to_instrs().len() as u64,
            mc,
            threads,
            refs: Refs::default(),
        }
    }

    fn pool_len(&self, f: Family) -> usize {
        match f {
            Family::SpmvCrs | Family::SpmvSell => self.spmv.len(),
            Family::Stencil4 => self.stencil4.len(),
            Family::Stencil7 => self.stencil7.len(),
            Family::LoopsGather => self.gather.len(),
            Family::LoopsScatter => self.scatter.len(),
            Family::McMetropolis => self.mc.len(),
        }
    }

    /// Replay an op's address stream through a cold A64FX hierarchy.
    fn simulate(tr: &mut Tracer, addrs: &[(u64, usize)]) {
        let n = addrs.len() as u64;
        let w = Attrs {
            work: n,
            threads: 1,
            paired: false,
        };
        let mem = machines::a64fx().mem;
        let stats = tr.span_with("mem.cachesim", w, || memtrace::simulate(mem, addrs));
        tr.count("mem.cachesim.accesses", stats.accesses);
        tr.count("mem.cachesim.l1_hits", stats.l1_hits);
        tr.count("mem.cachesim.mem_lines", stats.l2_mem_lines());
    }

    fn stencil(&self, op: &Op, tr: &mut Tracer) -> Vec<f64> {
        let o = if op.family == Family::Stencil4 {
            &self.stencil4[op.operand]
        } else {
            &self.stencil7[op.operand]
        };
        let t = tr.span("sve.record", || o.st.trace(&o.u, VL, VL as u32));
        tr.count("sve.record.calls", 1);
        let ct = tr.span("sve.compile", || t.compile());
        let report = ct.report();
        tr.count("sve.compile.calls", 1);
        tr.count("sve.compile.native", u64::from(report.native));
        tr.count("sve.compile.body_ops", report.body_ops as u64);
        tr.count("sve.compile.opt_ops", report.opt_ops as u64);
        let n = o.st.n;
        tr.count(
            "guest_instrs",
            t.to_instrs().len() as u64 * n.div_ceil(VL) as u64,
        );
        let layer = if report.native {
            "sve.exec.compiled"
        } else {
            "sve.exec.replay"
        };
        tr.count(elems_key(layer), n as u64);
        let w = Attrs {
            work: n as u64,
            threads: op.threads as u32,
            paired: true,
        };
        let y = tr.span_with(layer, w, || {
            if op.threads == 1 {
                ct.map(&o.sites)
            } else {
                ct.par_map(op.threads, &o.sites)
            }
        });
        let addrs = tr.span("spmv.addr_trace", || memtrace::stencil_addr_trace(&o.st));
        Self::simulate(tr, &addrs);
        y
    }

    fn spmv(&self, op: &Op, tr: &mut Tracer) -> Vec<f64> {
        let SpmvOperand { m, x } = &self.spmv[op.operand];
        let hints = ecm_hints(VL);
        let w = Attrs {
            work: m.nnz() as u64,
            threads: op.threads as u32,
            paired: true,
        };
        tr.count("sve.record.calls", 1);
        tr.count("sve.exec.replay.elems", m.nnz() as u64);
        tr.count("spmv.nnz", m.nnz() as u64);
        if op.family == Family::SpmvCrs {
            let t = tr.span("sve.record", || ookami_spmv::crs_trace(m, x, VL, hints));
            let padded = m.block_padded_nnz(VL) as u64;
            tr.count("spmv.padded", padded);
            tr.count(
                "guest_instrs",
                t.to_instrs().len() as u64 * padded / VL as u64,
            );
            let y = tr.span_with("sve.exec.replay", w, || {
                if op.threads == 1 {
                    ookami_spmv::run_crs_replay(&t, m)
                } else {
                    ookami_spmv::run_crs_replay_par(op.threads, &t, m)
                }
            });
            let addrs = tr.span("spmv.addr_trace", || memtrace::crs_addr_trace(m));
            Self::simulate(tr, &addrs);
            y
        } else {
            let s = tr.span("spmv.sell_pack", || SellCSigma::from_crs(m, VL, SELL_SIGMA));
            let t = tr.span("sve.record", || ookami_spmv::sell_trace(&s, x, hints));
            let padded = s.padded_nnz() as u64;
            tr.count("spmv.padded", padded);
            tr.count(
                "guest_instrs",
                t.to_instrs().len() as u64 * padded / s.c as u64,
            );
            let y = tr.span_with("sve.exec.replay", w, || {
                if op.threads == 1 {
                    ookami_spmv::run_sell_replay(&t, &s)
                } else {
                    ookami_spmv::run_sell_replay_par(op.threads, &t, &s)
                }
            });
            let addrs = tr.span("spmv.addr_trace", || memtrace::sell_addr_trace(&s));
            Self::simulate(tr, &addrs);
            y
        }
    }

    /// The loops runners record their own trace inside the call, so the
    /// whole call is the replay span.
    fn loops(&mut self, op: &Op, tr: &mut Tracer) -> Vec<f64> {
        let gather = op.family == Family::LoopsGather;
        let (o, instrs) = if gather {
            (&mut self.gather[op.operand], self.gather_instrs)
        } else {
            (&mut self.scatter[op.operand], self.scatter_instrs)
        };
        let n = o.suite.n;
        tr.count("sve.record.calls", 1);
        tr.count("sve.exec.replay.elems", n as u64);
        tr.count("guest_instrs", instrs * n.div_ceil(VL) as u64);
        let w = Attrs {
            work: n as u64,
            threads: 1,
            paired: false,
        };
        let short = o.short;
        let suite = &mut o.suite;
        tr.span_with("sve.exec.replay", w, || {
            if gather {
                loops_em::run_gather_sve(suite, VL, short, machines::a64fx());
            } else {
                loops_em::run_scatter_sve(suite, VL, short);
            }
        });
        suite.y.clone()
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.refs.spmv[0][0] += 1.0;
    }
}

impl Workload for Irregular {
    type Op = Op;
    type Output = Output;

    fn round(&self, rng: &mut Rng) -> Vec<Op> {
        let mut ops = Vec::new();
        for family in [
            Family::SpmvCrs,
            Family::SpmvSell,
            Family::Stencil4,
            Family::Stencil7,
            Family::LoopsGather,
            Family::LoopsScatter,
            Family::McMetropolis,
        ] {
            // The loops and Monte Carlo runners have no parallel form.
            let teams = match family {
                Family::LoopsGather | Family::LoopsScatter | Family::McMetropolis => vec![1],
                _ => vec![1, self.threads],
            };
            for operand in 0..self.pool_len(family) {
                for &threads in &teams {
                    ops.push(Op {
                        family,
                        operand,
                        threads,
                    });
                }
            }
        }
        rng.shuffle(&mut ops);
        ops
    }

    fn execute(&mut self, op: &Op, tr: &mut Tracer) -> Output {
        match op.family {
            Family::SpmvCrs | Family::SpmvSell => Output::Vector(self.spmv(op, tr)),
            Family::Stencil4 | Family::Stencil7 => Output::Vector(self.stencil(op, tr)),
            Family::LoopsGather | Family::LoopsScatter => Output::Vector(self.loops(op, tr)),
            Family::McMetropolis => {
                let (seed, steps) = self.mc[op.operand];
                tr.count("sve.record.calls", 1);
                tr.count("sve.exec.replay.elems", (steps * VL) as u64);
                tr.count("guest_instrs", self.mc_instrs * steps as u64);
                let w = Attrs {
                    work: (steps * VL) as u64,
                    threads: 1,
                    paired: false,
                };
                let (mean, acc) =
                    tr.span_with("sve.exec.replay", w, || sample_emulated(VL, steps, seed));
                Output::Mc(mean, acc)
            }
        }
    }

    fn check(&self, op: &Op, out: Output) -> bool {
        let r = &self.refs;
        let want: &[f64] = match op.family {
            Family::SpmvCrs | Family::SpmvSell => &r.spmv[op.operand],
            Family::Stencil4 => &r.stencil4[op.operand],
            Family::Stencil7 => &r.stencil7[op.operand],
            Family::LoopsGather => &r.gather[op.operand],
            Family::LoopsScatter => &r.scatter[op.operand],
            Family::McMetropolis => {
                let (m, a) = r.mc[op.operand];
                return matches!(out, Output::Mc(gm, ga)
                    if gm.to_bits() == m.to_bits() && ga.to_bits() == a.to_bits());
            }
        };
        match out {
            Output::Vector(y) => {
                y.len() == want.len() && y.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            Output::Mc(..) => false,
        }
    }

    /// Fused scalar references (`spmv_ref`, `apply_ref`, the native loop
    /// suite) and the interpreter for the Monte Carlo chains.
    fn prepare_references(&mut self) {
        let loop_ref = |o: &LoopOperand, gather: bool| {
            let mut s = o.suite.clone();
            if gather {
                s.run_gather(o.short);
            } else {
                s.run_scatter(o.short);
            }
            s.y
        };
        self.refs = Refs {
            spmv: self.spmv.iter().map(|o| o.m.spmv_ref(&o.x)).collect(),
            stencil4: self.stencil4.iter().map(|o| o.st.apply_ref(&o.u)).collect(),
            stencil7: self.stencil7.iter().map(|o| o.st.apply_ref(&o.u)).collect(),
            gather: self.gather.iter().map(|o| loop_ref(o, true)).collect(),
            scatter: self.scatter.iter().map(|o| loop_ref(o, false)).collect(),
            mc: self
                .mc
                .iter()
                .map(|&(seed, steps)| sample_emulated_interp(VL, steps, seed))
                .collect(),
        };
    }
}
