//! The two simulator workloads: `bh-64` and `graph-repl`.
//!
//! Untimed reference outputs are computed once at set-up; every solve is
//! then checked against them. Untraced solves go through the program's
//! own drivers (`run_phase`, `run_phase_differential`). Traced solves wrap
//! the layers from outside: `PtrApp` callbacks through [`TracedApp`],
//! `Proc` handlers through [`TracedProc`] on a `Machine` built here, and
//! the phase drivers' `mk`/`collect` closures, which bracket each phase
//! and each boundary.

use crate::trace;
use apps::bh_dist::{BhApp, BhCost, BhWorld};
use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use dpa_core::{
    run_phase, run_phase_differential, DpaConfig, DpaProc, DstOptions, PtrApp, WorkEnv,
};
use global_heap::GPtr;
use nbody::bh::{all_accels, rel_err, BhParams, WalkResult};
use nbody::distrib::plummer;
use nbody::vec3::Vec3;
use sim_net::{Ctx, Machine, NetConfig, NodeId, NodeStats, Proc, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// Span names. Each is `<layer>.<seam>`; the layer prefix is what the
/// per-layer ledger attributes self time to.
pub const SOLVE: &str = "bench.solve";
pub const PHASE: &str = "dpa-core.phase";
pub const BOUNDARY: &str = "dpa-core.boundary";
pub const RUN: &str = "sim-net.run";
pub const HANDLER: &str = "dpa-core.handler";
pub const WORK: &str = "apps.work";

/// Largest relative deviation allowed between a simulated force and the
/// plain sequential solve: the two sum the same terms in another
/// order, so only rounding may differ.
const FP_RTOL: f64 = 1e-9;

/// The largest of `errs`; NaN when any is NaN.
fn worst(errs: impl Iterator<Item = f64>) -> f64 {
    errs.fold(0.0, |m, e| if e.is_nan() || e > m { e } else { m })
}

/// What one solve produced, split into what must repeat exactly
/// (`reports`, `checksum`) and what the oracle checks (`output`).
pub struct Solve<O> {
    pub reports: Vec<RunReport>,
    pub checksum: u64,
    pub output: O,
}

/// A simulator workload as the runner drives it.
pub trait Sim {
    type Output;
    /// One solve: untraced through the program's drivers, or traced
    /// through the benchmark's wrappers.
    fn solve(&self, traced: bool) -> Solve<Self::Output>;
    /// Compare a solve's output with the reference computed at set-up.
    fn check(&self, out: &Self::Output) -> Result<(), String>;
    /// Seconds of the plain single-threaded `nbody` solve of the same
    /// input, when the workload has one.
    fn seq_solve_s(&self) -> Option<f64>;
}

/// A `PtrApp` whose work callbacks are recorded as `apps.work` spans.
pub struct TracedApp<A>(pub A);

impl<A: PtrApp> PtrApp for TracedApp<A> {
    type Work = A::Work;

    fn num_iterations(&self) -> usize {
        self.0.num_iterations()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, A::Work>) {
        trace::leaf(WORK, || self.0.start_iteration(iter, env))
    }

    fn run_work(&mut self, work: A::Work, env: &mut WorkEnv<'_, A::Work>) {
        trace::leaf(WORK, || self.0.run_work(work, env))
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.0.object_size(ptr)
    }

    fn work_state_bytes(&self) -> u32 {
        self.0.work_state_bytes()
    }

    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        self.0.apply_update(ptr, value)
    }

    fn object_generation(&self, ptr: GPtr) -> u32 {
        self.0.object_generation(ptr)
    }
}

/// A `Proc` whose handlers are recorded as `dpa-core.handler` spans.
pub struct TracedProc<P>(pub P);

impl<P: Proc> Proc for TracedProc<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        let _s = trace::span(HANDLER);
        self.0.on_start(ctx)
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, P::Msg>, src: NodeId, msg: P::Msg) {
        let _s = trace::span(HANDLER);
        self.0.on_message(ctx, src, msg)
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        let _s = trace::span(HANDLER);
        self.0.on_wake(ctx)
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        let _s = trace::span(HANDLER);
        self.0.on_finish(stats)
    }

    fn stall_detail(&self) -> Option<String> {
        self.0.stall_detail()
    }
}

/// The traced twin of `dpa_core::run_phase` for the DPA variant: the same
/// procs on the same machine and engine, with every layer seam wrapped.
/// The phase span runs from the first `mk` to the first `collect`.
fn run_phase_wrapped<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    mut mk: impl FnMut(u16) -> A,
    mut collect: impl FnMut(u16, &A),
) -> RunReport {
    trace::enter(PHASE);
    let procs: Vec<_> = (0..nodes)
        .map(|i| TracedProc(DpaProc::new(TracedApp(mk(i)), nodes as usize, cfg.clone())))
        .collect();
    let mut m = Machine::new(procs, net);
    let report = {
        let _run = trace::span(RUN);
        m.run()
    };
    trace::exit();
    assert!(
        report.completed,
        "phase stalled: {}",
        report.stall_summary()
    );
    for i in 0..nodes {
        collect(i, &m.proc(NodeId(i)).0.app().0);
    }
    report
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- bh-64

/// `bh-64`: the paper's Barnes-Hut force phase.
pub struct Bh {
    world: Arc<BhWorld>,
    reference: Vec<WalkResult>,
    seq_s: f64,
}

/// Per-node accelerations and interaction counts of one BH solve.
pub struct BhOut {
    accel: Vec<Vec3>,
    cell_interactions: u64,
    body_interactions: u64,
}

impl Bh {
    /// Input generation plus world and tree build: the set-up a user pays.
    pub fn build_world(bodies: usize, nodes: u16, seed: u64) -> Arc<BhWorld> {
        BhWorld::build(
            plummer(bodies, seed),
            nodes,
            bench::BH_LEAF_CAP,
            BhParams::default(),
            BhCost::default(),
        )
    }

    /// Wrap a built world and compute the sequential reference.
    pub fn new(world: Arc<BhWorld>) -> Bh {
        let (reference, seq_s) = timed(|| all_accels(&world.tree, &world.bodies, world.params));
        Bh {
            world,
            reference,
            seq_s,
        }
    }
}

impl Sim for Bh {
    type Output = BhOut;

    fn solve(&self, traced: bool) -> Solve<BhOut> {
        let w = &self.world;
        let mut out = BhOut {
            accel: vec![Vec3::ZERO; w.bodies.len()],
            cell_interactions: 0,
            body_interactions: 0,
        };
        let mut checksum = 0u64;
        let mut collect = |i: u16, app: &BhApp| {
            let base = w.splits[i as usize];
            out.accel[base..base + app.accel.len()].copy_from_slice(&app.accel);
            out.cell_interactions += app.cell_interactions;
            out.body_interactions += app.body_interactions;
            checksum = checksum.wrapping_add(app.interaction_hash);
        };
        let mk = |i: u16| BhApp::new(w.clone(), i);
        let cfg = DpaConfig::dpa(50);
        let report = if traced {
            run_phase_wrapped(w.nodes, bench::paper_net(), cfg, mk, &mut collect)
        } else {
            run_phase(w.nodes, bench::paper_net(), cfg, mk, &mut collect)
        };
        Solve {
            reports: vec![report],
            checksum,
            output: out,
        }
    }

    fn check(&self, out: &BhOut) -> Result<(), String> {
        let cells: u64 = self.reference.iter().map(|r| r.cell_interactions).sum();
        let bodies: u64 = self.reference.iter().map(|r| r.body_interactions).sum();
        if (out.cell_interactions, out.body_interactions) != (cells, bodies) {
            return Err(format!(
                "interaction counts {}/{} differ from the sequential solve's {cells}/{bodies}",
                out.cell_interactions, out.body_interactions
            ));
        }
        let worst = worst(
            out.accel
                .iter()
                .zip(&self.reference)
                .map(|(a, r)| rel_err(*a, r.acc)),
        );
        if worst.is_nan() || worst > FP_RTOL {
            return Err(format!(
                "acceleration off the sequential solve by {worst:e}"
            ));
        }
        Ok(())
    }

    fn seq_solve_s(&self) -> Option<f64> {
        Some(self.seq_s)
    }
}

// ----------------------------------------------------------- graph-repl

/// `graph-repl`: multi-phase power-law closure under replication, over
/// several independently seeded graphs per solve. How much a closure
/// reaches depends on each graph's hub structure, so one graph's event
/// count moves by about a seventh (coefficient of variation) from seed to
/// seed; summing a dozen graphs evens that out to about 4%.
pub struct Graph {
    worlds: Vec<Arc<GraphWorld>>,
    /// Per world, `expected[phase * nodes + node]`: the host oracle's
    /// closure sums.
    expected: Vec<Vec<(u64, u64)>>,
}

impl Graph {
    /// Input generation: the per-phase adjacency of `count` rewired
    /// graphs, seeded `seed * count + j`.
    pub fn build_worlds(params: GraphParams, count: u64, seed: u64) -> Vec<Arc<GraphWorld>> {
        (0..count)
            .map(|j| {
                GraphWorld::build(GraphParams {
                    seed: seed.wrapping_mul(count).wrapping_add(j),
                    ..params
                })
            })
            .collect()
    }

    /// Wrap built worlds and evaluate the host oracle for every
    /// (phase, node).
    pub fn new(worlds: Vec<Arc<GraphWorld>>) -> Graph {
        let expected = worlds
            .iter()
            .map(|w| {
                let p = w.params;
                (0..p.phases)
                    .flat_map(|ph| (0..p.nodes).map(move |i| (ph, i)))
                    .map(|(ph, i)| w.expected(ph, i))
                    .collect()
            })
            .collect();
        Graph { worlds, expected }
    }
}

impl Sim for Graph {
    type Output = Vec<Vec<(u64, u64)>>;

    fn solve(&self, traced: bool) -> Solve<Self::Output> {
        let mut reports = Vec::new();
        let mut output = Vec::with_capacity(self.worlds.len());
        for w in &self.worlds {
            let (nodes, phases) = (w.params.nodes, w.params.phases as usize);
            let cfg = DpaConfig::dpa_replicating(8);
            let opts = DstOptions::default();
            let mut sums = vec![(0u64, 0u64); phases * nodes as usize];
            let (r, _, _) = if traced {
                // Each phase span runs from the phase's first `mk` to its
                // first `collect`; each boundary span from the last
                // `collect` to the next phase's first `mk`. The driver
                // builds its own machine, so a phase span covers sim-net
                // and dpa-core together.
                let mk = |ph: usize, i: u16| {
                    if i == 0 {
                        if ph > 0 {
                            trace::exit();
                        }
                        trace::enter(PHASE);
                    }
                    TracedApp(GraphApp::new(w.clone(), i, ph as u32))
                };
                let collect = |ph: usize, i: u16, app: &TracedApp<GraphApp>| {
                    if i == 0 {
                        trace::exit();
                    }
                    sums[ph * nodes as usize + i as usize] = (app.0.sum, app.0.reached);
                    if i + 1 == nodes && ph + 1 < phases {
                        trace::enter(BOUNDARY);
                    }
                };
                run_phase_differential(nodes, bench::paper_net(), cfg, &opts, phases, mk, collect)
            } else {
                let mk = |ph: usize, i: u16| GraphApp::new(w.clone(), i, ph as u32);
                let collect = |ph: usize, i: u16, app: &GraphApp| {
                    sums[ph * nodes as usize + i as usize] = (app.sum, app.reached);
                };
                run_phase_differential(nodes, bench::paper_net(), cfg, &opts, phases, mk, collect)
            };
            if let Some(r) = r.iter().find(|r| !r.completed) {
                panic!("graph phase stalled: {}", r.stall_summary());
            }
            reports.extend(r);
            output.push(sums);
        }
        let checksum = output
            .iter()
            .flatten()
            .fold(0u64, |h, &(s, r)| h.rotate_left(7) ^ s.wrapping_add(r));
        Solve {
            reports,
            checksum,
            output,
        }
    }

    fn check(&self, output: &Self::Output) -> Result<(), String> {
        for (g, (sums, expected)) in output.iter().zip(&self.expected).enumerate() {
            if let Some(at) = sums.iter().zip(expected).position(|(a, b)| a != b) {
                let nodes = self.worlds[g].params.nodes as usize;
                return Err(format!(
                    "graph {g}: closure sums at phase {} node {} are {:?}, oracle says {:?}",
                    at / nodes,
                    at % nodes,
                    sums[at],
                    expected[at]
                ));
            }
        }
        Ok(())
    }

    fn seq_solve_s(&self) -> Option<f64> {
        None
    }
}
