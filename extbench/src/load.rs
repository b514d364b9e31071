//! `load`: the control plane only; no packets run in the timed phase.
//!
//! Each lane boots one kernel with four tenants. An op is one hot
//! `upgrade` of a tenant to the next program of a seeded walk through
//! the corpus: the feature-ladder programs (12 the verifier accepts, 11
//! violations with a known [`RejectCheck`]) and straight-line, diamond
//! and counted-loop programs at several sizes. In the `safe` lane the op
//! is `Loader::load` of the program's toolchain-signed artifact (built
//! in setup) followed by `upgrade`. One epoch is four passes over the
//! corpus; between epochs every tenant is unloaded (the leak census),
//! the audit log is emptied and the registry is rebuilt, so memory does
//! not grow with the number of ops a run completes.
//!
//! Oracle: each upgrade's verdict is the corpus's known answer; a
//! rejection carries the verifier's message for the expected check, and
//! the sandbox and safe lanes accept every program.

use std::time::Instant;

use ebpf::maps::{MapDef, MapFd};
use ebpf::program::{ProgType, Program};
use safe_ext::Extension;
use tenancy::{HookInput, RunVerdict, TenantBudget, TenantId};
use verifier::{RejectCheck, Verifier};

use crate::lanes::{Code, Install, Lane, LaneRt, Replay, Shadow, World};
use crate::phase::{drive, permutation, reset, Config, Outcome, Size, Workload};
use crate::progs;
use crate::stats::ns_between;
use crate::trace::Tracer;

const TENANTS: u32 = 4;
const POINT: &str = "prog";
const BLOCK: usize = 4;
const CYCLES_PER_EPOCH: usize = 4;
const HOME: &str = "home";

const HOME_SOURCE: &str = "fn home(_ctx: &ExtCtx) -> Result<u64, ExtError> {\n    Ok(0)\n}\n";

/// The known answer for one corpus program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Accept,
    Reject(RejectCheck),
}

pub struct Entry {
    pub code: Code,
    pub expect: Expect,
    source: String,
    requires: Vec<&'static str>,
    /// The verifying lanes' expected error text for a rejection.
    reject_msg: Option<String>,
}

/// The kernel-wide maps the ladder programs reference, created in this
/// order on every kernel so their fds agree.
fn corpus_maps() -> [MapDef; 3] {
    [
        MapDef::array("ladder-arr", 64, 4),
        MapDef::prog_array("ladder-progs", 4),
        MapDef::ringbuf("ladder-rb", 4096),
    ]
}

/// Source text for a generated program: one line per instruction, so
/// the toolchain's safety scan scales with program size.
fn generated_source(name: &str, lines: usize) -> String {
    let mut s =
        format!("fn {name}(_ctx: &ExtCtx) -> Result<u64, ExtError> {{\n    let mut r = 0u64;\n");
    for i in 0..lines {
        s.push_str(&format!("    r = r.wrapping_add({});\n", i % 7));
    }
    s.push_str("    Ok(r & 0)\n}\n");
    s
}

/// The corpus against map fds `[array, prog_array, ringbuf]`; `size`
/// picks the generated programs' sizes.
pub fn corpus(fds: [MapFd; 3], size: Size) -> Vec<Entry> {
    let mut progs: Vec<(Program, Expect, String, Vec<&'static str>)> = Vec::new();
    for rung in bench::ladder::rungs(fds[0], fds[1], fds[2]) {
        let (source, requires) = (&rung.ext_source, &rung.ext_requires);
        for prog in rung.accepted {
            progs.push((prog, Expect::Accept, source.clone(), requires.clone()));
        }
        for (prog, check) in rung.violations {
            progs.push((
                prog,
                Expect::Reject(check),
                source.clone(),
                requires.clone(),
            ));
        }
    }
    let (lines, branches, loops): (&[usize], &[usize], &[i32]) = match size {
        Size::Full => (&[64, 512, 2048], &[8, 32, 64], &[16, 64, 256]),
        Size::Smoke => (&[64], &[8], &[16]),
    };
    for &n in lines {
        let source = generated_source("straightline", n);
        progs.push((
            bench::workloads::straightline(n),
            Expect::Accept,
            source,
            vec![],
        ));
    }
    for &n in branches {
        let source = generated_source("diamonds", 3 * n);
        progs.push((
            bench::workloads::diamonds(n),
            Expect::Accept,
            source,
            vec![],
        ));
    }
    for &n in loops {
        let source = generated_source("counted_loop", 4);
        progs.push((
            bench::workloads::counted_loop(n),
            Expect::Accept,
            source,
            vec!["maps"],
        ));
    }
    progs
        .into_iter()
        .enumerate()
        .map(|(i, (prog, expect, source, requires))| {
            let symbol = format!("c{i}");
            let ext = Extension::new(&symbol, prog.prog_type, |_| Ok(0));
            Entry {
                code: Code { prog, ext, symbol },
                expect,
                source,
                requires,
                reject_msg: None,
            }
        })
        .collect()
}

/// Records the verifier's message for each expected rejection, on a
/// scratch kernel with the same maps. An entry the verifier rejects for
/// another check than the corpus says keeps no message, so every
/// upgrade of it fails the oracle.
fn expect_messages(corpus: &mut [Entry], world: &World) {
    let verifier = Verifier::new(&world.maps, &world.helpers);
    for e in corpus.iter_mut() {
        if let (Expect::Reject(check), Err(err)) = (&e.expect, verifier.verify(&e.code.prog)) {
            if err.check() == *check {
                e.reject_msg = Some(format!("verifier rejected program: {err}"));
            }
        }
    }
}

/// Whether an upgrade's outcome is the corpus's known answer.
pub fn judge(lane: Lane, e: &Entry, result: &Result<(), String>) -> bool {
    match (lane.verifies(), &e.expect, result) {
        (false, _, r) => r.is_ok(),
        (true, Expect::Accept, r) => r.is_ok(),
        (true, Expect::Reject(_), Err(msg)) => e.reject_msg.as_deref() == Some(msg.as_str()),
        (true, Expect::Reject(_), Ok(())) => false,
    }
}

fn home_code() -> Code {
    Code {
        prog: progs::home_prog(),
        ext: progs::home_ext(),
        symbol: HOME.to_string(),
    }
}

struct LoadLane<'w> {
    rt: LaneRt<'w>,
    /// Bytes mapped once the kernel-wide maps exist: the census baseline.
    baseline: u64,
}

/// Registers the tenants and attaches the home program to each.
fn populate(rt: &mut LaneRt<'_>, tr: &mut Tracer) {
    let home = home_code();
    for t in 0..TENANTS {
        let id = rt.register(&format!("tenant{t}"), TenantBudget::default());
        rt.install(tr, id, POINT, &home, Install::Attach, Replay::Keep(id))
            .0
            .expect("home program attaches");
    }
}

fn setup_lane<'w>(
    lane: Lane,
    world: &'w World,
    shadow: Option<&'w World>,
    corpus: &[Entry],
    tr: &mut Tracer,
) -> LoadLane<'w> {
    let budget = TenantBudget::default();
    let mut rt = LaneRt::new(lane, world, shadow.map(|w| Shadow::new(w, budget.fuel)));
    for def in corpus_maps() {
        let fd = world.create_map(def.clone());
        if let Some(s) = shadow {
            assert_eq!(s.create_map(def), fd, "shadow map fds track");
        }
    }
    let baseline = world.kernel.mem.bytes_mapped();
    if lane == Lane::Safe {
        rt.safe
            .build(tr, HOME, HOME_SOURCE, ProgType::SocketFilter, &[]);
        rt.safe.link(HOME, progs::home_ext());
        for e in corpus {
            rt.safe.build(
                tr,
                &e.code.symbol,
                &e.source,
                e.code.prog.prog_type,
                &e.requires,
            );
            rt.safe.link(&e.code.symbol, e.code.ext.clone());
        }
    }
    populate(&mut rt, tr);
    LoadLane { rt, baseline }
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    run_with(cfg, tr, |_| {})
}

/// [`run`], with `edit` applied to the corpus's expected answers first
/// (the self-tests plant a wrong one).
pub fn run_with(cfg: &Config, tr: &mut Tracer, edit: impl FnOnce(&mut [Entry])) -> Outcome {
    // Inputs: the corpus against the fds every kernel gives its maps,
    // the expected verdicts, and the seeded walk.
    let scratch = World::boot(&mut Tracer::new(false));
    let fds = corpus_maps().map(|def| scratch.create_map(def));
    let mut corpus = corpus(fds, cfg.size);
    expect_messages(&mut corpus, &scratch);
    edit(&mut corpus);
    let walk: Vec<usize> = (0..CYCLES_PER_EPOCH)
        .flat_map(|c| permutation(corpus.len(), cfg.seed ^ (c as u64) << 32))
        .collect();
    let t0 = Instant::now();
    let (worlds, shadows) = World::boot_lanes(tr);
    let lanes = setup(&worlds, &shadows, &corpus, tr);
    let setup_ns = ns_between(t0, Instant::now());
    for w in &worlds {
        assert!(
            fds.iter().all(|&fd| w.maps.get(fd).is_some()),
            "corpus map fds agree"
        );
    }
    let mut load = Load {
        lanes,
        corpus: &corpus,
        walk: &walk,
    };
    drive(cfg, tr, &mut load, setup_ns)
}

/// Sets every lane up on booted kernels: what `setup_s` times.
fn setup<'w>(
    worlds: &'w [World],
    shadows: &'w [World],
    corpus: &[Entry],
    tr: &mut Tracer,
) -> Vec<LoadLane<'w>> {
    Lane::ALL
        .iter()
        .enumerate()
        .map(|(i, &lane)| setup_lane(lane, &worlds[i], shadows.get(i), corpus, tr))
        .collect()
}

struct Load<'w, 'i> {
    lanes: Vec<LoadLane<'w>>,
    corpus: &'i [Entry],
    /// Corpus indices in upgrade order, one epoch's worth.
    walk: &'i [usize],
}

impl<'w> Workload<'w> for Load<'w, '_> {
    const BLOCK: usize = BLOCK;

    fn items(&self) -> usize {
        self.walk.len()
    }

    fn tenants(&self) -> u32 {
        TENANTS
    }

    fn rt(&self, lane: usize) -> &LaneRt<'w> {
        &self.lanes[lane].rt
    }

    fn rt_mut(&mut self, lane: usize) -> &mut LaneRt<'w> {
        &mut self.lanes[lane].rt
    }

    fn step(&mut self, tr: &mut Tracer, lane: usize, i: usize, out: &mut Outcome) -> (bool, u64) {
        let rt = &mut self.lanes[lane].rt;
        let e = &self.corpus[self.walk[i]];
        let tenant = (i % TENANTS as usize) as TenantId;
        let (result, ns) = rt.install(
            tr,
            tenant,
            POINT,
            &e.code,
            Install::Upgrade,
            Replay::Discard,
        );
        let ok = judge(rt.lane, e, &result);
        if !ok && out.failed < 5 {
            eprintln!(
                "oracle: {} upgrade to {} ({:?}): {result:?}",
                rt.lane.name(),
                e.code.prog.name,
                e.expect
            );
        }
        (ok, ns)
    }

    fn time_setup(&self) -> u64 {
        World::time_setup(|w, tr| {
            let _lanes = setup(w, &[], self.corpus, tr);
            Instant::now()
        })
    }

    fn rollover(&mut self, tr: &mut Tracer, out: &mut Outcome) {
        for lane in &mut self.lanes {
            reset(&mut lane.rt, tr, TENANTS, lane.baseline, out);
            populate(&mut lane.rt, tr);
        }
    }

    /// Back to the home program, then one run of it.
    fn close_tenant(&mut self, tr: &mut Tracer, lane: usize, t: TenantId) -> bool {
        let rt = &mut self.lanes[lane].rt;
        let upgraded = rt
            .install(
                tr,
                t,
                POINT,
                &home_code(),
                Install::Upgrade,
                Replay::Keep(t),
            )
            .0
            .is_ok();
        let (res, _) = rt.run(tr, t, POINT, HookInput::Packet(&[0u8; 64]), t);
        upgraded && matches!(res.map(|r| r.verdict), Some(RunVerdict::Ok(0)))
    }

    fn baseline(&self, lane: usize) -> u64 {
        self.lanes[lane].baseline
    }
}
