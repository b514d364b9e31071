//! `churn`: reads beside writes on a registry at size.
//!
//! Each lane boots one kernel with 104 tenants (520 over the five
//! lanes), a quarter each on the packet (load balancer), kprobe, LSM and
//! sched-ext hooks. A seeded schedule interleaves runs of all four input
//! kinds with a hot `upgrade` about every 16 items and an
//! `unload_tenant` plus re-attach about every 256; an op is one run or
//! one such control-plane event. (At one upgrade in 32 items the
//! load-balancer upgrades, the dearest ops, are under 1% of all ops and
//! the p99 falls in the gap below them; at one in 16 it lies inside
//! them.) Over the middle half of each epoch a
//! `tenancy::Storm` targets 16 tenants: fault plans armed (untimed)
//! before their runs push them past the deadline, so the kill, refusal
//! and breaker paths are timed. One epoch is one pass over the
//! schedule; between epochs every tenant is unloaded (the leak census),
//! the audit log is emptied and the registry is rebuilt, so every epoch
//! starts from the same state.
//!
//! Oracle: every run of a tenant the storm does not target returns a
//! value, every control-plane event succeeds, and each epoch's outcome
//! log hashes to the first epoch's (the same seed gives the same
//! outcomes).

use std::time::Instant;

use ebpf::maps::MapFd;
use ebpf::program::ProgType;
use kernel_sim::net::traffic::{generate, Frame, TrafficConfig};
use kernel_sim::FaultPlan;
use signing::sha256::{to_hex, Sha256};
use tenancy::{storm_fault_config, HookInput, RunVerdict, Storm, TenantBudget, TenantId};

use crate::lanes::{Code, Install, Lane, LaneRt, Replay, Shadow, World};
use crate::phase::{drive, mix, reset, Config, Counts, Outcome, Size, Workload};
use crate::progs;
use crate::stats::ns_between;
use crate::trace::Tracer;

const BLOCK: usize = 32;
const STORM_VICTIMS: u32 = 16;

/// The hook family of local tenant `t`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Packet,
    Kprobe,
    Lsm,
    Sched,
}

impl Family {
    fn of(tenant: TenantId) -> Family {
        [Family::Packet, Family::Kprobe, Family::Lsm, Family::Sched][tenant as usize % 4]
    }

    fn slot(self) -> u32 {
        self as u32
    }

    fn point(self) -> &'static str {
        match self {
            Family::Packet => "pkt",
            Family::Kprobe => "probe",
            Family::Lsm => "policy",
            Family::Sched => "sched",
        }
    }

    fn code(self, symbol: String, fd: Option<MapFd>) -> Code {
        let (prog, ext) = match self {
            Family::Packet => {
                let fd = fd.expect("packet tenants own a map");
                (progs::lb_prog(fd), progs::lb_ext(fd))
            }
            Family::Kprobe => (progs::probe_prog(), progs::probe_ext()),
            Family::Lsm => (progs::policy_prog(), progs::policy_ext()),
            Family::Sched => (progs::sched_prog(), progs::sched_ext()),
        };
        Code { prog, ext, symbol }
    }

    fn artifact(self) -> (&'static str, ProgType, &'static [&'static str]) {
        match self {
            Family::Packet => (
                "fn lb(ctx: &ExtCtx) -> Result<u64, ExtError> { balance(ctx.packet()?, ctx.array(BACKENDS)?) }\n",
                ProgType::Xdp,
                &["packet", "maps"],
            ),
            Family::Kprobe => (
                "fn probe(ctx: &ExtCtx) -> Result<u64, ExtError> { ctx.hist_record(ctx.kprobe_arg(0)? & 3, ctx.kprobe_arg(1)?) }\n",
                ProgType::Kprobe,
                &["trace"],
            ),
            Family::Lsm => (
                "fn policy(ctx: &ExtCtx) -> Result<u64, ExtError> { Ok(deny_if((ctx.lsm_field(1)? ^ ctx.lsm_field(2)?) & 7 == 7)) }\n",
                ProgType::Lsm,
                &["task"],
            ),
            Family::Sched => (
                "fn sched(ctx: &ExtCtx) -> Result<u64, ExtError> { Ok(pick(ctx.sched_field(2)?, ctx.sched_field(3)?, ctx.sched_field(4)?, ctx.sched_field(5)?)) }\n",
                ProgType::SchedExt,
                &["task"],
            ),
        }
    }
}

/// One schedule item.
#[derive(Clone, Copy)]
enum Item {
    Run(TenantId, u64),
    Upgrade(TenantId),
    Reload(TenantId),
}

/// A run's seeded input: the schedule, the packets runs draw from, and
/// the storm.
struct Script {
    seed: u64,
    /// Tenants per lane.
    tenants: u32,
    items: Vec<Item>,
    frames: Vec<Frame>,
    storm: Storm,
}

impl Script {
    fn new(seed: u64, size: Size) -> Script {
        let (tenants, len): (u32, u64) = match size {
            Size::Full => (104, 8192),
            Size::Smoke => (16, 512),
        };
        let items: Vec<Item> = (0..len)
            .map(|idx| {
                let h = mix(seed ^ idx.wrapping_mul(0xe703_7ed1_a0b4_28db));
                let tenant = ((h >> 20) % tenants as u64) as TenantId;
                if h.is_multiple_of(16) {
                    Item::Upgrade(tenant)
                } else if h % 256 == 1 {
                    Item::Reload(tenant)
                } else {
                    Item::Run(tenant, h)
                }
            })
            .collect();
        let storm = Storm::seeded(
            seed ^ 0x6b8b_4567_327b_23c6,
            tenants * Lane::ALL.len() as u32,
            STORM_VICTIMS,
            (len / 4, len * 3 / 4),
        );
        Script {
            seed,
            tenants,
            items,
            frames: generate(&TrafficConfig::smoke(), seed),
            storm,
        }
    }

    /// The input a run of `family` consumes, from the item hash `h`.
    fn input(&self, family: Family, h: u64, idx: usize) -> HookInput<'_> {
        match family {
            Family::Packet => {
                HookInput::Packet(&self.frames[(h >> 8) as usize % self.frames.len()].bytes)
            }
            Family::Kprobe => {
                HookInput::Kprobe([(h >> 8) & 7, (h >> 16) & 0xffff, idx as u64, 0, 0, 0, 0, 0])
            }
            Family::Lsm => {
                HookInput::Lsm([idx as u64 % 3, h & 0xffff, (h >> 16) & 0xffff, idx as u64])
            }
            Family::Sched => HookInput::Sched([
                h & 3,
                2 + (h >> 2) % 7,
                (h >> 8) & 0xff,
                (h >> 16) & 0xffff,
                (h >> 32) & 0xff,
                (h >> 40) & 0xffff,
            ]),
        }
    }
}

struct ChurnLane<'w> {
    rt: LaneRt<'w>,
    /// Each tenant's current program (the packet family's embeds its
    /// map's fd, which changes on every re-attach).
    codes: Vec<Code>,
    /// This lane's index; local tenant `t` is global tenant `5t + index`.
    index: u32,
}

impl ChurnLane<'_> {
    fn global(&self, t: TenantId) -> u32 {
        t * Lane::ALL.len() as u32 + self.index
    }

    /// Creates the tenant's map (packet family) and links its code.
    /// Returns the wall nanoseconds of the `create_map` call.
    fn prepare(&mut self, t: TenantId) -> u64 {
        let family = Family::of(t);
        let t0 = Instant::now();
        let fd = (family == Family::Packet).then(|| {
            self.rt
                .reg
                .create_map(t, progs::lb_map())
                .expect("map within the small budget")
        });
        let ns = ns_between(t0, Instant::now());
        let code = family.code(format!("t{t}"), fd);
        if self.rt.lane == Lane::Safe {
            self.rt.safe.link(&code.symbol, code.ext.clone());
        }
        self.codes[t as usize] = code;
        ns
    }
}

/// Registers and attaches every tenant.
fn populate(lane: &mut ChurnLane<'_>, tr: &mut Tracer, tenants: u32) {
    for t in 0..tenants {
        let id = lane
            .rt
            .register(&format!("tenant{t}"), TenantBudget::small());
        lane.prepare(id);
        let code = lane.codes[id as usize].clone();
        lane.rt
            .install(
                tr,
                id,
                Family::of(id).point(),
                &code,
                Install::Attach,
                Replay::Stand(Family::of(id).slot()),
            )
            .0
            .expect("churn programs attach");
    }
}

fn setup_lane<'w>(
    index: usize,
    world: &'w World,
    shadow: Option<&'w World>,
    tenants: u32,
    tr: &mut Tracer,
) -> ChurnLane<'w> {
    let lane = Lane::ALL[index];
    let fuel = TenantBudget::small().fuel;
    let mut rt = LaneRt::new(lane, world, shadow.map(|w| Shadow::new(w, fuel)));
    if let Some(shadow) = &mut rt.shadow {
        // One program per family on the shadow kernel: runs replay on it.
        tr.close();
        let fd = shadow.world().create_map(progs::lb_map());
        for family in [Family::Packet, Family::Kprobe, Family::Lsm, Family::Sched] {
            let code = family.code(String::new(), Some(fd));
            shadow.install(tr, lane, &code, Some(family.slot()));
        }
    }
    if lane == Lane::Safe {
        for t in 0..tenants {
            let (source, ty, requires) = Family::of(t).artifact();
            rt.safe.build(tr, &format!("t{t}"), source, ty, requires);
        }
    }
    let codes = (0..tenants)
        .map(|t| Family::of(t).code(String::new(), Some(0)))
        .collect();
    let mut lane = ChurnLane {
        rt,
        codes,
        index: index as u32,
    };
    populate(&mut lane, tr, tenants);
    lane
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let script = Script::new(cfg.seed, cfg.size);
    let t0 = Instant::now();
    let (worlds, shadows) = World::boot_lanes(tr);
    let lanes = setup(&worlds, &shadows, script.tenants, tr);
    let setup_ns = ns_between(t0, Instant::now());
    let mut churn = Churn {
        hashes: lanes.iter().map(|_| Sha256::new()).collect(),
        lanes,
        script: &script,
    };
    drive(cfg, tr, &mut churn, setup_ns)
}

/// Sets every lane up on booted kernels: what `setup_s` times.
fn setup<'w>(
    worlds: &'w [World],
    shadows: &'w [World],
    tenants: u32,
    tr: &mut Tracer,
) -> Vec<ChurnLane<'w>> {
    (0..Lane::ALL.len())
        .map(|i| setup_lane(i, &worlds[i], shadows.get(i), tenants, tr))
        .collect()
}

/// Outcome-log record of one item.
fn log(hash: &mut Sha256, idx: usize, tenant: TenantId, code: u8, value: u64) {
    hash.update(&(idx as u64).to_le_bytes());
    hash.update(&tenant.to_le_bytes());
    hash.update(&[code]);
    hash.update(&value.to_le_bytes());
}

/// Runs item `idx` on one lane; returns (ok, op ns).
fn step(
    lane: &mut ChurnLane<'_>,
    tr: &mut Tracer,
    script: &Script,
    idx: usize,
    hash: &mut Sha256,
    counts: Option<&mut Counts>,
) -> (bool, u64) {
    match script.items[idx] {
        Item::Run(t, h) => {
            let family = Family::of(t);
            let targeted = script.storm.targets(lane.global(t), idx as u64);
            let kernel = &lane.rt.world.kernel;
            if targeted {
                kernel.arm_fault_plan(FaultPlan::with_config(
                    mix(script.seed ^ idx as u64),
                    storm_fault_config(),
                ));
            }
            let input = script.input(family, h, idx);
            let (res, ns) = lane.rt.run(tr, t, family.point(), input, family.slot());
            if targeted {
                kernel.disarm_faults();
            }
            let verdict = res.map(|r| r.verdict);
            if let Some(counts) = counts {
                counts.note(verdict);
            }
            let (code, value) = match verdict {
                Some(RunVerdict::Ok(v)) => (0, v),
                Some(RunVerdict::Refused) => (1, 0),
                Some(RunVerdict::Killed) => (2, 0),
                Some(RunVerdict::Error) => (3, 0),
                None => (4, 0),
            };
            log(hash, idx, t, code, value);
            let victim = script.storm.is_victim(lane.global(t));
            (victim || code == 0, ns)
        }
        Item::Upgrade(t) => {
            let code = lane.codes[t as usize].clone();
            let (r, ns) = lane.rt.install(
                tr,
                t,
                Family::of(t).point(),
                &code,
                Install::Upgrade,
                Replay::Stand(Family::of(t).slot()),
            );
            log(hash, idx, t, 5, r.is_ok() as u64);
            (r.is_ok(), ns)
        }
        Item::Reload(t) => {
            let (unloaded, unload_ns) = lane.rt.unload(tr, t);
            let map_ns = lane.prepare(t);
            let code = lane.codes[t as usize].clone();
            let (r, attach_ns) = lane.rt.install(
                tr,
                t,
                Family::of(t).point(),
                &code,
                Install::Attach,
                Replay::Stand(Family::of(t).slot()),
            );
            let ok = unloaded && r.is_ok();
            log(hash, idx, t, 6, ok as u64);
            (ok, unload_ns + map_ns + attach_ns)
        }
    }
}

struct Churn<'w, 'i> {
    lanes: Vec<ChurnLane<'w>>,
    script: &'i Script,
    /// Each lane's outcome log over the current epoch.
    hashes: Vec<Sha256>,
}

impl<'w> Workload<'w> for Churn<'w, '_> {
    const BLOCK: usize = BLOCK;

    fn items(&self) -> usize {
        self.script.items.len()
    }

    fn tenants(&self) -> u32 {
        self.script.tenants
    }

    fn rt(&self, lane: usize) -> &LaneRt<'w> {
        &self.lanes[lane].rt
    }

    fn rt_mut(&mut self, lane: usize) -> &mut LaneRt<'w> {
        &mut self.lanes[lane].rt
    }

    fn step(&mut self, tr: &mut Tracer, lane: usize, i: usize, out: &mut Outcome) -> (bool, u64) {
        let counts = (out.phase.epoch == 0).then_some(&mut out.counts);
        let hash = &mut self.hashes[lane];
        let (ok, ns) = step(&mut self.lanes[lane], tr, self.script, i, hash, counts);
        if !ok && out.failed < 5 {
            eprintln!("oracle: {} item {i} failed", Lane::ALL[lane].name());
        }
        (ok, ns)
    }

    fn time_setup(&self) -> u64 {
        World::time_setup(|w, tr| {
            let _lanes = setup(w, &[], self.script.tenants, tr);
            Instant::now()
        })
    }

    /// The outcome logs must repeat the first epoch's.
    fn epoch_end(&mut self, first: bool, out: &mut Outcome) {
        for (li, hash) in self.hashes.iter_mut().enumerate() {
            let digest = to_hex(&std::mem::replace(hash, Sha256::new()).finalize());
            if first {
                out.digests.push(digest);
            } else if digest != out.digests[li] {
                let epoch = out.phase.epoch;
                out.problem(format!(
                    "{} epoch {epoch} outcome log differs from the first",
                    Lane::ALL[li].name()
                ));
            }
        }
    }

    fn rollover(&mut self, tr: &mut Tracer, out: &mut Outcome) {
        let tenants = self.script.tenants;
        for lane in &mut self.lanes {
            let boot = lane.rt.world.boot_bytes;
            reset(&mut lane.rt, tr, tenants, boot, out);
            populate(lane, tr, tenants);
        }
    }

    /// A hot upgrade to the same program, then one run.
    fn close_tenant(&mut self, tr: &mut Tracer, lane: usize, t: TenantId) -> bool {
        let lane = &mut self.lanes[lane];
        let family = Family::of(t);
        let code = lane.codes[t as usize].clone();
        let upgraded = lane
            .rt
            .install(
                tr,
                t,
                family.point(),
                &code,
                Install::Upgrade,
                Replay::Stand(family.slot()),
            )
            .0
            .is_ok();
        let input = self.script.input(family, mix(t as u64), 0);
        let (res, _) = lane.rt.run(tr, t, family.point(), input, family.slot());
        // A storm victim's breaker may still be open.
        upgraded
            && (self.script.storm.is_victim(lane.global(t))
                || matches!(res.map(|r| r.verdict), Some(RunVerdict::Ok(_))))
    }
}
