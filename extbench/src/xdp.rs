//! `xdp`: the steady-state packet path.
//!
//! Each lane boots one kernel with eight tenants, four running the SYN
//! filter and four the load balancer, all attached once in setup. The
//! timed phase replays seeded traffic through `run_input`, every lane
//! seeing the same frames in the same order. One epoch is one pass over
//! the trace; between epochs the conntrack table and the audit log are
//! emptied (after a health check), so memory does not grow with the
//! number of ops a run completes.
//!
//! Oracle: per-frame verdicts agree across the five lanes, LB backend
//! counters agree across lanes, every kernel stays pristine, and after
//! every tenant is unloaded each kernel maps exactly what it did after
//! boot.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use ebpf::maps::MapFd;
use ebpf::program::ProgType;
use kernel_sim::net::packet::parse_frame;
use kernel_sim::net::traffic::{generate, Frame, FrameClass, TrafficConfig};
use tenancy::{HookInput, RunVerdict, TenantBudget, TenantId};

use crate::lanes::{Code, Install, Lane, LaneRt, Replay, Shadow, World};
use crate::phase::{drive, mix, Config, Outcome, Size, Workload};
use crate::progs;
use crate::stats::ns_between;
use crate::trace::Tracer;

const TENANTS: u32 = 8;
/// Tenants below this run the SYN filter; the rest the load balancer.
const SYN_TENANTS: u32 = 4;
const POINT: &str = "xdp";
const BLOCK: usize = 64;

const SYN_SOURCE: &str = "fn syn_filter(ctx: &ExtCtx) -> Result<u64, ExtError> {\n    \
    let pkt = ctx.packet()?;\n    let obs = ctx.ct_observe(pkt.flow_key()?, pkt.tcp_flags()?, pkt.len())?;\n    \
    let halfopen = ctx.hash(HALFOPEN)?;\n    verdict(obs, halfopen.lookup(pkt.src_ip()?)?)\n}\n";
const LB_SOURCE: &str = "fn l4_lb(ctx: &ExtCtx) -> Result<u64, ExtError> {\n    \
    let pkt = ctx.packet()?;\n    let backend = pick(pkt.five_tuple()?);\n    \
    ctx.array(BACKENDS)?.fetch_add_u64(backend, 0, 1)?;\n    pkt.store_bytes(30, &backend_ip(backend))?;\n    \
    fix_checksum(&pkt)?;\n    Ok(XDP_TX)\n}\n";

fn traffic(size: Size) -> TrafficConfig {
    match size {
        // The SYN-filter tenants receive about 5,500 new flows per pass
        // (half of the flood plus their TCP elephants and mice), more
        // than the 4,096 conntrack slots, so the flood evicts; the
        // elephants and mice stay recent enough to survive.
        Size::Full => TrafficConfig {
            elephants: 16,
            elephant_packets: 1024,
            mice: 1024,
            flood_frames: 10_240,
            malformed_frames: 128,
        },
        // Enough flood that the SYN-filter tenants still overflow
        // conntrack, so the self-tests see evictions.
        Size::Smoke => TrafficConfig {
            flood_frames: 9_000,
            ..TrafficConfig::smoke()
        },
    }
}

fn flow_of(bytes: &[u8]) -> u64 {
    match parse_frame(bytes) {
        Ok(pkt) => pkt.flow_key().hash_rss(),
        // Unparseable frames: a hash of the raw bytes, in its own space.
        Err(_) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h | 1 << 63
        }
    }
}

/// The tenants one pass of a class's flows is dealt to. Elephants go
/// three to one to the load balancers: an elephant frame costs about a
/// third less through the SYN filter than through the balancer, and
/// with an even deal the two costs were each near half of all ops, so
/// the median op fell between them and jumped from one to the other
/// with host load (49% spread over ten runs). Weighted, the balancer's
/// cost holds about three quarters of the ops and the median inside it.
fn deal(class: FrameClass) -> Vec<TenantId> {
    (0..TENANTS)
        .flat_map(|t| {
            let shares = if class == FrameClass::Elephant && t >= SYN_TENANTS {
                3
            } else {
                1
            };
            std::iter::repeat_n(t, shares)
        })
        .collect()
}

/// Steers frames to tenants by flow 2-tuple. The tuple-to-tenant table
/// is dealt class by class over a seeded order of the tuples, so every
/// tenant gets a fixed share of each traffic class whatever the seed
/// and the per-op cost mix does not swing from seed to seed.
fn steer(frames: &[Frame], seed: u64) -> Vec<TenantId> {
    let flows: Vec<u64> = frames.iter().map(|f| flow_of(&f.bytes)).collect();
    let mut table: HashMap<u64, TenantId> = HashMap::new();
    for (ci, class) in [
        FrameClass::Elephant,
        FrameClass::Mouse,
        FrameClass::SynFlood,
        FrameClass::Malformed,
    ]
    .into_iter()
    .enumerate()
    {
        let mut keys: Vec<u64> = frames
            .iter()
            .zip(&flows)
            .filter(|(f, _)| f.class == class)
            .map(|(_, &k)| k)
            .filter(|k| !table.contains_key(k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.sort_by_key(|&k| mix(seed ^ k));
        let slots = deal(class);
        let offset = mix(seed ^ ci as u64) as usize;
        for (rank, k) in keys.into_iter().enumerate() {
            table.insert(k, slots[(offset + rank) % slots.len()]);
        }
    }
    flows.iter().map(|k| table[k]).collect()
}

fn code(tenant: TenantId, fd: MapFd) -> Code {
    let symbol = format!("t{tenant}_xdp");
    if tenant < SYN_TENANTS {
        Code {
            prog: progs::syn_filter_prog(fd),
            ext: progs::syn_filter_ext(fd),
            symbol,
        }
    } else {
        Code {
            prog: progs::lb_prog(fd),
            ext: progs::lb_ext(fd),
            symbol,
        }
    }
}

struct XdpLane<'w> {
    rt: LaneRt<'w>,
    codes: Vec<Code>,
    fds: Vec<MapFd>,
}

fn setup_lane<'w>(
    lane: Lane,
    world: &'w World,
    shadow: Option<&'w World>,
    tr: &mut Tracer,
) -> XdpLane<'w> {
    let budget = TenantBudget::default();
    let mut rt = LaneRt::new(lane, world, shadow.map(|w| Shadow::new(w, budget.fuel)));
    let mut codes = Vec::new();
    let mut fds = Vec::new();
    for t in 0..TENANTS {
        let id = rt.register(&format!("tenant{t}"), budget);
        let def = if t < SYN_TENANTS {
            progs::syn_map()
        } else {
            progs::lb_map()
        };
        let fd = rt.create_map(id, def);
        let code = code(id, fd);
        if lane == Lane::Safe {
            let source = if t < SYN_TENANTS {
                SYN_SOURCE
            } else {
                LB_SOURCE
            };
            rt.safe
                .build(tr, &code.symbol, source, ProgType::Xdp, &["packet", "maps"]);
            rt.safe.link(&code.symbol, code.ext.clone());
        }
        rt.install(tr, id, POINT, &code, Install::Attach, Replay::Keep(id))
            .0
            .expect("xdp programs attach");
        codes.push(code);
        fds.push(fd);
    }
    XdpLane { rt, codes, fds }
}

/// Sets every lane up on booted kernels: what `setup_s` times.
fn setup<'w>(worlds: &'w [World], shadows: &'w [World], tr: &mut Tracer) -> Vec<XdpLane<'w>> {
    Lane::ALL
        .iter()
        .enumerate()
        .map(|(i, &lane)| setup_lane(lane, &worlds[i], shadows.get(i), tr))
        .collect()
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let frames = generate(&traffic(cfg.size), cfg.seed);
    let tenants = steer(&frames, cfg.seed);
    let t0 = Instant::now();
    let (worlds, shadows) = World::boot_lanes(tr);
    let lanes = setup(&worlds, &shadows, tr);
    let setup_ns = ns_between(t0, Instant::now());
    let mut xdp = Xdp {
        lanes,
        frames: &frames,
        tenants: &tenants,
        verdicts: vec![[None; BLOCK]; Lane::ALL.len()],
    };
    drive(cfg, tr, &mut xdp, setup_ns)
}

struct Xdp<'w, 'i> {
    lanes: Vec<XdpLane<'w>>,
    frames: &'i [Frame],
    /// The tenant each frame is steered to.
    tenants: &'i [TenantId],
    /// Each lane's verdicts over the current round.
    verdicts: Vec<[Option<RunVerdict>; BLOCK]>,
}

impl<'w> Workload<'w> for Xdp<'w, '_> {
    const BLOCK: usize = BLOCK;

    fn items(&self) -> usize {
        self.frames.len()
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

    fn step(&mut self, tr: &mut Tracer, lane: usize, i: usize, _out: &mut Outcome) -> (bool, u64) {
        let tenant = self.tenants[i];
        let input = HookInput::Packet(&self.frames[i].bytes);
        let (res, ns) = self.lanes[lane].rt.run(tr, tenant, POINT, input, tenant);
        self.verdicts[lane][i % BLOCK] = res.map(|r| r.verdict);
        // Judged in `check_round`, against the other lanes.
        (true, ns)
    }

    /// Every lane returns the reference lane's verdict.
    fn check_round(&mut self, items: Range<usize>, out: &mut Outcome) {
        for i in items {
            let reference = self.verdicts[0][i % BLOCK];
            for (li, v) in self.verdicts.iter().enumerate() {
                let v = v[i % BLOCK];
                if !matches!(v, Some(RunVerdict::Ok(_))) || v != reference {
                    out.failed += 1;
                    if out.failed <= 5 {
                        eprintln!(
                            "oracle: frame {i} lane {}: {v:?}, reference {reference:?}",
                            Lane::ALL[li].name(),
                        );
                    }
                }
                if out.phase.epoch == 0 {
                    out.counts.note(v);
                }
            }
        }
    }

    fn time_setup(&self) -> u64 {
        World::time_setup(|w, tr| {
            let _lanes = setup(w, &[], tr);
            Instant::now()
        })
    }

    /// Empties the conntrack table and the audit log, after a health
    /// check.
    fn rollover(&mut self, _tr: &mut Tracer, out: &mut Outcome) {
        for lane in &self.lanes {
            if !lane.rt.world.kernel.health().pristine() {
                out.problem(format!("{} kernel not pristine", lane.rt.lane.name()));
            }
            clear(lane.rt.world);
            if let Some(shadow) = &lane.rt.shadow {
                clear(shadow.world());
            }
        }
    }

    /// The load balancers' backend counters agree across lanes.
    fn final_checks(&self, out: &mut Outcome) {
        let counters = |l: &XdpLane<'_>| -> Vec<Option<u64>> {
            (SYN_TENANTS..TENANTS)
                .flat_map(|t| (0..progs::LB_BACKENDS).map(move |b| (t, b)))
                .map(|(t, b)| l.rt.world.read_array_u64(l.fds[t as usize], b))
                .collect()
        };
        let reference = counters(&self.lanes[0]);
        if reference.iter().any(Option::is_none) {
            out.problem("lb backend counters unreadable".into());
        }
        for (li, lane) in self.lanes.iter().enumerate() {
            if counters(lane) != reference {
                out.problem(format!("{} lb counters differ", Lane::ALL[li].name()));
            }
        }
    }

    /// A hot upgrade to the same program, then one of its frames.
    fn close_tenant(&mut self, tr: &mut Tracer, lane: usize, t: TenantId) -> bool {
        let lane = &mut self.lanes[lane];
        let code = lane.codes[t as usize].clone();
        let upgraded = lane
            .rt
            .install(tr, t, POINT, &code, Install::Upgrade, Replay::Keep(t))
            .0
            .is_ok();
        let frame = self.tenants.iter().position(|&x| x == t).unwrap_or(0);
        let input = HookInput::Packet(&self.frames[frame].bytes);
        let (res, _) = lane.rt.run(tr, t, POINT, input, t);
        upgraded && matches!(res.map(|r| r.verdict), Some(RunVerdict::Ok(_)))
    }
}

/// Empties the state that otherwise grows with every op.
fn clear(world: &World) {
    world.kernel.net.conntrack.clear();
    world.kernel.audit.clear();
}
