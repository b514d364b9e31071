//! The five execution lanes and the calls the workloads time on them.
//!
//! Each lane owns one booted kernel ([`World`]) with a tenant registry
//! over it. Every call made here goes to a public entry point of a
//! system crate; in a traced block each becomes a top span, followed by
//! shadow calls on a second kernel (the lane's [`Shadow`]) that split it
//! into the layers below.

use std::collections::HashMap;
use std::time::Instant;

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, SandboxConfig, Vm};
use ebpf::jit::JitConfig;
use ebpf::maps::{MapDef, MapFd, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use safe_ext::{
    ExtInput, Extension, ExtensionRegistry, Loader, Runtime, RuntimeConfig, SignedArtifact,
    Toolchain,
};
use signing::{KeyStore, SigningKey};
use tenancy::{HookInput, ProgramSpec, RunOutcome, TenantBudget, TenantId, TenantRegistry};
use verifier::Verifier;

use crate::stats::ns_between;
use crate::trace::Tracer;

/// How an extension executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Verified, then interpreted.
    Ebpf,
    /// Verified, then JIT-lowered.
    EbpfJit,
    /// A signed safe-Rust extension.
    Safe,
    /// Unverified, interpreted in an SFI domain.
    Sandbox,
    /// Unverified, JIT-lowered with masked memory ops.
    SandboxJit,
}

impl Lane {
    pub const ALL: [Lane; 5] = [
        Lane::Ebpf,
        Lane::EbpfJit,
        Lane::Safe,
        Lane::Sandbox,
        Lane::SandboxJit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lane::Ebpf => "ebpf",
            Lane::EbpfJit => "ebpf_jit",
            Lane::Safe => "safe",
            Lane::Sandbox => "sandbox",
            Lane::SandboxJit => "sandbox_jit",
        }
    }

    /// Whether the lane runs the verifier at load.
    pub fn verifies(self) -> bool {
        matches!(self, Lane::Ebpf | Lane::EbpfJit)
    }

    fn run_span(self) -> &'static str {
        match self {
            Lane::Ebpf => "tenancy.run_input.ebpf",
            Lane::EbpfJit => "tenancy.run_input.ebpf_jit",
            Lane::Safe => "tenancy.run_input.safe",
            Lane::Sandbox => "tenancy.run_input.sandbox",
            Lane::SandboxJit => "tenancy.run_input.sandbox_jit",
        }
    }

    fn inner_span(self) -> &'static str {
        match self {
            Lane::Ebpf => "ebpf.vm_run.interp",
            Lane::EbpfJit => "ebpf.vm_run.jit",
            Lane::Safe => "core.runtime_run",
            Lane::Sandbox => "ebpf.vm_run.sandbox",
            Lane::SandboxJit => "ebpf.vm_run.sandbox_jit",
        }
    }
}

/// One booted kernel with its map and helper registries.
pub struct World {
    pub kernel: Kernel,
    pub maps: MapRegistry,
    pub helpers: HelperRegistry,
    /// `kernel.mem.bytes_mapped()` right after boot: the leak census
    /// baseline.
    pub boot_bytes: u64,
}

impl World {
    pub fn boot(tr: &mut Tracer) -> World {
        let t0 = Instant::now();
        let kernel = Kernel::new();
        let t1 = Instant::now();
        tr.top("kernel_sim.boot", t0, t1);
        let boot_bytes = kernel.mem.bytes_mapped();
        World {
            kernel,
            maps: MapRegistry::default(),
            helpers: HelperRegistry::standard(),
            boot_bytes,
        }
    }

    /// One kernel per lane, and in a traced run one shadow kernel each.
    pub fn boot_lanes(tr: &mut Tracer) -> (Vec<World>, Vec<World>) {
        let worlds = Lane::ALL.iter().map(|_| World::boot(tr)).collect();
        let shadows = match tr.enabled {
            true => Lane::ALL.iter().map(|_| World::boot(tr)).collect(),
            false => Vec::new(),
        };
        (worlds, shadows)
    }

    /// Times one more setup on fresh kernels, untraced: boot, then `f`,
    /// which sets the lanes up and returns the instant it finished (its
    /// lanes are dropped after that, untimed).
    pub fn time_setup(f: impl FnOnce(&[World], &mut Tracer) -> Instant) -> u64 {
        let mut tr = Tracer::new(false);
        let t0 = Instant::now();
        let (worlds, _) = World::boot_lanes(&mut tr);
        ns_between(t0, f(&worlds, &mut tr))
    }

    /// Creates a map owned by no tenant (a kernel-wide map).
    pub fn create_map(&self, def: MapDef) -> MapFd {
        self.maps
            .create(&self.kernel, def)
            .expect("kernel-wide map fits")
    }

    /// Reads the `u64` at offset 0 of array slot `index`.
    pub fn read_array_u64(&self, fd: MapFd, index: u32) -> Option<u64> {
        let map = self.maps.get(fd)?;
        let addr = map.lookup(&index.to_le_bytes(), 0).ok()??;
        self.kernel.mem.read_u64(addr).ok()
    }
}

/// One program in both dialects, plus the entry symbol of its signed
/// safe-Rust artifact.
#[derive(Clone)]
pub struct Code {
    pub prog: Program,
    pub ext: Extension,
    pub symbol: String,
}

/// The signing key the benchmark's toolchain holds.
const TOOLCHAIN_KEY: u64 = 0x6578_7462;

fn sealed_keystore() -> KeyStore {
    let mut keys = KeyStore::new();
    keys.enroll(&SigningKey::derive(TOOLCHAIN_KEY))
        .expect("fresh keystore");
    keys.seal();
    keys
}

/// The safe lane's toolchain, loader and linked entry points.
pub struct SafeSide<'w> {
    toolchain: Toolchain,
    loader: Loader<'w>,
    registry: ExtensionRegistry,
    artifacts: HashMap<String, SignedArtifact>,
}

impl<'w> SafeSide<'w> {
    fn new(kernel: &'w Kernel) -> Self {
        SafeSide {
            toolchain: Toolchain::new(SigningKey::derive(TOOLCHAIN_KEY)),
            loader: Loader::new(kernel, sealed_keystore()),
            registry: ExtensionRegistry::new(),
            artifacts: HashMap::new(),
        }
    }

    /// Checks and signs `source` into the artifact for `symbol`.
    pub fn build(
        &mut self,
        tr: &mut Tracer,
        symbol: &str,
        source: &str,
        prog_type: ProgType,
        requires: &[&str],
    ) {
        let t0 = Instant::now();
        let signed = self
            .toolchain
            .build(source, symbol, prog_type, symbol, requires)
            .expect("benchmark sources are safe");
        let t1 = Instant::now();
        tr.top("core.toolchain_build", t0, t1);
        self.artifacts.insert(symbol.to_string(), signed);
    }

    /// Links the native entry point an artifact binds to by symbol.
    pub fn link(&mut self, symbol: &str, ext: Extension) {
        self.registry.link(symbol, ext);
    }
}

/// The second kernel a traced lane replays inputs on, to time the layer
/// below each public call.
pub struct Shadow<'w> {
    world: &'w World,
    vm: Vm<'w>,
    keys: KeyStore,
    /// Programs kept for runs, by slot, and their loaded ids.
    codes: HashMap<u32, Code>,
    progs: HashMap<u32, u32>,
    fuel: u64,
}

impl<'w> Shadow<'w> {
    pub fn new(world: &'w World, fuel: u64) -> Self {
        Shadow {
            world,
            vm: Vm::new(&world.kernel, &world.maps, &world.helpers),
            keys: sealed_keystore(),
            codes: HashMap::new(),
            progs: HashMap::new(),
            fuel,
        }
    }

    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Loads `code` the way `lane` does, timing each step as a child
    /// span. With a `slot`, the program replaces whatever that slot ran;
    /// without one it is unloaded again. Returns whether the verifier
    /// (for the verifying lanes) accepted it.
    pub fn install(&mut self, tr: &mut Tracer, lane: Lane, code: &Code, slot: Option<u32>) -> bool {
        if let Some(slot) = slot {
            self.codes.insert(slot, code.clone());
        }
        if lane == Lane::Safe {
            return true;
        }
        if lane.verifies() {
            let verifier = Verifier::new(&self.world.maps, &self.world.helpers);
            let verdict = tr.shadow("verifier.verify", || verifier.verify(&code.prog));
            if tr.counting {
                if let Ok(v) = &verdict {
                    tr.verif.insns_processed += v.stats.insns_processed;
                    tr.verif.states_pushed += v.stats.states_pushed;
                    tr.verif.states_pruned += v.stats.states_pruned;
                    tr.verif.peak_states = tr.verif.peak_states.max(v.stats.peak_states as u64);
                }
            }
            if verdict.is_err() {
                return false;
            }
        }
        let prog = code.prog.clone();
        let vm = &mut self.vm;
        let id = match lane {
            Lane::Ebpf => vm.load(prog),
            Lane::EbpfJit => {
                tr.shadow("ebpf.load_jit", || vm.load_jit(prog, JitConfig::default()))
                    .expect("verified programs lower")
                    .0
            }
            Lane::Sandbox => tr.shadow("ebpf.load_sandboxed", || {
                vm.load_sandboxed(prog, SandboxConfig::default())
            }),
            Lane::SandboxJit => {
                tr.shadow("ebpf.load_sandboxed_jit", || {
                    vm.load_sandboxed_jit(prog, SandboxConfig::default(), JitConfig::default())
                })
                .expect("sandboxed programs lower")
                .0
            }
            Lane::Safe => unreachable!("handled above"),
        };
        match slot {
            Some(slot) => {
                if let Some(old) = self.progs.insert(slot, id) {
                    self.vm.unload(old);
                }
            }
            None => {
                self.vm.unload(id);
            }
        }
        true
    }

    /// Runs the slot's program on `input`, timed as a child span.
    pub fn run(&self, tr: &mut Tracer, lane: Lane, slot: u32, input: HookInput<'_>) {
        if lane == Lane::Safe {
            let ext = &self.codes[&slot].ext;
            let runtime =
                Runtime::new(&self.world.kernel, &self.world.maps).with_config(RuntimeConfig {
                    fuel: self.fuel,
                    ..RuntimeConfig::default()
                });
            let input = match input {
                HookInput::Packet(p) => ExtInput::Packet(p.to_vec()),
                HookInput::Kprobe(r) => ExtInput::Kprobe(r),
                HookInput::Lsm(f) => ExtInput::Lsm(f),
                HookInput::Sched(f) => ExtInput::Sched(f),
            };
            tr.shadow(lane.inner_span(), || runtime.run(ext, input));
            return;
        }
        let id = self.progs[&slot];
        let vm = &self.vm;
        tr.shadow(lane.inner_span(), || match input {
            HookInput::Packet(p) => vm.run_packet(id, p),
            HookInput::Kprobe(r) => vm.run(id, CtxInput::Kprobe(r)),
            HookInput::Lsm(f) => vm.run(id, CtxInput::Lsm(f)),
            HookInput::Sched(f) => vm.run(id, CtxInput::Sched(f)),
        });
    }

    fn synchronize(&self, tr: &mut Tracer) {
        let kernel = &self.world.kernel;
        tr.shadow("kernel_sim.rcu_synchronize", || {
            kernel.rcu.synchronize(&kernel.audit).expect("no readers")
        });
    }

    fn validate(&self, tr: &mut Tracer, signed: &SignedArtifact) {
        let keys = &self.keys;
        tr.shadow("signing.keystore_validate", || {
            keys.validate(&signed.bytes, &signed.signature)
                .expect("toolchain-signed")
        });
    }
}

/// What a traced install replays on the shadow kernel.
#[derive(Clone, Copy)]
pub enum Replay {
    /// The same program, kept in this slot for later runs.
    Keep(u32),
    /// The same program, unloaded again.
    Discard,
    /// The program the shadow already keeps in this slot (the main
    /// program references maps the shadow kernel lacks), unloaded again.
    Stand(u32),
}

/// Whether [`LaneRt::install`] attaches at a free point or hot-upgrades
/// an attached one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Install {
    Attach,
    Upgrade,
}

/// One lane at run time: its kernel, registry, safe-Rust loader and (in
/// a traced run) shadow.
pub struct LaneRt<'w> {
    pub lane: Lane,
    pub world: &'w World,
    pub reg: TenantRegistry<'w>,
    pub safe: SafeSide<'w>,
    pub shadow: Option<Shadow<'w>>,
}

impl<'w> LaneRt<'w> {
    pub fn new(lane: Lane, world: &'w World, shadow: Option<Shadow<'w>>) -> Self {
        LaneRt {
            lane,
            world,
            reg: TenantRegistry::new(&world.kernel, &world.maps, &world.helpers),
            safe: SafeSide::new(&world.kernel),
            shadow,
        }
    }

    /// Replaces the registry with a fresh one (tenants must be unloaded).
    pub fn renew_registry(&mut self) {
        let w = self.world;
        self.reg = TenantRegistry::new(&w.kernel, &w.maps, &w.helpers);
    }

    pub fn register(&mut self, name: &str, budget: TenantBudget) -> TenantId {
        self.reg
            .register(name, budget)
            .expect("tenant names are unique")
    }

    /// Creates a tenant-owned map; a traced lane creates the same map on
    /// its shadow kernel, where it must get the same fd.
    pub fn create_map(&mut self, tenant: TenantId, def: MapDef) -> MapFd {
        let fd = self
            .reg
            .create_map(tenant, def.clone())
            .expect("map within the tenant's quota");
        if let Some(shadow) = &self.shadow {
            assert_eq!(shadow.world.create_map(def), fd, "shadow map fds track");
        }
        fd
    }

    /// Attaches or upgrades `code` at `point`: for the safe lane the op
    /// is `Loader::load` of the signed artifact then the registry call.
    /// Returns the outcome and the op's wall nanoseconds.
    pub fn install(
        &mut self,
        tr: &mut Tracer,
        tenant: TenantId,
        point: &str,
        code: &Code,
        how: Install,
        replay: Replay,
    ) -> (Result<(), String>, u64) {
        let prog = (self.lane != Lane::Safe).then(|| code.prog.clone());
        let signed = match self.lane {
            Lane::Safe => Some(&self.safe.artifacts[&code.symbol]),
            _ => None,
        };
        let t0 = Instant::now();
        let mut t_loaded = t0;
        let spec = match self.lane {
            Lane::Safe => {
                let loaded = self
                    .safe
                    .loader
                    .load(signed.expect("artifact built"), &self.safe.registry);
                if tr.on {
                    t_loaded = Instant::now();
                }
                match loaded {
                    Ok(l) => ProgramSpec::Safe(l.extension),
                    Err(e) => return (Err(e.to_string()), ns_between(t0, Instant::now())),
                }
            }
            Lane::Ebpf => ProgramSpec::Ebpf(prog.expect("bytecode lane")),
            Lane::EbpfJit => ProgramSpec::EbpfJit(prog.expect("bytecode lane")),
            Lane::Sandbox => ProgramSpec::Sandbox(prog.expect("bytecode lane")),
            Lane::SandboxJit => ProgramSpec::SandboxJit(prog.expect("bytecode lane")),
        };
        let result = match how {
            Install::Attach => self.reg.attach(tenant, point, spec),
            Install::Upgrade => self.reg.upgrade(tenant, point, spec),
        };
        let t1 = Instant::now();
        let result = result.map_err(|e| e.to_string());
        if tr.on {
            if let Some(shadow) = &mut self.shadow {
                if let Some(signed) = signed {
                    tr.top("core.loader_load", t0, t_loaded);
                    shadow.validate(tr, signed);
                }
                let name = match how {
                    Install::Attach => "tenancy.attach",
                    Install::Upgrade => "tenancy.upgrade",
                };
                tr.top(name, t_loaded, t1);
                let accepted = match replay {
                    Replay::Keep(slot) => shadow.install(tr, self.lane, code, Some(slot)),
                    Replay::Discard => shadow.install(tr, self.lane, code, None),
                    Replay::Stand(slot) => {
                        let code = shadow.codes[&slot].clone();
                        shadow.install(tr, self.lane, &code, None)
                    }
                };
                if self.lane.verifies() && tr.counting && accepted != result.is_ok() {
                    tr.verif.verdict_mismatches += 1;
                }
                if how == Install::Upgrade {
                    shadow.synchronize(tr);
                }
            }
        }
        (result, ns_between(t0, t1))
    }

    /// Runs the program at `point` on `input`; `None` if the registry
    /// refused the call itself (no such tenant or point).
    pub fn run(
        &self,
        tr: &mut Tracer,
        tenant: TenantId,
        point: &str,
        input: HookInput<'_>,
        slot: u32,
    ) -> (Option<RunOutcome>, u64) {
        let t0 = Instant::now();
        let out = self.reg.run_input(tenant, point, input);
        let t1 = Instant::now();
        if tr.on {
            if let Some(shadow) = &self.shadow {
                tr.top(self.lane.run_span(), t0, t1);
                shadow.run(tr, self.lane, slot, input);
            }
        }
        (out.ok(), ns_between(t0, t1))
    }

    /// Unloads everything the tenant holds.
    pub fn unload(&mut self, tr: &mut Tracer, tenant: TenantId) -> (bool, u64) {
        let t0 = Instant::now();
        let ok = self.reg.unload_tenant(tenant).is_ok();
        let t1 = Instant::now();
        if tr.on {
            if let Some(shadow) = &self.shadow {
                tr.top("tenancy.unload_tenant", t0, t1);
                shadow.synchronize(tr);
            }
        }
        (ok, ns_between(t0, t1))
    }

    /// Whether the kernel is healthy and every byte mapped since boot
    /// (beyond `baseline`) has been returned.
    pub fn census(&self, baseline: u64) -> bool {
        self.world.kernel.health().pristine() && self.world.kernel.mem.bytes_mapped() == baseline
    }
}
