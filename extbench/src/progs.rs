//! The extension programs the workloads attach, each in eBPF bytecode
//! and in safe Rust with the same semantics.
//!
//! The XDP pair (SYN-flood filter and L4 load balancer) bounds every
//! packet access by comparing `data + N` against `data_end`, so the
//! verifier's packet-range refinement admits it and the eBPF lanes run
//! verified code. The kprobe, LSM and sched-ext programs are minimal
//! members of their hook families.

use ebpf::asm::Asm;
use ebpf::helpers;
use ebpf::insn::*;
use ebpf::maps::MapDef;
use ebpf::program::{ProgType, Program};
use kernel_sim::hooks::{LSM_ALLOW, LSM_DENY};
use kernel_sim::net::packet::FlowKey;
use safe_ext::Extension;

/// Half-open connections a source may hold before its SYNs are dropped.
pub const SYN_HALFOPEN_THRESHOLD: u64 = 4;
/// Backends the load balancer spreads flows over.
pub const LB_BACKENDS: u32 = 4;

pub const XDP_DROP: u64 = 1;
pub const XDP_PASS: u64 = 2;
pub const XDP_TX: u64 = 3;

/// The SYN filter's per-source half-open counter map.
pub fn syn_map() -> MapDef {
    MapDef::hash("syn-halfopen", 4, 8, 2048)
}

/// The load balancer's per-backend pick counters.
pub fn lb_map() -> MapDef {
    MapDef::array("lb-backends", 8, LB_BACKENDS)
}

/// `if data + n > data_end goto label`, with `data` in r7 and `data_end`
/// in r5; clobbers r2.
fn bound(asm: Asm, n: i32, label: &str) -> Asm {
    asm.mov64_reg(Reg::R2, Reg::R7)
        .alu64_imm(BPF_ADD, Reg::R2, n)
        .jmp64_reg(BPF_JGT, Reg::R2, Reg::R5, label)
}

/// The SYN-flood filter: tracks TCP flows through conntrack and counts
/// bare SYNs per source IP; a source holding [`SYN_HALFOPEN_THRESHOLD`]
/// half-opens has further SYNs dropped, and a completed handshake
/// refunds one.
///
/// Offsets (Ethernet/IPv4 without options/TCP): ethertype@12, version
/// and IHL@14, protocol@23, addresses and ports@26..38, TCP flags@47.
pub fn syn_filter_prog(fd: u32) -> Program {
    let asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0) // data
        .ldx(BPF_DW, Reg::R5, Reg::R6, 8) // data_end
        .ldx(BPF_DW, Reg::R9, Reg::R6, 16); // len
    let asm = bound(asm, 14, "drop")
        .ldx(BPF_H, Reg::R2, Reg::R7, 12) // LE load: 0x0800 reads 0x0008
        .jmp64_imm(BPF_JNE, Reg::R2, 0x0008, "pass");
    let asm = bound(asm, 34, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 14)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x45, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 23)
        .jmp64_imm(BPF_JNE, Reg::R2, 6, "pass");
    let insns = bound(asm, 54, "drop")
        // Conntrack tuple on the stack at r10-16: addresses and ports
        // (12 wire bytes at offset 26) plus the protocol byte.
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 26)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -16)
        .mov64_imm(Reg::R4, 12)
        .call_helper(helpers::BPF_XDP_LOAD_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        .st(BPF_B, Reg::R10, -4, 6)
        .ldx(BPF_B, Reg::R8, Reg::R7, 47) // TCP flags
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -16)
        .mov64_imm(Reg::R2, 13)
        .mov64_reg(Reg::R3, Reg::R8)
        .mov64_reg(Reg::R4, Reg::R9)
        .call_helper(helpers::BPF_CT_OBSERVE as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        // SynSent -> Established: the handshake completed.
        .jmp64_imm(BPF_JEQ, Reg::R0, 0x0102, "complete")
        .mov64_reg(Reg::R2, Reg::R8)
        .alu64_imm(BPF_AND, Reg::R2, 0x12)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x02, "pass") // only bare SYNs count
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "have")
        .st(BPF_DW, Reg::R10, -32, 1)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -32)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_MAP_UPDATE_ELEM as i32)
        .ja("pass")
        .label("have")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .jmp64_imm(BPF_JGE, Reg::R1, SYN_HALFOPEN_THRESHOLD as i32, "drop")
        .alu64_imm(BPF_ADD, Reg::R1, 1)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .ja("pass")
        .label("complete")
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "pass")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .jmp64_imm(BPF_JEQ, Reg::R1, 0, "pass")
        .alu64_imm(BPF_SUB, Reg::R1, 1)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .label("pass")
        .mov64_imm(Reg::R0, XDP_PASS as i32)
        .exit()
        .label("drop")
        .mov64_imm(Reg::R0, XDP_DROP as i32)
        .exit()
        .build()
        .expect("syn filter assembles");
    Program::new("syn-filter", ProgType::Xdp, insns)
}

/// [`syn_filter_prog`] in safe Rust, decision for decision.
pub fn syn_filter_ext(fd: u32) -> Extension {
    Extension::new("syn-filter", ProgType::Xdp, move |ctx| {
        let pkt = ctx.packet()?;
        let len = pkt.len() as u64;
        if len < 14 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u16(12)? != 0x0008 {
            return Ok(XDP_PASS);
        }
        if len < 34 || pkt.load_u8(14)? != 0x45 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u8(23)? != 6 {
            return Ok(XDP_PASS);
        }
        if len < 54 {
            return Ok(XDP_DROP);
        }
        let mut wire = [0u8; 13];
        pkt.load_bytes(26, &mut wire[..12])?;
        wire[12] = 6;
        let key = FlowKey::from_wire(&wire).expect("13-byte tuple");
        let flags = pkt.load_u8(47)?;
        let obs = ctx.ct_observe(key, flags, len)?;
        let src = &wire[..4];
        let halfopen = ctx.hash(fd)?;
        if obs.packed() == 0x0102 {
            if let Some(v) = halfopen.lookup(src)? {
                let n = u64::from_le_bytes(v[..8].try_into().expect("8-byte value"));
                if n > 0 {
                    halfopen.insert(src, &(n - 1).to_le_bytes())?;
                }
            }
            return Ok(XDP_PASS);
        }
        if flags & 0x12 != 0x02 {
            return Ok(XDP_PASS);
        }
        match halfopen.lookup(src)? {
            None => {
                halfopen.insert(src, &1u64.to_le_bytes())?;
                Ok(XDP_PASS)
            }
            Some(v) => {
                let n = u64::from_le_bytes(v[..8].try_into().expect("8-byte value"));
                if n >= SYN_HALFOPEN_THRESHOLD {
                    Ok(XDP_DROP)
                } else {
                    halfopen.insert(src, &(n + 1).to_le_bytes())?;
                    Ok(XDP_PASS)
                }
            }
        }
    })
}

/// The L4 load balancer: hashes the 5-tuple to a backend, counts the
/// pick, rewrites the destination IP to `10.2.0.<backend>`, recomputes
/// the IP header checksum and returns `XDP_TX`.
pub fn lb_prog(fd: u32) -> Program {
    let asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0) // data
        .ldx(BPF_DW, Reg::R5, Reg::R6, 8); // data_end
    let asm = bound(asm, 14, "drop")
        .ldx(BPF_H, Reg::R2, Reg::R7, 12)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x0008, "pass");
    let asm = bound(asm, 34, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 14)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x45, "drop")
        .ldx(BPF_B, Reg::R8, Reg::R7, 23) // protocol
        .jmp64_imm(BPF_JEQ, Reg::R8, 6, "l4ok")
        .jmp64_imm(BPF_JNE, Reg::R8, 17, "pass")
        .label("l4ok");
    let mut asm = bound(asm, 42, "drop")
        // h = src*K1 ^ dst*K2 ^ ports*K3 ^ proto; h ^= h >> 15. The
        // constants go through lddw: alu64_imm would sign-extend them.
        .ldx(BPF_W, Reg::R2, Reg::R7, 26)
        .lddw(Reg::R3, 0x9e37_79b1)
        .alu64_reg(BPF_MUL, Reg::R2, Reg::R3)
        .ldx(BPF_W, Reg::R4, Reg::R7, 30)
        .lddw(Reg::R3, 0x85eb_ca6b)
        .alu64_reg(BPF_MUL, Reg::R4, Reg::R3)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .ldx(BPF_W, Reg::R4, Reg::R7, 34)
        .lddw(Reg::R3, 0xc2b2_ae35)
        .alu64_reg(BPF_MUL, Reg::R4, Reg::R3)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R4, 15)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .alu64_imm(BPF_AND, Reg::R2, LB_BACKENDS as i32 - 1)
        .mov64_reg(Reg::R8, Reg::R2) // backend index from here on
        .stx(BPF_W, Reg::R10, -4, Reg::R2)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "rewrite")
        .mov64_imm(Reg::R1, 1)
        .atomic(BPF_DW, Reg::R0, 0, Reg::R1, BPF_ATOMIC_ADD)
        .label("rewrite")
        .st(BPF_B, Reg::R10, -8, 10)
        .st(BPF_B, Reg::R10, -7, 2)
        .st(BPF_B, Reg::R10, -6, 0)
        .stx(BPF_B, Reg::R10, -5, Reg::R8)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 30)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4)
        .call_helper(helpers::BPF_XDP_STORE_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        // Checksum: LE halfword sum over the header minus the checksum
        // field, folded, complemented, stored LE.
        .mov64_imm(Reg::R2, 0);
    for off in [14i16, 16, 18, 20, 22, 26, 28, 30, 32] {
        asm = asm
            .ldx(BPF_H, Reg::R3, Reg::R7, off)
            .alu64_reg(BPF_ADD, Reg::R2, Reg::R3);
    }
    let insns = asm
        .mov64_reg(Reg::R3, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R3, 16)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .alu64_reg(BPF_ADD, Reg::R2, Reg::R3)
        .mov64_reg(Reg::R3, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R3, 16)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .alu64_reg(BPF_ADD, Reg::R2, Reg::R3)
        .alu64_imm(BPF_XOR, Reg::R2, 0xffff)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .stx(BPF_H, Reg::R10, -12, Reg::R2)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 24)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -12)
        .mov64_imm(Reg::R4, 2)
        .call_helper(helpers::BPF_XDP_STORE_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        .mov64_imm(Reg::R0, XDP_TX as i32)
        .exit()
        .label("pass")
        .mov64_imm(Reg::R0, XDP_PASS as i32)
        .exit()
        .label("drop")
        .mov64_imm(Reg::R0, XDP_DROP as i32)
        .exit()
        .build()
        .expect("load balancer assembles");
    Program::new("l4-lb", ProgType::Xdp, insns)
}

/// [`lb_prog`] in safe Rust.
pub fn lb_ext(fd: u32) -> Extension {
    Extension::new("l4-lb", ProgType::Xdp, move |ctx| {
        let pkt = ctx.packet()?;
        let len = pkt.len() as u64;
        if len < 14 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u16(12)? != 0x0008 {
            return Ok(XDP_PASS);
        }
        if len < 34 || pkt.load_u8(14)? != 0x45 {
            return Ok(XDP_DROP);
        }
        let proto = pkt.load_u8(23)? as u64;
        if proto != 6 && proto != 17 {
            return Ok(XDP_PASS);
        }
        if len < 42 {
            return Ok(XDP_DROP);
        }
        let mut h = (pkt.load_u32(26)? as u64).wrapping_mul(0x9e37_79b1)
            ^ (pkt.load_u32(30)? as u64).wrapping_mul(0x85eb_ca6b)
            ^ (pkt.load_u32(34)? as u64).wrapping_mul(0xc2b2_ae35)
            ^ proto;
        h ^= h >> 15;
        let backend = (h & (LB_BACKENDS as u64 - 1)) as u32;
        ctx.array(fd)?.fetch_add_u64(backend, 0, 1)?;
        pkt.store_bytes(30, &[10, 2, 0, backend as u8])?;
        let mut sum: u64 = 0;
        for off in [14u64, 16, 18, 20, 22, 26, 28, 30, 32] {
            sum += pkt.load_u16(off)? as u64;
        }
        sum = (sum & 0xffff) + (sum >> 16);
        sum = (sum & 0xffff) + (sum >> 16);
        pkt.store_bytes(24, &(!(sum as u16)).to_le_bytes())?;
        Ok(XDP_TX)
    })
}

/// Kprobe: folds the sampled value (arg 1) into histogram slot
/// `point & 3` (arg 0) and returns the log2 bucket.
pub fn probe_prog() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R7, Reg::R1, 0)
        .ldx(BPF_DW, Reg::R2, Reg::R1, 8)
        .mov64_reg(Reg::R1, Reg::R7)
        .alu64_imm(BPF_AND, Reg::R1, 3)
        .call_helper(helpers::BPF_HIST_RECORD as i32)
        .exit()
        .build()
        .expect("probe program assembles");
    Program::new("probe", ProgType::Kprobe, insns)
}

/// [`probe_prog`] in safe Rust.
pub fn probe_ext() -> Extension {
    Extension::new("probe", ProgType::Kprobe, |ctx| {
        let point = ctx.kprobe_arg(0)?;
        let value = ctx.kprobe_arg(1)?;
        ctx.hist_record(point & 3, value)
    })
}

/// LSM: denies iff `(subject ^ attr) & 7 == 7`. Both exits return
/// constants, so the verifier proves the `[0, 1]` return contract.
pub fn policy_prog() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 8)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 16)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R3)
        .alu64_imm(BPF_AND, Reg::R2, 7)
        .jmp64_imm(BPF_JEQ, Reg::R2, 7, "deny")
        .mov64_imm(Reg::R0, LSM_ALLOW as i32)
        .exit()
        .label("deny")
        .mov64_imm(Reg::R0, LSM_DENY as i32)
        .exit()
        .build()
        .expect("policy program assembles");
    Program::new("policy", ProgType::Lsm, insns)
}

/// [`policy_prog`] in safe Rust.
pub fn policy_ext() -> Extension {
    Extension::new("policy", ProgType::Lsm, |ctx| {
        let subject = ctx.lsm_field(1)?;
        let attr = ctx.lsm_field(2)?;
        Ok(if (subject ^ attr) & 7 == 7 {
            LSM_DENY
        } else {
            LSM_ALLOW
        })
    })
}

/// Sched-ext pick-next-task: defers (2) when the candidates' vruntime
/// sum is a multiple of 7, else picks by candidate-id parity. Every exit
/// is a constant in `[0, 2]`.
pub fn sched_prog() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 16)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 32)
        .ldx(BPF_DW, Reg::R4, Reg::R1, 24)
        .ldx(BPF_DW, Reg::R5, Reg::R1, 40)
        .alu64_reg(BPF_ADD, Reg::R4, Reg::R5)
        .alu64_imm(BPF_MOD, Reg::R4, 7)
        .jmp64_imm(BPF_JEQ, Reg::R4, 0, "defer")
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R3)
        .alu64_imm(BPF_AND, Reg::R2, 1)
        .jmp64_imm(BPF_JEQ, Reg::R2, 1, "second")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("second")
        .mov64_imm(Reg::R0, 1)
        .exit()
        .label("defer")
        .mov64_imm(Reg::R0, 2)
        .exit()
        .build()
        .expect("sched program assembles");
    Program::new("sched", ProgType::SchedExt, insns)
}

/// [`sched_prog`] in safe Rust.
pub fn sched_ext() -> Extension {
    Extension::new("sched", ProgType::SchedExt, |ctx| {
        let c0_id = ctx.sched_field(2)?;
        let c0_vr = ctx.sched_field(3)?;
        let c1_id = ctx.sched_field(4)?;
        let c1_vr = ctx.sched_field(5)?;
        Ok(if c0_vr.wrapping_add(c1_vr) % 7 == 0 {
            2
        } else if (c0_id ^ c1_id) & 1 == 1 {
            1
        } else {
            0
        })
    })
}

/// A trivial packet program returning 0: what the `load` workload's
/// tenants are attached with before the corpus cycles through them.
pub fn home_prog() -> Program {
    bench::workloads::straightline(16)
}

/// [`home_prog`] in safe Rust.
pub fn home_ext() -> Extension {
    Extension::new("straightline", ProgType::SocketFilter, |_| Ok(0))
}
