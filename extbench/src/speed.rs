//! The host-speed probe.
//!
//! The host runs the benchmark at a speed that changes by up to 1.7x
//! over seconds to minutes (see `NOTES.md`, "Host noise"). The probe is
//! fixed work that shares nothing with the system under test: a round
//! of `HashMap` lookups, then a loop over eight registers with
//! data-dependent branches, whose time is the probe's reading. Its time
//! follows the host's speed; the end-to-end figures are scaled by it to
//! [`NOMINAL_NS`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::phase::mix;
use crate::stats::ns_between;

/// Probe time the figures are scaled to: about the probe's time on a
/// 2-vCPU KVM guest of a Xeon (family 6, model 207) in its fast state.
pub const NOMINAL_NS: f64 = 10_000.0;

/// One register-loop instruction: opcode, destination, source,
/// immediate.
type Insn = (u8, u8, u8, u64);

pub struct Probe {
    prog: Vec<Insn>,
    table: HashMap<u64, u64>,
    /// Half hit the table, half miss.
    keys: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        let prog = (0..256u64)
            .map(|i| {
                let r = mix(i ^ 0xbeef);
                (
                    (r % 8) as u8,
                    (r >> 8) as u8 % 8,
                    (r >> 16) as u8 % 8,
                    r >> 24,
                )
            })
            .collect();
        Probe {
            prog,
            table: (0..16_384u64).map(|i| (mix(i), i)).collect(),
            keys: (0..4_096u64)
                .map(|i| mix(i + (i & 1) * 1_000_000))
                .collect(),
        }
    }
}

impl Probe {
    fn lookups(&self) -> u64 {
        self.keys.iter().fold(0u64, |acc, k| {
            acc.wrapping_add(*self.table.get(k).unwrap_or(&1))
        })
    }

    /// Lookups, the timed register loop, more lookups and a burst of
    /// small allocations; returns the loop's wall nanoseconds.
    fn pass(&self) -> u64 {
        let mut acc = self.lookups();
        let t0 = Instant::now();
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for pass in 0..16u64 {
            for &(op, d, s, imm) in &self.prog {
                let (d, s) = (d as usize, s as usize);
                r[d] = match op {
                    0 => r[d].wrapping_add(r[s] ^ imm),
                    1 => r[d].wrapping_mul(r[s] | 1),
                    2 => r[d] ^ (r[s] >> (imm & 31)),
                    3 => {
                        if r[s] & 1 == 0 {
                            r[d].wrapping_sub(imm)
                        } else {
                            r[d].rotate_left(7)
                        }
                    }
                    4 => {
                        if r[d] > r[s] {
                            r[s]
                        } else {
                            r[d] ^ pass
                        }
                    }
                    5 => r[d] & r[s].wrapping_add(imm),
                    6 => r[d].wrapping_add(pass),
                    _ => r[s].wrapping_sub(r[d]),
                };
            }
        }
        acc ^= r.iter().fold(0, |a, &x| a ^ x);
        let ns = ns_between(t0, Instant::now());
        acc = acc
            .wrapping_add(self.lookups())
            .wrapping_add(self.lookups());
        let boxes: Vec<Box<[u64; 6]>> = (0..512u64).map(|i| Box::new([i ^ acc; 6])).collect();
        black_box(boxes.iter().map(|b| b[3]).sum::<u64>());
        ns
    }

    /// One probe reading: the second of two passes, so the first warms
    /// caches and branch predictors.
    pub fn time(&self) -> u64 {
        self.pass();
        self.pass()
    }
}
