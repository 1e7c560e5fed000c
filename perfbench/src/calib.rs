//! Machine-speed calibration of the end-to-end timings.
//!
//! The benchmark runs on shared machines whose speed drifts by 20–50%
//! over tens of seconds, in CPU time as much as in wall time, so raw
//! seconds from runs a minute apart are not comparable. Each unit of work
//! is therefore bracketed by a fixed kernel that does not touch the
//! program, and its timings are scaled by `2 · REFERENCE_S / (before +
//! after)`: the seconds the unit would have taken at the speed at which
//! the kernel runs in `REFERENCE_S`. A change to the program moves the
//! unit and not the kernel, so it shows in full. Raw seconds are printed
//! alongside.

use crate::trace::timed;
use std::hint::black_box;

/// Kernel seconds at reference speed: about what one pass takes on an
/// uncontended 2-core x86-64 virtual machine.
pub const REFERENCE_S: f64 = 0.012;

/// The memory half walks 4 MiB, beyond a core's private caches, like the
/// engine's per-state arrays at the larger workloads' sizes.
const WIDE: usize = 1 << 20;
/// The core half stays in 16 KiB of L1, like A_G's exact chain at n = 4096.
const NARROW: usize = 1 << 12;
const WIDE_STEPS: u32 = 1 << 21;
const NARROW_STEPS: u32 = 1 << 20;

/// The kernel's scratch tables.
pub struct Calibrator {
    wide: Vec<u32>,
    narrow: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            wide: vec![0; WIDE],
            narrow: vec![0; NARROW],
        }
    }

    /// Seconds of one kernel pass: random read-modify-writes over the
    /// wide table (cache misses), then branchy integer mixing over the
    /// narrow one (core throughput), in roughly equal time.
    pub fn sample(&mut self) -> f64 {
        let (wide, narrow) = (&mut self.wide, &mut self.narrow);
        let ((), secs) = timed(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15_u64;
            for _ in 0..WIDE_STEPS {
                x = xorshift(x);
                // The top 20 bits index the 2^20-entry table.
                #[allow(clippy::cast_possible_truncation)]
                let (i, add) = ((x >> 44) as usize, x as u32);
                wide[i] = wide[i].wrapping_add(add);
            }
            let mut acc = 0u64;
            for _ in 0..NARROW_STEPS {
                x = xorshift(x);
                #[allow(clippy::cast_possible_truncation)]
                let (i, add) = ((x as usize) % NARROW, (x >> 32) as u32);
                let v = narrow[i];
                if v & 1 == 0 {
                    acc = acc.wrapping_add(u64::from(v) * 3);
                } else {
                    acc ^= u64::from(v) << 7;
                }
                narrow[i] = v.wrapping_add(add);
            }
            black_box((acc, &mut *wide, &mut *narrow));
        });
        secs
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Scale factor for a unit bracketed by kernel passes `before` and
/// `after`: multiply its seconds, divide its rates.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
