//! The §7.1 models of parallel RTL simulation on general-purpose hardware.
//!
//! Model 1 (Listing 1): `P` threads each execute `N/P` mock-computation
//! instructions per simulated cycle, then rendezvous at two barriers (end
//! of compute, end of communication) — the minimum synchronization of a
//! BSP simulation step. The measured rate isolates barrier cost vs.
//! granularity.
//!
//! Model 2 additionally models the instruction-cache pressure of a fully
//! unrolled model: the paper unrolls the compute loop so the code footprint
//! scales with `N/P`. Rust cannot easily generate `N/P` unique instructions
//! at runtime, so the footprint is reproduced on the data side: each thread
//! walks a private buffer sized proportionally to its instruction share,
//! touching one cache line per mock instruction group. The effect —
//! per-thread cache footprint shrinks as `P` grows, so parallelism relieves
//! capacity pressure — is the same phenomenon the paper measures (see the
//! README's "Substitutions relative to the paper").

use std::time::Instant;

use manticore_util::SpinBarrier;

/// Result of one model run.
#[derive(Debug, Clone, Copy)]
pub struct ModelRun {
    /// Threads used.
    pub threads: usize,
    /// Mock instructions per simulated cycle (granularity).
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl ModelRun {
    /// Simulation rate in kHz.
    pub fn rate_khz(&self) -> f64 {
        self.cycles as f64 / self.seconds / 1e3
    }
}

/// The unoptimizable four-variable kernel of Listing 1:
/// `a ^= a+1; b ^= b+1; c ^= c+1; d ^= d+1` — independent ops that avoid
/// read-after-write stalls.
#[inline(always)]
fn non_opt(state: &mut [u64; 4]) {
    state[0] ^= state[0].wrapping_add(1);
    state[1] ^= state[1].wrapping_add(2);
    state[2] ^= state[2].wrapping_add(3);
    state[3] ^= state[3].wrapping_add(4);
}

/// Instructions modelled per `non_opt` call (4 adds + 4 xors).
const INSTR_PER_KERNEL: u64 = 8;

/// Model 1: barrier cost only.
///
/// Simulates `cycles` RTL cycles of a design needing `instructions` mock
/// instructions per cycle, split over `threads` threads with two barriers
/// per cycle.
pub fn model1(threads: usize, instructions: u64, cycles: u64) -> ModelRun {
    run_model(threads, instructions, cycles, 0)
}

/// Model 2: barriers + cache pressure. `footprint_bytes_per_instr` scales
/// the per-thread buffer (default in the harness: 4 bytes per modelled
/// instruction, approximating unrolled x86 code bytes).
pub fn model2(threads: usize, instructions: u64, cycles: u64) -> ModelRun {
    run_model(threads, instructions, cycles, 4)
}

fn run_model(
    threads: usize,
    instructions: u64,
    cycles: u64,
    footprint_bytes_per_instr: u64,
) -> ModelRun {
    let threads = threads.max(1);
    let per_thread = instructions / threads as u64;
    let kernels = (per_thread / INSTR_PER_KERNEL).max(1);
    let barrier = SpinBarrier::new(threads);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                thread_body(barrier, kernels, cycles, footprint_bytes_per_instr);
            });
        }
        thread_body(&barrier, kernels, cycles, footprint_bytes_per_instr);
    });
    let seconds = start.elapsed().as_secs_f64();
    ModelRun {
        threads,
        instructions,
        cycles,
        seconds,
    }
}

fn thread_body(barrier: &SpinBarrier, kernels: u64, cycles: u64, footprint_per_instr: u64) {
    let mut state = [1u64, 2, 3, 4];
    // Model-2 footprint: one 64-byte line per kernel's worth of unrolled
    // code bytes.
    let lines = if footprint_per_instr == 0 {
        0
    } else {
        ((kernels * INSTR_PER_KERNEL * footprint_per_instr) / 64).max(1)
    };
    let mut footprint: Vec<u64> = vec![0; (lines as usize) * 8];
    for _ in 0..cycles {
        // Compute phase.
        if footprint.is_empty() {
            for _ in 0..kernels {
                non_opt(&mut state);
            }
        } else {
            for k in 0..kernels {
                non_opt(&mut state);
                // Touch the k-th line, emulating the i-cache walking
                // through unrolled code.
                let idx = ((k as usize) * 8) % footprint.len();
                footprint[idx] = footprint[idx].wrapping_add(state[0]);
            }
        }
        // Barrier at end of computation...
        barrier.wait().expect("model barrier is never poisoned");
        // ...and at end of (zero-cost) communication.
        barrier.wait().expect("model barrier is never poisoned");
    }
    // Defeat optimization.
    std::hint::black_box((&state, &footprint));
}
